// Design rule checker: static analysis over a Netlist + PhysState +
// pblock context. Plays the role of Vivado's DRC as the correctness
// backstop of the pre-implemented flow — relocated, stitched checkpoints
// are only trusted after an independent pass verifies that the composed
// design is well-formed (structure), legally placed (column/tile
// capacities, pblock containment) and legally routed (channel capacities,
// locked-route conflicts, terminal coverage).
//
// The rules are one table (see drc_rules()); each rule declares the flow
// stages it applies to and a default severity, and emits its findings
// through the shared netlist/findings.h report. A rule can be waived by id
// through CheckOptions; waived findings are still recorded but never
// count as errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "netlist/checkpoint.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

/// Which flow stage(s) a rule is meaningful at (bitmask).
enum DrcStage : unsigned {
  kDrcStructural = 1u << 0,  // netlist only
  kDrcPlacement = 1u << 1,   // needs PhysState (+ Device)
  kDrcRouting = 1u << 2,     // needs PhysState (+ Device)
  kDrcCheckpoint = 1u << 3,  // needs Checkpoint
  kDrcAllStages = 0xFu,
};

/// Everything a rule may look at. Only `netlist` is mandatory; rules skip
/// silently when the context they need is absent (e.g. placement rules
/// without a device).
struct DrcContext {
  const Netlist* netlist = nullptr;
  const PhysState* phys = nullptr;
  const Device* device = nullptr;
  const Checkpoint* checkpoint = nullptr;
  std::vector<InstanceRange> instances;
  int channel_capacity = kChannelCapacity;  // routing overuse threshold
  int tile_spill_radius = 3;  // tiles a wide cell may legally spread over
};

using DrcCheck = void (*)(const DrcContext& ctx, Emitter& out);

/// A single design rule: emits its findings under its own id and severity.
struct DrcRule {
  const char* id;
  const char* what;  // one-line description
  unsigned stages;   // DrcStage bitmask
  Severity severity;
  DrcCheck check;
};

/// The rule table, in emission order.
const std::vector<DrcRule>& drc_rules();

/// Runs every rule whose stages intersect `stages`.
FindingsReport run_drc(const DrcContext& ctx, unsigned stages = kDrcAllStages,
                       const CheckOptions& opt = {});

/// Structural subset over a bare netlist (compose gate, checkpoint load).
FindingsReport run_structural_drc(const Netlist& netlist, const CheckOptions& opt = {});

/// Full check of one checkpoint: structural + placement/routing bounded by
/// its pblock + checkpoint-integrity rules. `device` may be null (rules
/// needing it are skipped, e.g. after a bare load_checkpoint).
FindingsReport run_checkpoint_drc(const Checkpoint& checkpoint, const Device* device = nullptr,
                                  const CheckOptions& opt = {});

// -- the rule checks behind drc_rules(), one per rule ------------------------
namespace drc_detail {

void place_bounds(const DrcContext& ctx, Emitter& out);
void place_escape(const DrcContext& ctx, Emitter& out);
void place_overlap(const DrcContext& ctx, Emitter& out);
void place_overuse(const DrcContext& ctx, Emitter& out);
void place_tile_crowding(const DrcContext& ctx, Emitter& out);
void route_overuse(const DrcContext& ctx, Emitter& out);
void route_locked_conflict(const DrcContext& ctx, Emitter& out);
void route_escape(const DrcContext& ctx, Emitter& out);
void route_endpoints(const DrcContext& ctx, Emitter& out);
void cp_pins(const DrcContext& ctx, Emitter& out);
void cp_meta(const DrcContext& ctx, Emitter& out);

}  // namespace drc_detail

}  // namespace fpgasim
