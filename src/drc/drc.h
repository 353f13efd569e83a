// Design rule checker: static analysis over a Netlist + PhysState +
// pblock context. Plays the role of Vivado's DRC as the correctness
// backstop of the pre-implemented flow — relocated, stitched checkpoints
// are only trusted after an independent pass verifies that the composed
// design is well-formed (structure), legally placed (column/tile
// capacities, pblock containment) and legally routed (channel capacities,
// locked-route conflicts, terminal coverage).
//
// Rules are registered in a global registry (see drc_rules()); each rule
// declares the flow stages it applies to and a default severity. A rule
// can be waived by id through DrcOptions; waived findings are still
// recorded but never count as errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "netlist/checkpoint.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

enum class DrcSeverity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

const char* to_string(DrcSeverity severity);

/// Which flow stage(s) a rule is meaningful at (bitmask).
enum DrcStage : unsigned {
  kDrcStructural = 1u << 0,  // netlist only
  kDrcPlacement = 1u << 1,   // needs PhysState (+ Device)
  kDrcRouting = 1u << 2,     // needs PhysState (+ Device)
  kDrcCheckpoint = 1u << 3,  // needs Checkpoint
  kDrcAllStages = 0xFu,
};

/// One pre-implemented component instance inside a composed design:
/// the contiguous cell/net ranges merge() assigned to it plus its
/// (relocated) pblock footprint. Mirrors ComposedDesign::Instance without
/// depending on the flow layer.
struct DrcInstance {
  std::string name;
  Pblock footprint;
  CellId cell_begin = 0;
  CellId cell_end = 0;
  NetId net_begin = 0;
  NetId net_end = 0;
};

/// Everything a rule may look at. Only `netlist` is mandatory; rules skip
/// silently when the context they need is absent (e.g. placement rules
/// without a device).
struct DrcContext {
  const Netlist* netlist = nullptr;
  const PhysState* phys = nullptr;
  const Device* device = nullptr;
  const Checkpoint* checkpoint = nullptr;
  std::vector<DrcInstance> instances;
  int channel_capacity = 14;  // routing overuse threshold (RouteOptions)
  int tile_spill_radius = 3;  // tiles a wide cell may legally spread over
};

struct DrcViolation {
  std::string rule;  // rule id
  DrcSeverity severity = DrcSeverity::kError;
  std::string message;
  CellId cell = kInvalidCell;  // offending cell when applicable
  NetId net = kInvalidNet;     // offending net when applicable
  bool waived = false;

  std::string to_string() const;
};

struct DrcOptions {
  /// Rule ids whose findings are recorded but excluded from error/warning
  /// counts (per-rule waivers).
  std::vector<std::string> waived_rules;
  /// Cap on recorded violations per rule; further findings are counted in
  /// DrcReport::suppressed but not stored.
  std::size_t max_violations_per_rule = 64;
};

class DrcReport {
 public:
  void add(DrcViolation violation);

  bool clean() const { return errors_ == 0; }
  std::size_t errors() const { return errors_; }
  std::size_t warnings() const { return warnings_; }
  std::size_t infos() const { return infos_; }
  std::size_t waived() const { return waived_; }
  std::size_t suppressed() const { return suppressed_; }
  std::size_t rules_run() const { return rules_run_; }
  const std::vector<DrcViolation>& violations() const { return violations_; }

  /// One-line "DRC: 2 errors, 1 warning (16 rules)" digest.
  std::string summary() const;
  /// Full multi-line listing (summary + every recorded violation).
  std::string to_string() const;

  /// Violations recorded against `rule` (waived included).
  std::vector<const DrcViolation*> by_rule(const std::string& rule) const;

 private:
  friend DrcReport run_drc(const DrcContext&, unsigned, const DrcOptions&);
  std::vector<DrcViolation> violations_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t infos_ = 0;
  std::size_t waived_ = 0;
  std::size_t suppressed_ = 0;
  std::size_t rules_run_ = 0;
};

/// A single design rule. Stateless; check() appends findings to the report.
class DrcRule {
 public:
  virtual ~DrcRule() = default;
  virtual const char* id() const = 0;
  virtual const char* what() const = 0;  // one-line description
  virtual unsigned stages() const = 0;   // DrcStage bitmask
  virtual DrcSeverity severity() const = 0;
  virtual void check(const DrcContext& ctx, DrcReport& report) const = 0;
};

/// The global rule registry (stable order, built once).
const std::vector<const DrcRule*>& drc_rules();

/// Runs every registered rule whose stages() intersects `stages`.
DrcReport run_drc(const DrcContext& ctx, unsigned stages = kDrcAllStages,
                  const DrcOptions& opt = {});

/// Structural subset over a bare netlist (compose gate, checkpoint load).
DrcReport run_structural_drc(const Netlist& netlist, const DrcOptions& opt = {});

/// Full check of one checkpoint: structural + placement/routing bounded by
/// its pblock + checkpoint-integrity rules. `device` may be null (rules
/// needing it are skipped, e.g. after a bare load_checkpoint).
DrcReport run_checkpoint_drc(const Checkpoint& checkpoint, const Device* device = nullptr,
                             const DrcOptions& opt = {});

/// Throws std::runtime_error with the report listing when !report.clean().
void enforce_drc(const DrcReport& report, const std::string& where);

// -- shared helpers used by the rule implementations ------------------------
namespace drc_detail {

/// Instance index owning `cell`, or -1 (binary search over the ranges).
int instance_of_cell(const std::vector<DrcInstance>& instances, CellId cell);

void register_structural_rules(std::vector<const DrcRule*>& rules);
void register_placement_rules(std::vector<const DrcRule*>& rules);
void register_routing_rules(std::vector<const DrcRule*>& rules);
void register_checkpoint_rules(std::vector<const DrcRule*>& rules);

}  // namespace drc_detail

}  // namespace fpgasim
