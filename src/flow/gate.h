// Flow gates: the independent checks both implementation flows run over
// the design between stages. Every gate runs the DRC at a stage mask and
// throws on errors; a flow's last gate then runs the opt-in fpgalint and
// compiled-verify gates over the final netlist.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/device.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

struct GateOptions {
  /// Opt-in fpgalint gate: dataflow static analysis (comb loops, dead
  /// logic, const/X propagation, stitch-boundary widths) over the final
  /// netlist. Throws on error findings.
  bool lint = false;
  /// Opt-in compiled-verify gate: A/B the final netlist through the
  /// compiled bit-parallel simulator against the interpreter oracle
  /// (sampled lanes of a 64-wide batch, seeded random stimulus, 24
  /// cycles). Throws on any bit divergence.
  bool compiled_verify = false;
};

struct GateReport {
  double drc_seconds = 0.0;  // every DRC gate of the flow together
  // fpgalint gate result over the final netlist (empty when
  // GateOptions::lint is off).
  FindingsReport lint{"lint"};
};

/// The design a flow's gates check. Holds references: the gates see the
/// design as it stands when each one runs.
struct GateSubject {
  const char* flow;  // "preimpl" / "monolithic"; names every failure
  const Device& device;
  const Netlist& netlist;
  const PhysState& phys;
  const std::vector<InstanceRange>& instances;
  int channel_capacity;  // routing overuse threshold (RouteOptions)
  std::uint64_t seed;    // compiled-verify stimulus
};

/// Runs the DRC rules of `stages` into `drc` and throws on errors as
/// "<flow> after <after>". With `last`, the opt-in lint and compiled-verify
/// gates of `*last` follow, in that order.
void run_gate(const GateSubject& subject, unsigned stages, const char* after,
              FindingsReport& drc, GateReport& report, const GateOptions* last = nullptr);

}  // namespace fpgasim
