// Flow gates: the DRC checks both implementation flows run over the
// design between stages. Every gate runs the DRC at a stage mask and
// throws on errors.
#pragma once

#include <vector>

#include "fabric/device.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

/// The design a flow's gates check. Holds references: the gates see the
/// design as it stands when each one runs.
struct GateSubject {
  const char* flow;  // "preimpl" / "monolithic"; names every failure
  const Device& device;
  const Netlist& netlist;
  const PhysState& phys;
  const std::vector<InstanceRange>& instances;
  int channel_capacity;  // routing overuse threshold (RouteOptions)
};

/// Runs the DRC rules of `stages` into `drc`, adds its wall time to
/// `drc_seconds` and throws on errors as "<flow> after <after>".
void run_gate(const GateSubject& subject, unsigned stages, const char* after,
              FindingsReport& drc, double& drc_seconds);

}  // namespace fpgasim
