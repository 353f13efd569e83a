// Function optimization (paper Sec. IV-A): implements one component
// out-of-context — minimal column-aware pblock, partition-pin port
// planning on the pblock boundary, cell-level placement, pblock-bounded
// routing, STA — explores several strategies, locks the winner and emits a
// checkpoint. A strategy whose route fails or leaves channel overuse is
// skipped.
#pragma once

#include <cstdint>

#include "fabric/device.h"
#include "netlist/checkpoint.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

struct OocOptions {
  std::uint64_t seed = 1;
  int strategies = 3;            // performance-exploration attempts
  double pblock_slack = 1.25;    // resource margin inside the pblock
  bool port_planning = true;     // partition pins on the boundary (ablation B)
  RouteOptions route;
};

struct OocResult {
  Checkpoint checkpoint;
  TimingResult timing;
  RouteResult route;
  int strategy = 0;  // winning exploration strategy index
};

/// Implements `netlist` OOC on `device`; every cell of the result is
/// locked. Throws std::runtime_error when no pblock can satisfy the
/// component's resources or no strategy routes without overuse.
OocResult implement_ooc(const Device& device, Netlist netlist, const OocOptions& opt = {});

}  // namespace fpgasim
