// Function optimization (paper Sec. IV-A): implements one component
// out-of-context — minimal column-aware pblock, partition-pin port
// planning on the pblock boundary, cell-level placement, pblock-bounded
// routing, STA — explores several strategies, locks the winner and emits a
// checkpoint.
#pragma once

#include <cstdint>

#include "fabric/device.h"
#include "netlist/checkpoint.h"
#include "netlist/findings.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

struct OocOptions {
  std::uint64_t seed = 1;
  int strategies = 3;            // performance-exploration attempts
  double pblock_slack = 1.25;    // resource margin inside the pblock
  int pblock_max_width = 31;     // width cap (columns) for relocatability
  double moves_per_item = 220.0; // SA effort (per cell)
  bool port_planning = true;     // partition pins on the boundary (ablation B)
  bool lock = true;              // logic locking of the winner (ablation C)
  RouteOptions route;
  /// Opt-in fpgalint gate: statically analyze the implemented component
  /// before it enters the database (a silent defect in one checkpoint
  /// replicates into every network built from it). Throws on error
  /// findings; the report rides along in OocResult::lint.
  bool lint = false;
};

struct OocResult {
  Checkpoint checkpoint;
  TimingResult timing;
  RouteResult route;
  int strategy = 0;  // winning exploration strategy index
  FindingsReport lint{"lint"};  // empty unless OocOptions::lint
};

/// Implements `netlist` OOC on `device`. Throws std::runtime_error when no
/// pblock can satisfy the component's resources.
OocResult implement_ooc(const Device& device, Netlist netlist, const OocOptions& opt = {});

}  // namespace fpgasim
