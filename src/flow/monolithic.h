// The traditional "classic" flow the paper compares against: flat
// synthesis, clustering, whole-device SA placement, full routing, physical
// optimization (register insertion + driver replication on failing paths),
// final STA. The flow's wall time is recorded for the productivity
// comparisons (Fig. 6 / Fig. 1a).
#pragma once

#include <cstdint>

#include "fabric/device.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

/// The DRC gates after placement and routing always run; placement and
/// routing use seed 1, the post-phys-opt reroute seed 2.
struct MonoOptions {
  int cluster_size = 24;
  bool phys_opt = true;
};

struct MonoReport {
  double total_seconds = 0.0;  // wall time

  NetlistStats stats;        // post-phys-opt
  TimingResult timing;
  RouteResult route;
  std::size_t inserted_ffs = 0;
  std::size_t replicated_drivers = 0;

  // DRC gate results.
  FindingsReport drc_place{"DRC"};  // structural + placement, after SA placement
  FindingsReport drc{"DRC"};        // full check, after routing + phys_opt
};

/// Runs the baseline flow in place: `netlist` gains phys-opt cells and
/// `phys` receives placement + routing.
MonoReport run_monolithic_flow(const Device& device, Netlist& netlist, PhysState& phys,
                               const MonoOptions& opt = {});

}  // namespace fpgasim
