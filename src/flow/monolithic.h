// The traditional "classic" flow the paper compares against: flat
// synthesis, clustering, whole-device SA placement, full routing, physical
// optimization (register insertion + driver replication on failing paths),
// final STA. Stage wall times are recorded for the productivity
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

/// The DRC gates after placement and routing always run.
struct MonoOptions {
  std::uint64_t seed = 1;
  int cluster_size = 24;
  bool phys_opt = true;
  RouteOptions route;
};

struct MonoReport {
  double place_seconds = 0.0;  // clustering + SA placement
  double route_seconds = 0.0;
  double sta_seconds = 0.0;
  double drc_seconds = 0.0;  // both DRC gates together
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
