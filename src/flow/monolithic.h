// The traditional "classic" flow the paper compares against: flat
// synthesis, clustering, whole-device SA placement, full routing, physical
// optimization (register insertion + driver replication on failing paths),
// final STA. Stage wall times are recorded for the productivity
// comparisons (Fig. 6 / Fig. 1a).
#pragma once

#include <cstdint>

#include "fabric/device.h"
#include "flow/gate.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

/// The DRC gates after placement and routing always run; the GateOptions
/// add the opt-in gates over the final (post-phys-opt) netlist.
struct MonoOptions : GateOptions {
  std::uint64_t seed = 1;
  int cluster_size = 24;
  double moves_per_item = 160.0;
  bool phys_opt = true;
  int replication_fanout = 48;  // duplicate drivers above this fanout
  RouteOptions route;
};

/// GateReport carries drc_seconds and the opt-in lint gate's findings.
struct MonoReport : GateReport {
  double place_seconds = 0.0;  // clustering + SA placement
  double route_seconds = 0.0;
  double sta_seconds = 0.0;
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
