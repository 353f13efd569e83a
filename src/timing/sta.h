// Static timing analysis over a placed (and optionally routed) netlist.
//
// Arrival times propagate topologically through the combinational fabric;
// every sequential-element input and output port is a timing endpoint.
// Net delays come from the router's per-sink delays when present, and from
// a placement-distance estimate otherwise (including the IO-column
// discontinuity penalty the paper discusses in Sec. V-E).
#pragma once

#include <string>
#include <vector>

#include "fabric/device.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "timing/delay_model.h"

namespace fpgasim {

/// One hop of a timing path: the signal reaches `cell` over `net` after
/// `wire_ns` (kInvalidNet and 0 at a launching sequential cell) and passes
/// through it in `logic_ns`: clock-to-q at the launch, the cell delay in
/// between, setup at a capturing sequential endpoint.
struct TimingHop {
  CellId cell = kInvalidCell;
  NetId net = kInvalidNet;
  double wire_ns = 0.0;
  double logic_ns = 0.0;
};

struct TimingResult {
  double critical_path_ns = 0.0;
  double fmax_mhz = 0.0;
  /// Launch first; the hops' wire_ns + logic_ns sum to critical_path_ns. A
  /// path launched by an input port starts at the cell its net reaches (the
  /// hop's net is the port's), and one captured by an output port ends at
  /// the port net's driver.
  std::vector<TimingHop> critical_path;
  std::size_t endpoints = 0;
};

/// Runs STA. `phys` may have empty routes (placement-based estimates) or
/// even no placement (pure logic-depth analysis). Throws
/// std::runtime_error on a combinational loop, like both simulators.
TimingResult run_sta(const Netlist& netlist, const PhysState& phys, const Device& device,
                     const DelayModel& dm = DelayModel{});

/// The critical path, one line per hop, under a header with its delay and
/// Fmax: each hop's instance (from `instances`; "top" outside every
/// instance), cell, the net it arrives on, the instance that net comes
/// from when it crosses a component boundary, and the hop's delays.
std::string format_critical_path(const TimingResult& timing, const Netlist& netlist,
                                 const std::vector<InstanceRange>& instances = {});

/// Placement-distance wire delay estimate between two tiles.
double estimate_wire_delay(const Device& device, TileCoord from, TileCoord to,
                           const DelayModel& dm);

}  // namespace fpgasim
