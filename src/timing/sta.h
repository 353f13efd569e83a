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
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "timing/delay_model.h"

namespace fpgasim {

struct TimingResult {
  double critical_path_ns = 0.0;
  double fmax_mhz = 0.0;
  std::vector<std::string> critical_path;  // endpoint-first chain of cells
  std::size_t endpoints = 0;
};

/// Runs STA. `phys` may have empty routes (placement-based estimates) or
/// even no placement (pure logic-depth analysis). Throws
/// std::runtime_error on a combinational loop, like both simulators.
TimingResult run_sta(const Netlist& netlist, const PhysState& phys, const Device& device,
                     const DelayModel& dm = DelayModel{});

/// Placement-distance wire delay estimate between two tiles.
double estimate_wire_delay(const Device& device, TileCoord from, TileCoord to,
                           const DelayModel& dm);

}  // namespace fpgasim
