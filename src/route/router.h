// Parallel incremental negotiated-congestion (PathFinder-style) router
// over a coarse per-tile channel graph.
//
// Nodes are interconnect tiles; edges connect 4-neighbours with a fixed
// wire capacity per direction. Crossing an IO column costs extra delay
// (fabric discontinuities, Sec. V-E). Locked nets (pre-implemented
// components) keep their recorded routes and only charge edge usage; the
// inter-component routing step therefore only negotiates the unrouted
// nets, which is exactly what makes the pre-implemented flow fast.
//
// Negotiation is *incremental*: after the first iteration only nets whose
// route trees touch an overused edge (tracked through a per-edge -> net
// reverse index) are ripped up and rerouted. Within an iteration, dirty
// nets are batched by disjoint expanded bounding boxes and the nets of a
// batch are routed concurrently on a ThreadPool; edge usage is committed
// serially in net-index order after each batch, so the result is
// byte-identical at every pool width (see DESIGN.md section 9).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "timing/delay_model.h"
#include "util/thread_pool.h"

namespace fpgasim {

/// Committed edge delay is base * (1 + kCongestionDelayFactor * load^2),
/// load = usage / channel capacity: the slowdown on saturated edges.
inline constexpr double kCongestionDelayFactor = 0.25;

struct RouteOptions {
  int channel_capacity = 14;  // wires per tile edge per direction
  int max_iterations = 18;    // PathFinder negotiation rounds
  double history_factor = 0.35;
  std::uint64_t seed = 1;
  /// Extra terminal per net (partition pins of OOC ports): net -> tile.
  std::unordered_map<NetId, TileCoord> fixed_terminals;
  /// When set, the search never leaves this rectangle (OOC flow: keep all
  /// component routing inside its pblock so relocation stays legal).
  bool bounded = false;
  Pblock region;
  /// Incremental rip-up: after iteration 1 only nets touching an overused
  /// edge are rerouted. `false` restores the legacy full rip-up (every net,
  /// every iteration) for A/B benchmarking.
  bool incremental = true;
  /// Pool for routing the nets of a batch concurrently; null uses the
  /// process-global pool (FPGASIM_THREADS). Any width, including 1,
  /// produces byte-identical results.
  ThreadPool* pool = nullptr;
};

/// Per-negotiation-round telemetry: the incremental router's work should
/// collapse after iteration 1 (rerouted tracks overuse, not net count).
struct RouteIterationStats {
  int nets_rerouted = 0;   // nets ripped up and rerouted this round
  long overused_edges = 0; // edges above capacity after the round
  int max_overuse = 0;
  int batches = 0;         // disjoint-bbox parallel batches this round

  bool operator==(const RouteIterationStats&) const = default;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  std::size_t nets_routed = 0;
  std::size_t edges_used = 0;
  int max_overuse = 0;
  double total_wirelength = 0.0;
  std::vector<RouteIterationStats> iteration_stats;
  std::string error;

  bool operator==(const RouteResult&) const = default;
};

/// Routes every unrouted multi-terminal net in `netlist` whose endpoints
/// are placed, writing RouteInfo (edges + per-sink delays) into `phys`.
/// Locked/already-routed nets contribute their usage but are not ripped up.
/// A routed net that has gained sinks without delays (a stitched component
/// port) is extended incrementally from its existing route tree — the
/// partition-pin continuation of the inter-component routing step.
RouteResult route_design(const Device& device, const Netlist& netlist, PhysState& phys,
                         const RouteOptions& opt = RouteOptions{},
                         const DelayModel& dm = DelayModel{});

}  // namespace fpgasim
