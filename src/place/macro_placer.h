// Relocation placer for pre-implemented components (paper Sec. IV-B4,
// Algorithm 1, Eqs. (1)-(3)).
//
// Each component arrives placed-and-routed inside its pblock; legal
// positions are the column-compatible anchors computed by the fabric
// layer. Components are placed in BFS order over the architecture DFG; an
// anchor is accepted when the combined timing (HPWL) and congestion
// (tile-overlap) cost is below threshold, otherwise previously placed
// components are unplaced and retried (bounded backtracking).
//
// The placer runs several independent starts (the three anchor-ranking
// modes plus seed-perturbed BFS orders) concurrently on the
// ThreadPool; the winner is selected by a deterministic (success, cost,
// start index) key, so results are byte-identical at any pool width.
// Candidate anchors are evaluated with an incremental cost kernel
// (place/macro_cost.h) and an O(1) tile-occupancy overlap test; the seed
// full-recompute path stays available behind `incremental = false` and
// produces bit-identical placements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"

namespace fpgasim {

class ThreadPool;

struct MacroItem {
  std::string name;
  Pblock footprint;  // at the coordinates the component was implemented in
};

/// Component-level connection (stream edges of the DFG).
struct MacroNet {
  std::vector<std::int32_t> items;
  double weight = 1.0;
};

/// Seed-perturbed BFS starts run in addition to the 3 ranking modes.
inline constexpr int kMacroPerturbedStarts = 3;

struct MacroPlaceOptions {
  std::uint64_t seed = 1;
  double accept_threshold = 48.0;  // per-component cost gate (Sec. IV-B4)
  /// Incremental cost kernel; false selects the seed full-recompute path
  /// (A/B reference — placements and costs are bit-identical either way).
  bool incremental = true;
  /// Multi-start concurrency (the global pool when null). Any width
  /// yields byte-identical results; width 1 runs the starts serially.
  ThreadPool* pool = nullptr;
};

/// Placement observability: work counters aggregated over every start (in
/// start order, so they are deterministic at any pool width).
struct PlaceStats {
  long cost_evals = 0;     // candidate cost evaluations (kernel totals())
  long nets_touched = 0;   // per-net cost-cache refreshes / full-path scans
  long overlap_tests = 0;  // occupancy-grid rectangle probes
  int starts = 0;          // multi-start attempts
  int winner_start = -1;   // winning start index (-1: packing fallback)
  bool used_fallback = false;  // first-fit-decreasing produced the result
  std::vector<int> backtracks_per_start;

  bool operator==(const PlaceStats&) const = default;
};

struct MacroPlaceResult {
  bool success = false;
  std::vector<std::pair<int, int>> offsets;  // (dx, dy) per item
  std::vector<Pblock> placed;                // translated footprints
  double timing_cost = 0.0;      // Eq. (1): sum of inter-component HPWL
  double congestion_cost = 0.0;  // Eq. (3): normalized overlap coefficient
  int backtracks = 0;            // backtracks of the winning start
  PlaceStats stats;
  std::string error;

  bool operator==(const MacroPlaceResult&) const = default;
};

MacroPlaceResult place_macros(const Device& device, const std::vector<MacroItem>& items,
                              const std::vector<MacroNet>& nets,
                              const MacroPlaceOptions& opt = MacroPlaceOptions{});

}  // namespace fpgasim
