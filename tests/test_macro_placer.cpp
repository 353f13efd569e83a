#include <gtest/gtest.h>

#include "place/macro_cost.h"
#include "place/macro_placer.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

std::vector<MacroItem> make_chain_items(const Device& device, int count, int w, int h) {
  std::vector<MacroItem> items;
  for (int i = 0; i < count; ++i) {
    // All implemented at the same spot (the OOC flow reuses one pblock);
    // relocation must spread them out.
    items.push_back(
        MacroItem{std::string("c").append(std::to_string(i)), Pblock{0, 0, w - 1, h - 1}});
  }
  (void)device;
  return items;
}

std::vector<MacroNet> make_chain_nets(int count) {
  std::vector<MacroNet> nets;
  for (int i = 0; i + 1 < count; ++i) nets.push_back(MacroNet{{i, i + 1}, 1.0});
  return nets;
}

TEST(MacroPlacer, PlacesChainWithoutOverlap) {
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 6, 12, 24);
  const auto nets = make_chain_nets(6);
  const MacroPlaceResult result = place_macros(device, items, nets);
  ASSERT_TRUE(result.success) << result.error;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_FALSE(result.placed[i].overlaps(result.placed[j])) << i << " vs " << j;
    }
  }
}

TEST(MacroPlacer, PlacementsAreColumnCompatible) {
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 4, 10, 20);
  const auto nets = make_chain_nets(4);
  const MacroPlaceResult result = place_macros(device, items, nets);
  ASSERT_TRUE(result.success);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Pblock& placed = result.placed[i];
    EXPECT_GE(placed.x0, 0);
    EXPECT_GE(placed.y0, 0);
    EXPECT_LT(placed.x1, device.width());
    EXPECT_LT(placed.y1, device.height());
    EXPECT_EQ(result.offsets[i].second % 2, 0);  // row parity preserved
    for (int dx = 0; dx < placed.width(); ++dx) {
      EXPECT_EQ(device.column_type(placed.x0 + dx),
                device.column_type(items[i].footprint.x0 + dx));
    }
  }
}

TEST(MacroPlacer, ConnectedComponentsLandNearEachOther) {
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 5, 12, 24);
  const auto nets = make_chain_nets(5);
  const MacroPlaceResult result = place_macros(device, items, nets);
  ASSERT_TRUE(result.success);
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    const Pblock& a = result.placed[i];
    const Pblock& b = result.placed[i + 1];
    const int dist = std::abs((a.x0 + a.x1) / 2 - (b.x0 + b.x1) / 2) +
                     std::abs((a.y0 + a.y1) / 2 - (b.y0 + b.y1) / 2);
    EXPECT_LE(dist, 90) << "chain neighbours " << i << " placed far apart";
  }
  EXPECT_GT(result.timing_cost, 0.0);
}

TEST(MacroPlacer, EmptyInputSucceeds) {
  const Device device = make_tiny_device();
  const MacroPlaceResult result = place_macros(device, {}, {});
  EXPECT_TRUE(result.success);
}

TEST(MacroPlacer, SingleComponentPlacesAtZeroCost) {
  const Device device = make_xcku5p_sim();
  std::vector<MacroItem> items{MacroItem{"solo", Pblock{4, 0, 20, 30}}};
  const MacroPlaceResult result = place_macros(device, items, {});
  ASSERT_TRUE(result.success);
  EXPECT_DOUBLE_EQ(result.timing_cost, 0.0);
  EXPECT_DOUBLE_EQ(result.congestion_cost, 0.0);
}

TEST(MacroPlacer, FailsWhenComponentCannotFit) {
  const Device device = make_tiny_device();
  // Wider than the device: no anchor exists.
  std::vector<MacroItem> items{
      MacroItem{"huge", Pblock{0, 0, device.width() + 5, device.height() - 1}}};
  const MacroPlaceResult result = place_macros(device, items, {});
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.error.empty());
}

TEST(MacroPlacer, PacksManyComponentsOnTinyDevice) {
  // Forces the unplace-and-retry path: 8 CLB-only 4x8 blocks on a 24x32
  // device leave little slack; the placer must backtrack, not fail.
  const Device device = make_tiny_device();
  std::vector<MacroItem> items;
  for (int i = 0; i < 8; ++i) {
    items.push_back(MacroItem{std::string("b").append(std::to_string(i)), Pblock{0, 0, 3, 7}});
  }
  const auto nets = make_chain_nets(8);
  const MacroPlaceResult result = place_macros(device, items, nets);
  ASSERT_TRUE(result.success) << result.error;
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_FALSE(result.placed[i].overlaps(result.placed[j]));
    }
  }
}

TEST(MacroCost, IncrementalMatchesFullOnRandomizedPlacements) {
  // Drive the incremental kernel through a random walk of place / move /
  // unplace operations; after every mutation its totals must equal the
  // full recompute on the same state.
  const Device device = make_xcku5p_sim();
  const std::size_t n = 10;
  std::vector<MacroItem> items;
  std::vector<std::vector<std::pair<int, int>>> anchors;
  for (std::size_t i = 0; i < n; ++i) {
    const int w = 6 + 2 * static_cast<int>(i % 5);
    const int h = 12 + 4 * static_cast<int>(i % 4);
    items.push_back(
        MacroItem{std::string("r").append(std::to_string(i)), Pblock{0, 0, w - 1, h - 1}});
    anchors.push_back(relocation_offsets(device, items.back().footprint));
    ASSERT_FALSE(anchors.back().empty());
  }
  std::vector<MacroNet> nets = make_chain_nets(static_cast<int>(n));
  Rng rng(99);
  for (int e = 0; e < 12; ++e) {
    const auto a = static_cast<int>(rng.next_below(n));
    const auto b = static_cast<int>(rng.next_below(n));
    if (a != b) nets.push_back(MacroNet{{a, b}, 1.0});
  }
  nets.push_back(MacroNet{{0, 4, 8}, 2.0});  // a weighted fan-out net

  MacroCostModel kernel(device, nets, n, /*incremental=*/true);
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(rng.next_below(n));
    if (kernel.is_placed()[i] && rng.next_below(3) == 0) {
      kernel.unplace(i);
    } else {
      const auto& cand = anchors[i];
      const auto& offset = cand[rng.next_below(cand.size())];
      kernel.place(i, items[i].footprint.translated(offset.first, offset.second));
    }
    const MacroCostTotals inc = kernel.totals();
    const MacroCostTotals full =
        full_macro_costs(device, nets, kernel.placed(), kernel.is_placed());
    // Bit-identical by construction, which trivially satisfies 1e-9.
    EXPECT_EQ(inc.timing, full.timing) << "step " << step;
    EXPECT_EQ(inc.congestion, full.congestion) << "step " << step;
  }
  EXPECT_GT(kernel.cost_evals(), 0);
  EXPECT_GT(kernel.nets_touched(), 0);
}

TEST(MacroPlacer, BacktrackingUnplacesAndRetries) {
  // An acceptance threshold below any achievable per-component gate: every
  // start must exhaust the unplace-and-retry path, then relax the
  // threshold (x1.5 steps) until the placement is admitted. Success with
  // nonzero backtrack telemetry proves the retry path ran.
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 4, 10, 20);
  const auto nets = make_chain_nets(4);
  MacroPlaceOptions opt;
  opt.accept_threshold = 1.0;  // two adjacent centers are always further apart
  const MacroPlaceResult result = place_macros(device, items, nets, opt);
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_GT(result.backtracks, 0) << "winner start should have backtracked";
  long total_backtracks = 0;
  for (const int b : result.stats.backtracks_per_start) total_backtracks += b;
  EXPECT_GT(total_backtracks, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      EXPECT_FALSE(result.placed[i].overlaps(result.placed[j]));
    }
  }
}

TEST(MacroPlacer, ReportsPlacementStats) {
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 5, 10, 20);
  const auto nets = make_chain_nets(5);
  const MacroPlaceResult result = place_macros(device, items, nets);
  ASSERT_TRUE(result.success);
  const PlaceStats& stats = result.stats;
  EXPECT_EQ(stats.starts, 3 + kMacroPerturbedStarts);
  EXPECT_EQ(static_cast<int>(stats.backtracks_per_start.size()), stats.starts);
  EXPECT_GE(stats.winner_start, 0);
  EXPECT_LT(stats.winner_start, stats.starts);
  EXPECT_FALSE(stats.used_fallback);
  EXPECT_GT(stats.cost_evals, 0);
  EXPECT_GT(stats.nets_touched, 0);
  EXPECT_GT(stats.overlap_tests, 0);
}

TEST(MacroPlacer, DeterministicForSeed) {
  const Device device = make_xcku5p_sim();
  const auto items = make_chain_items(device, 5, 10, 20);
  const auto nets = make_chain_nets(5);
  MacroPlaceOptions opt;
  opt.seed = 7;
  const auto a = place_macros(device, items, nets, opt);
  const auto b = place_macros(device, items, nets, opt);
  ASSERT_TRUE(a.success && b.success);
  EXPECT_EQ(a.offsets, b.offsets);
}

}  // namespace
}  // namespace fpgasim
