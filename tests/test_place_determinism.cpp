// Determinism contract of the parallel multi-start macro placer: every
// thread pool width must produce byte-identical placements (offsets AND
// cost doubles), and the incremental cost kernel must be indistinguishable
// from the full-recompute evaluation path. Starts are keyed by index and
// the winner is selected by a (success, cost, start index) order, so
// scheduling cannot leak into the result (DESIGN.md section 11).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "place/macro_placer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fpgasim {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Scenario {
  std::vector<MacroItem> items;
  std::vector<MacroNet> nets;
};

/// Dense synthetic scenario: mixed-size components, chain + skip + random
/// extra nets (fixed seed), the same shape bench_place stresses.
Scenario dense_scenario(int count) {
  Scenario s;
  const int widths[] = {6, 8, 10, 12, 14};
  const int heights[] = {12, 16, 20, 24};
  Rng rng(7);
  for (int i = 0; i < count; ++i) {
    const int w = widths[rng.next_below(5)];
    const int h = heights[rng.next_below(4)];
    s.items.push_back(
        MacroItem{std::string("d").append(std::to_string(i)), Pblock{0, 0, w - 1, h - 1}});
    if (i > 0) s.nets.push_back(MacroNet{{i - 1, i}, 1.0});
    if (i >= 3 && i % 3 == 0) s.nets.push_back(MacroNet{{i - 3, i}, 1.0});
  }
  for (int e = 0; e < count; ++e) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(count)));
    const int b = static_cast<int>(rng.next_below(static_cast<std::uint32_t>(count)));
    if (a != b) s.nets.push_back(MacroNet{{a, b}, 1.0});
  }
  return s;
}

MacroPlaceResult place_with_pool(const Scenario& s, std::size_t width, bool incremental) {
  const Device device = make_xcku5p_sim();
  ThreadPool pool(width);
  MacroPlaceOptions opt;
  opt.pool = &pool;
  opt.incremental = incremental;
  return place_macros(device, s.items, s.nets, opt);
}

void expect_identical(const MacroPlaceResult& a, const MacroPlaceResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.offsets, b.offsets) << what;
  EXPECT_EQ(bits(a.timing_cost), bits(b.timing_cost)) << what;
  EXPECT_EQ(bits(a.congestion_cost), bits(b.congestion_cost)) << what;
  EXPECT_EQ(a.stats.winner_start, b.stats.winner_start) << what;
}

TEST(PlaceDeterminism, ByteIdenticalAcrossPoolWidths) {
  const Scenario s = dense_scenario(24);
  const MacroPlaceResult serial = place_with_pool(s, 1, true);
  ASSERT_TRUE(serial.success) << serial.error;
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    const MacroPlaceResult wide = place_with_pool(s, width, true);
    expect_identical(serial, wide, "pool width " + std::to_string(width));
    // Every work counter too: starts run the same work at any width.
    EXPECT_TRUE(wide == serial) << "result differs from serial at pool width " << width;
  }
}

TEST(PlaceDeterminism, GlobalPoolMatchesExplicitSerial) {
  // opt.pool == nullptr routes through ThreadPool::global(), whose width
  // follows FPGASIM_THREADS — the CI matrix runs this test at several
  // widths and every one must reproduce the explicit-serial placement.
  const Scenario s = dense_scenario(16);
  const Device device = make_xcku5p_sim();
  MacroPlaceOptions opt;
  const MacroPlaceResult global_pool = place_macros(device, s.items, s.nets, opt);
  const MacroPlaceResult serial = place_with_pool(s, 1, true);
  ASSERT_TRUE(global_pool.success) << global_pool.error;
  expect_identical(serial, global_pool, "global pool vs explicit width 1");
  EXPECT_TRUE(global_pool == serial) << "global pool vs explicit width 1";
}

TEST(PlaceDeterminism, IncrementalMatchesFullRecompute) {
  const Scenario s = dense_scenario(24);
  const MacroPlaceResult incremental = place_with_pool(s, 1, true);
  const MacroPlaceResult full = place_with_pool(s, 1, false);
  ASSERT_TRUE(incremental.success) << incremental.error;
  expect_identical(incremental, full, "incremental vs full recompute");
  // The kernel's reason to exist: it must touch far fewer nets.
  EXPECT_LT(incremental.stats.nets_touched, full.stats.nets_touched / 4);
  EXPECT_EQ(incremental.stats.cost_evals, full.stats.cost_evals);
}

TEST(PlaceDeterminism, IncrementalMatchesFullAtEveryWidth) {
  const Scenario s = dense_scenario(16);
  const MacroPlaceResult reference = place_with_pool(s, 1, true);
  ASSERT_TRUE(reference.success) << reference.error;
  for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    const MacroPlaceResult full = place_with_pool(s, width, false);
    expect_identical(reference, full,
                     "full recompute at pool width " + std::to_string(width));
  }
}

}  // namespace
}  // namespace fpgasim
