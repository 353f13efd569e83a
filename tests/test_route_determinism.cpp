// Determinism contract of the parallel incremental router: every thread
// pool width must produce byte-identical routes, delays and iteration
// telemetry. Batches hold nets with pairwise-disjoint search boxes and
// usage commits happen serially in net-index order, so scheduling cannot
// leak into the result (DESIGN.md section 9). Also locks in the quality
// contract of incremental rip-up against the full rip-up baseline.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "flow/build.h"
#include "flow/service.h"
#include "route/router.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

void append_bits(std::string* out, double v) {
  unsigned long long bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  *out += std::to_string(bits);
  *out += ' ';
}

/// Exact byte-level fingerprint of the routes the router wrote: route
/// trees and per-sink delays (double bit patterns, not approximate
/// comparisons). The RouteResult itself is compared whole.
std::string fingerprint(const PhysState& phys) {
  std::string fp;
  for (std::size_t n = 0; n < phys.routes.size(); ++n) {
    const RouteInfo& route = phys.routes[n];
    fp += "net " + std::to_string(n) + (route.routed ? " R " : " - ");
    for (const auto& [a, b] : route.edges) {
      fp += std::to_string(a.x) + "," + std::to_string(a.y) + "-" + std::to_string(b.x) +
            "," + std::to_string(b.y) + ";";
    }
    fp += " d:";
    for (double d : route.sink_delays_ns) append_bits(&fp, d);
    fp += '\n';
  }
  return fp;
}

/// Congested synthetic fabric: a corridor of parallel nets over capacity
/// (forces multi-iteration negotiation), vertical crossers (overlapping
/// boxes that must serialize into later batches) and wide-fanout nets
/// (exercises the BFS nearest-target heuristic grid).
struct CongestedFixture {
  Device device = make_tiny_device();
  Netlist netlist{"congested"};
  PhysState phys;
  RouteOptions opt;

  CellId cell_at(TileCoord loc) {
    Cell c;
    c.type = CellType::kFf;
    c.width = 1;
    const CellId id = netlist.add_cell(std::move(c));
    phys.resize_for(netlist);
    phys.cell_loc[id] = loc;
    return id;
  }

  void add_net(TileCoord from, const std::vector<TileCoord>& tos) {
    const CellId d = cell_at(from);
    const NetId n = netlist.add_net(1);
    netlist.connect_output(d, 0, n);
    for (const TileCoord& to : tos) netlist.connect_input(cell_at(to), 0, n);
  }

  CongestedFixture() {
    for (int i = 0; i < 24; ++i) {
      add_net(TileCoord{2, 10 + i % 4}, {TileCoord{20, 10 + i % 4}});
    }
    for (int i = 0; i < 6; ++i) {
      add_net(TileCoord{4 + 2 * i, 4}, {TileCoord{4 + 2 * i, 24}});
    }
    // Two 12-sink nets (> 8 targets: grid heuristic path).
    for (int f = 0; f < 2; ++f) {
      std::vector<TileCoord> sinks;
      for (int i = 0; i < 12; ++i) {
        sinks.push_back(TileCoord{3 + (i % 6) * 3, 6 + 18 * f + (i / 6) * 3});
      }
      add_net(TileCoord{11, 8 + 14 * f}, sinks);
    }
    opt.channel_capacity = 3;
    opt.max_iterations = 80;
    opt.history_factor = 0.8;
  }
};

TEST(RouteDeterminism, CongestedFabricIsByteIdenticalAcrossWidths) {
  CongestedFixture fixture;
  std::string serial_fp;
  RouteResult serial;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(width);
    RouteOptions opt = fixture.opt;
    opt.pool = &pool;
    PhysState phys = fixture.phys;
    const RouteResult result = route_design(fixture.device, fixture.netlist, phys, opt);
    ASSERT_TRUE(result.success) << "width " << width;
    EXPECT_EQ(result.max_overuse, 0) << "width " << width;
    EXPECT_GT(result.iterations, 1) << "width " << width;
    const std::string fp = fingerprint(phys);
    if (width == 1) {
      serial_fp = fp;
      serial = result;
    } else {
      EXPECT_EQ(fp, serial_fp) << "routes differ from serial at width " << width;
      EXPECT_TRUE(result == serial) << "route result differs from serial at width " << width;
    }
  }
}

TEST(RouteDeterminism, LenetPreImplRoutingIsByteIdenticalAcrossWidths) {
  // Compose and place LeNet once (deterministic already, see
  // test_parallel_build), snapshot the pre-route state, then run only the
  // inter-component routing stage at every width.
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 200);
  const auto groups = default_grouping(model);
  CheckpointStore store;
  CompileService service(device, store);
  service.compile(model, impl, groups);

  Composer composer("det_lenet");
  std::vector<std::shared_ptr<const Checkpoint>> chain;
  for (const auto& group : groups) {
    auto cp = store.get(group_signature(model, impl, group), device);
    ASSERT_NE(cp, nullptr);
    chain.push_back(std::move(cp));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    composer.add_instance(*chain[i], "inst" + std::to_string(i));
  }
  const int n = static_cast<int>(chain.size());
  composer.stitch(chain_edges(n), 0, n - 1);
  ComposedDesign composed = std::move(composer).finish();
  const MacroPlaceResult macro =
      place_macros(device, composed.macro_items(), composed.macro_nets, MacroPlaceOptions{});
  ASSERT_TRUE(macro.success);
  for (std::size_t i = 0; i < composed.instances.size(); ++i) {
    composed.translate_instance(i, macro.offsets[i].first, macro.offsets[i].second);
  }

  std::string serial_fp;
  RouteResult serial;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(width);
    RouteOptions opt;
    opt.pool = &pool;
    PhysState phys = composed.phys;
    const RouteResult result = route_design(device, composed.netlist, phys, opt);
    ASSERT_TRUE(result.success) << "width " << width;
    EXPECT_EQ(result.max_overuse, 0) << "width " << width;
    const std::string fp = fingerprint(phys);
    if (width == 1) {
      serial_fp = fp;
      serial = result;
    } else {
      EXPECT_EQ(fp, serial_fp) << "LeNet routes differ from serial at width " << width;
      EXPECT_TRUE(result == serial) << "LeNet route result differs at width " << width;
    }
  }
}

TEST(RouteDeterminism, IncrementalMatchesFullRipUpQuality) {
  CongestedFixture fixture;

  PhysState incremental_phys = fixture.phys;
  RouteOptions opt = fixture.opt;
  opt.incremental = true;
  const RouteResult incremental =
      route_design(fixture.device, fixture.netlist, incremental_phys, opt);

  PhysState full_phys = fixture.phys;
  opt.incremental = false;
  const RouteResult full = route_design(fixture.device, fixture.netlist, full_phys, opt);

  // Both negotiate all overuse away.
  ASSERT_TRUE(incremental.success);
  ASSERT_TRUE(full.success);
  EXPECT_EQ(incremental.max_overuse, 0);
  EXPECT_EQ(full.max_overuse, 0);
  EXPECT_EQ(incremental.nets_routed, full.nets_routed);

  // Incremental rip-up shrinks the worklist: the first round routes every
  // net, later rounds only the congestion-involved ones — the count must
  // drop below the full net count as negotiation spreads the nets out
  // (full rip-up, by contrast, reroutes everything every round).
  ASSERT_GT(incremental.iterations, 1);
  const int first = incremental.iteration_stats[0].nets_rerouted;
  EXPECT_EQ(first, static_cast<int>(incremental.nets_routed));
  int min_later = first;
  for (std::size_t i = 1; i < incremental.iteration_stats.size(); ++i) {
    min_later = std::min(min_later, incremental.iteration_stats[i].nets_rerouted);
  }
  EXPECT_LT(min_later, first);
  for (const RouteIterationStats& s : full.iteration_stats) {
    EXPECT_EQ(s.nets_rerouted, static_cast<int>(full.nets_routed));
  }

  // Quality bound: the settled critical sink delay stays within 1% of the
  // full rip-up baseline.
  auto max_delay = [](const PhysState& phys) {
    double worst = 0.0;
    for (const RouteInfo& route : phys.routes) {
      if (!route.routed) continue;
      for (double d : route.sink_delays_ns) worst = std::max(worst, d);
    }
    return worst;
  };
  const double inc_delay = max_delay(incremental_phys);
  const double full_delay = max_delay(full_phys);
  ASSERT_GT(full_delay, 0.0);
  EXPECT_LE(inc_delay, full_delay * 1.01)
      << "incremental critical delay " << inc_delay << " vs full " << full_delay;
}

}  // namespace
}  // namespace fpgasim
