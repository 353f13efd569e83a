#include <gtest/gtest.h>

#include <map>

#include "route/router.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

/// Builds a netlist of `n` FF pairs (driver -> sink) placed at the given
/// coordinates; net i connects pair i.
struct PointToPoint {
  Netlist netlist{"p2p"};
  PhysState phys;

  void add_pair(TileCoord from, TileCoord to) {
    Cell drv;
    drv.type = CellType::kFf;
    drv.width = 1;
    const CellId d = netlist.add_cell(std::move(drv));
    Cell snk;
    snk.type = CellType::kFf;
    snk.width = 1;
    const CellId s = netlist.add_cell(std::move(snk));
    const NetId n = netlist.add_net(1);
    netlist.connect_output(d, 0, n);
    netlist.connect_input(s, 0, n);
    phys.resize_for(netlist);
    phys.cell_loc[d] = from;
    phys.cell_loc[s] = to;
  }
};

/// Checks a route's edges form a connected tree containing both endpoints.
void expect_connected(const RouteInfo& route, TileCoord from, TileCoord to) {
  ASSERT_TRUE(route.routed);
  if (from == to) return;
  std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> adjacency;
  for (const auto& [a, b] : route.edges) {
    adjacency[{a.x, a.y}].push_back({b.x, b.y});
    adjacency[{b.x, b.y}].push_back({a.x, a.y});
    // 4-neighbour edges only.
    EXPECT_EQ(std::abs(a.x - b.x) + std::abs(a.y - b.y), 1);
  }
  std::vector<std::pair<int, int>> stack{{from.x, from.y}};
  std::set<std::pair<int, int>> seen{{from.x, from.y}};
  while (!stack.empty()) {
    auto v = stack.back();
    stack.pop_back();
    for (auto& u : adjacency[v]) {
      if (seen.insert(u).second) stack.push_back(u);
    }
  }
  EXPECT_TRUE(seen.count({to.x, to.y})) << "sink unreachable";
}

TEST(Router, RoutesPointToPoint) {
  const Device device = make_tiny_device();
  PointToPoint design;
  design.add_pair(TileCoord{2, 2}, TileCoord{18, 20});
  const RouteResult result = route_design(device, design.netlist, design.phys);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.nets_routed, 1u);
  expect_connected(design.phys.routes[0], TileCoord{2, 2}, TileCoord{18, 20});
  // Manhattan-optimal length on an uncongested grid.
  EXPECT_EQ(design.phys.routes[0].edges.size(), 34u);
  EXPECT_GT(design.phys.routes[0].sink_delays_ns[0], 0.0);
}

TEST(Router, SameTileNetNeedsNoEdges) {
  const Device device = make_tiny_device();
  PointToPoint design;
  design.add_pair(TileCoord{5, 5}, TileCoord{5, 5});
  const RouteResult result = route_design(device, design.netlist, design.phys);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(design.phys.routes[0].edges.empty());
  EXPECT_GT(design.phys.routes[0].sink_delays_ns[0], 0.0);  // wire_base
}

TEST(Router, MultiFanoutBuildsSteinerTree) {
  const Device device = make_tiny_device();
  Netlist nl("fan");
  PhysState phys;
  Cell drv;
  drv.type = CellType::kFf;
  const CellId d = nl.add_cell(std::move(drv));
  const NetId n = nl.add_net(1);
  nl.connect_output(d, 0, n);
  std::vector<TileCoord> sinks{{10, 2}, {10, 30}, {20, 16}};
  std::vector<CellId> sink_cells;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    Cell c;
    c.type = CellType::kFf;
    const CellId s = nl.add_cell(std::move(c));
    nl.connect_input(s, 0, n);
    sink_cells.push_back(s);
  }
  phys.resize_for(nl);
  phys.cell_loc[d] = TileCoord{2, 16};
  for (std::size_t i = 0; i < sinks.size(); ++i) phys.cell_loc[sink_cells[i]] = sinks[i];

  const RouteResult result = route_design(device, nl, phys);
  ASSERT_TRUE(result.success);
  for (const TileCoord& sink : sinks) expect_connected(phys.routes[n], phys.cell_loc[d], sink);
  ASSERT_EQ(phys.routes[n].sink_delays_ns.size(), 3u);
  for (double delay : phys.routes[n].sink_delays_ns) EXPECT_GT(delay, 0.0);
  // The tree shares trunk wiring: cheaper than three independent routes.
  std::size_t independent = 0;
  for (const TileCoord& s : sinks) {
    independent += static_cast<std::size_t>(std::abs(s.x - 2) + std::abs(s.y - 16));
  }
  EXPECT_LT(phys.routes[n].edges.size(), independent);
}

TEST(Router, NegotiationResolvesCongestion) {
  const Device device = make_tiny_device();
  PointToPoint design;
  // 24 parallel nets through the same corridor with capacity 3: PathFinder
  // must spread them across rows without overuse.
  for (int i = 0; i < 24; ++i) {
    design.add_pair(TileCoord{2, 10 + i % 4}, TileCoord{20, 10 + i % 4});
  }
  RouteOptions opt;
  opt.channel_capacity = 3;
  opt.max_iterations = 80;
  opt.history_factor = 0.8;
  const RouteResult result = route_design(device, design.netlist, design.phys, opt);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.max_overuse, 0) << "negotiation left overused channels";
  EXPECT_GT(result.iterations, 1);
}

TEST(Router, LockedRoutesAreChargedButNotRipped) {
  const Device device = make_tiny_device();
  PointToPoint design;
  design.add_pair(TileCoord{2, 4}, TileCoord{8, 4});
  design.add_pair(TileCoord{2, 4}, TileCoord{8, 4});
  // Pre-route net 0 and lock it along the straight line.
  RouteInfo& locked = design.phys.routes[0];
  locked.routed = true;
  for (int x = 2; x < 8; ++x) {
    locked.edges.emplace_back(TileCoord{x, 4}, TileCoord{x + 1, 4});
  }
  locked.sink_delays_ns = {0.5};
  design.netlist.net(0).routing_locked = true;
  const auto locked_copy = locked.edges;

  const RouteResult result = route_design(device, design.netlist, design.phys);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.nets_routed, 1u);  // only the open net
  EXPECT_EQ(design.phys.routes[0].edges, locked_copy);
  EXPECT_TRUE(design.phys.routes[1].routed);
}

TEST(Router, ExtendsPartialNetFromSeedTree) {
  const Device device = make_tiny_device();
  Netlist nl("partial");
  Cell drv;
  drv.type = CellType::kFf;
  const CellId d = nl.add_cell(std::move(drv));
  const NetId n = nl.add_net(1);
  nl.connect_output(d, 0, n);
  Cell s1;
  s1.type = CellType::kFf;
  const CellId sink1 = nl.add_cell(std::move(s1));
  nl.connect_input(sink1, 0, n);
  Cell s2;
  s2.type = CellType::kFf;
  const CellId sink2 = nl.add_cell(std::move(s2));
  nl.connect_input(sink2, 0, n);

  PhysState phys;
  phys.resize_for(nl);
  phys.cell_loc[d] = TileCoord{2, 2};
  phys.cell_loc[sink1] = TileCoord{6, 2};
  phys.cell_loc[sink2] = TileCoord{6, 10};
  // The component's internal route covers sink1 only (delays for 1 sink);
  // sink2 was stitched on afterwards.
  RouteInfo& route = phys.routes[n];
  route.routed = true;
  for (int x = 2; x < 6; ++x) route.edges.emplace_back(TileCoord{x, 2}, TileCoord{x + 1, 2});
  route.sink_delays_ns = {0.33};

  const RouteResult result = route_design(device, nl, phys);
  ASSERT_TRUE(result.success);
  const RouteInfo& updated = phys.routes[n];
  ASSERT_EQ(updated.sink_delays_ns.size(), 2u);
  EXPECT_DOUBLE_EQ(updated.sink_delays_ns[0], 0.33);  // locked delay kept
  EXPECT_GT(updated.sink_delays_ns[1], 0.0);
  // Seed edges survive; continuation grows from the existing tree, not a
  // fresh route from the driver (total length < independent route).
  EXPECT_GE(updated.edges.size(), 4u);
  expect_connected(updated, TileCoord{2, 2}, TileCoord{6, 10});
}

TEST(Router, BoundedRegionKeepsRoutesInside) {
  const Device device = make_tiny_device();
  PointToPoint design;
  design.add_pair(TileCoord{3, 3}, TileCoord{9, 9});
  RouteOptions opt;
  opt.bounded = true;
  opt.region = Pblock{2, 2, 10, 10};
  const RouteResult result = route_design(device, design.netlist, design.phys, opt);
  ASSERT_TRUE(result.success);
  for (const auto& [a, b] : design.phys.routes[0].edges) {
    EXPECT_TRUE(opt.region.contains(a.x, a.y));
    EXPECT_TRUE(opt.region.contains(b.x, b.y));
  }
}

TEST(Router, DiscontinuityCrossingCostsMoreDelay) {
  const Device device = make_tiny_device();  // IO column at x=12
  PointToPoint same_side, crossing;
  same_side.add_pair(TileCoord{2, 5}, TileCoord{10, 5});    // 8 tiles, no IO
  crossing.add_pair(TileCoord{8, 5}, TileCoord{16, 5});     // 8 tiles, crosses IO
  ASSERT_TRUE(route_design(device, same_side.netlist, same_side.phys).success);
  ASSERT_TRUE(route_design(device, crossing.netlist, crossing.phys).success);
  EXPECT_GT(crossing.phys.routes[0].sink_delays_ns[0],
            same_side.phys.routes[0].sink_delays_ns[0] + 0.2);
}

TEST(Router, CommittedDelaysReflectSettledUsage) {
  const Device device = make_tiny_device();
  PointToPoint design;
  // Two nets forced onto the same four horizontal edges: every edge settles
  // at usage 2, and the committed delays must price that for BOTH nets.
  // During negotiation each net computed its delays while its own usage was
  // ripped up and later nets were mid-iteration (net 0 saw use 0, net 1 saw
  // use 1), so without the commit-time re-walk both values are stale.
  design.add_pair(TileCoord{2, 5}, TileCoord{6, 5});
  design.add_pair(TileCoord{2, 5}, TileCoord{6, 5});
  RouteOptions opt;
  opt.channel_capacity = 4;  // no overuse: both keep the straight path
  const RouteResult result = route_design(device, design.netlist, design.phys, opt);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.max_overuse, 0);
  const DelayModel dm;
  // Unique shortest path is the straight row: 4 edges at use 2 of cap 4.
  const double load = 2.0 / 4.0;
  const double per_edge = dm.wire_per_tile * (1.0 + kCongestionDelayFactor * load * load);
  const double expected = dm.wire_base + 4 * per_edge;
  ASSERT_EQ(design.phys.routes[0].edges.size(), 4u);
  ASSERT_EQ(design.phys.routes[1].edges.size(), 4u);
  // 1e-6 absorbs float rounding in edge delays; the stale pre-fix values
  // (use 0 and use 1 instead of 2) are off by ~0.01 ns, 4 orders above it.
  EXPECT_NEAR(design.phys.routes[0].sink_delays_ns[0], expected, 1e-6);
  EXPECT_NEAR(design.phys.routes[1].sink_delays_ns[0], expected, 1e-6);
}

TEST(Router, WideFanoutKeepsAdmissibleHeuristic) {
  // 12 sinks (> 8: the router switches from the per-node min-scan to the
  // multi-source BFS nearest-target grid). On an uncongested fabric the
  // heuristic must stay admissible, i.e. the tree still shares trunk
  // wiring and beats independent point-to-point routes.
  const Device device = make_tiny_device();
  Netlist nl("wide");
  PhysState phys;
  Cell drv;
  drv.type = CellType::kFf;
  const CellId d = nl.add_cell(std::move(drv));
  const NetId n = nl.add_net(1);
  nl.connect_output(d, 0, n);
  std::vector<TileCoord> sinks;
  for (int i = 0; i < 12; ++i) {
    sinks.push_back(TileCoord{4 + (i % 4) * 5, 4 + (i / 4) * 10});
  }
  std::vector<CellId> sink_cells;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    Cell c;
    c.type = CellType::kFf;
    const CellId s = nl.add_cell(std::move(c));
    nl.connect_input(s, 0, n);
    sink_cells.push_back(s);
  }
  phys.resize_for(nl);
  phys.cell_loc[d] = TileCoord{2, 16};
  for (std::size_t i = 0; i < sinks.size(); ++i) phys.cell_loc[sink_cells[i]] = sinks[i];

  const RouteResult result = route_design(device, nl, phys);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(phys.routes[n].sink_delays_ns.size(), 12u);
  std::size_t independent = 0;
  for (const TileCoord& s : sinks) {
    expect_connected(phys.routes[n], phys.cell_loc[d], s);
    independent += static_cast<std::size_t>(std::abs(s.x - 2) + std::abs(s.y - 16));
  }
  EXPECT_LT(phys.routes[n].edges.size(), independent);
}

TEST(Router, DuplicateSinkTilesRouteOnce) {
  // Ten sinks on the same tile (stitched broadcast nets do this): the tile
  // is routed to once and every sink gets the same positive delay.
  const Device device = make_tiny_device();
  Netlist nl("dup");
  PhysState phys;
  Cell drv;
  drv.type = CellType::kFf;
  const CellId d = nl.add_cell(std::move(drv));
  const NetId n = nl.add_net(1);
  nl.connect_output(d, 0, n);
  std::vector<CellId> sink_cells;
  for (int i = 0; i < 10; ++i) {
    Cell c;
    c.type = CellType::kFf;
    const CellId s = nl.add_cell(std::move(c));
    nl.connect_input(s, 0, n);
    sink_cells.push_back(s);
  }
  phys.resize_for(nl);
  phys.cell_loc[d] = TileCoord{3, 3};
  for (CellId s : sink_cells) phys.cell_loc[s] = TileCoord{9, 3};

  const RouteResult result = route_design(device, nl, phys);
  ASSERT_TRUE(result.success);
  // One Manhattan-optimal path, not ten.
  EXPECT_EQ(phys.routes[n].edges.size(), 6u);
  ASSERT_EQ(phys.routes[n].sink_delays_ns.size(), 10u);
  for (double delay : phys.routes[n].sink_delays_ns) {
    EXPECT_DOUBLE_EQ(delay, phys.routes[n].sink_delays_ns[0]);
    EXPECT_GT(delay, 0.0);
  }
}

TEST(Router, IterationStatsTrackNegotiation) {
  const Device device = make_tiny_device();
  PointToPoint design;
  for (int i = 0; i < 24; ++i) {
    design.add_pair(TileCoord{2, 10 + i % 4}, TileCoord{20, 10 + i % 4});
  }
  RouteOptions opt;
  opt.channel_capacity = 3;
  opt.max_iterations = 80;
  opt.history_factor = 0.8;
  const RouteResult result = route_design(device, design.netlist, design.phys, opt);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.iteration_stats.size(), static_cast<std::size_t>(result.iterations));
  // Iteration 1 routes everything; incremental rip-up shrinks the worklist
  // as nets escape the corridor (early rounds may still dirty all of them).
  EXPECT_EQ(result.iteration_stats[0].nets_rerouted, 24);
  int min_later = 24;
  for (std::size_t i = 1; i < result.iteration_stats.size(); ++i) {
    min_later = std::min(min_later, result.iteration_stats[i].nets_rerouted);
  }
  EXPECT_LT(min_later, 24);
  // Converged: the last round found no overuse.
  EXPECT_EQ(result.iteration_stats.back().overused_edges, 0);
}

TEST(Router, SkipsNetsWithUnplacedEndpoints) {
  const Device device = make_tiny_device();
  PointToPoint design;
  design.add_pair(TileCoord{2, 2}, TileCoord{4, 4});
  design.phys.cell_loc[0] = kUnplaced;  // driver unplaced
  const RouteResult result = route_design(device, design.netlist, design.phys);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.nets_routed, 0u);
  EXPECT_FALSE(design.phys.routes[0].routed);
}

}  // namespace
}  // namespace fpgasim
