// Per-rule DRC coverage: every registered rule gets a passing fixture and a
// seeded violation, plus waiver/cap/enforce mechanics and the checkpoint
// entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "drc/drc.h"
#include "fabric/device.h"
#include "netlist/checkpoint.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {
namespace {

/// in(8) -> FF(8) -> out. Structurally spotless.
Netlist make_ff_netlist() {
  Netlist nl("fix");
  const NetId in = nl.add_net(8, "in");
  nl.add_port({"in", PortDir::kInput, 8, in});
  const NetId q = nl.add_net(8, "q");
  Cell ff;
  ff.type = CellType::kFf;
  ff.width = 8;
  ff.name = "r0";
  const CellId f = nl.add_cell(ff);
  nl.connect_input(f, 0, in);
  nl.connect_output(f, 0, q);
  nl.add_port({"out", PortDir::kOutput, 8, q});
  return nl;
}

/// Two FFs in series across a two-instance split: cells {0} / {1},
/// nets {0: in, 1: mid} / {2: out-ish}. Used by the routing-rule tests.
struct TwoInstanceFixture {
  Netlist nl{"pair"};
  PhysState phys;
  CellId c0 = 0, c1 = 0;
  NetId n0 = 0, n1 = 0, n2 = 0;
  std::vector<InstanceRange> instances;

  TwoInstanceFixture() {
    n0 = nl.add_net(8, "in");
    nl.add_port({"in", PortDir::kInput, 8, n0});
    Cell ff;
    ff.type = CellType::kFf;
    ff.width = 8;
    c0 = nl.add_cell(ff);
    nl.connect_input(c0, 0, n0);
    n1 = nl.add_net(8, "mid");
    nl.connect_output(c0, 0, n1);
    c1 = nl.add_cell(ff);
    nl.connect_input(c1, 0, n1);
    n2 = nl.add_net(8, "out");
    nl.connect_output(c1, 0, n2);
    nl.add_port({"out", PortDir::kOutput, 8, n2});
    phys.resize_for(nl);
    phys.cell_loc[c0] = TileCoord{2, 2};
    phys.cell_loc[c1] = TileCoord{6, 2};
    instances = {
        InstanceRange{"u0", Pblock{0, 0, 3, 7}, 0, 1, 0, 2},
        InstanceRange{"u1", Pblock{4, 0, 7, 7}, 1, 2, 2, 3},
    };
  }
};

std::size_t count_rule(const FindingsReport& report, const std::string& rule) {
  return report.by_rule(rule).size();
}

// -- registry ----------------------------------------------------------------

TEST(Drc, RegistryHasAllRulesWithUniqueIds) {
  const auto& rules = drc_rules();
  EXPECT_EQ(rules.size(), 16u);
  std::vector<std::string> ids;
  for (const DrcRule& rule : rules) {
    ids.emplace_back(rule.id);
    EXPECT_NE(rule.what[0], '\0');
    EXPECT_NE(rule.stages, 0u);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(Drc, StructuralSubsetRunsFiveRules) {
  const Netlist nl = make_ff_netlist();
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.warnings(), 0u);
  EXPECT_EQ(report.rules_run(), 5u);
}

// -- net-driver --------------------------------------------------------------

TEST(DrcNetDriver, PassesOnConsistentDriver) {
  EXPECT_EQ(count_rule(run_structural_drc(make_ff_netlist()), "net-driver"), 0u);
}

TEST(DrcNetDriver, FlagsDoubleDriver) {
  Netlist nl = make_ff_netlist();
  Cell extra;
  extra.type = CellType::kConst;
  extra.width = 8;
  extra.outputs.push_back(1);  // also claims net 'q'
  nl.add_cell(extra);
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "net-driver"), 1u);
}

TEST(DrcNetDriver, FlagsDriverPinMismatch) {
  Netlist nl = make_ff_netlist();
  nl.net(1).driver_pin = 3;  // FF has no output pin 3
  EXPECT_GE(count_rule(run_structural_drc(nl), "net-driver"), 1u);
}

// -- net-dangling ------------------------------------------------------------

TEST(DrcNetDangling, FlagsSinksWithoutDriver) {
  Netlist nl = make_ff_netlist();
  const NetId orphan = nl.add_net(4, "orphan");
  nl.net(orphan).sinks.emplace_back(0, 0);  // claims the FF without hookup
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "net-dangling"), 1u);
}

TEST(DrcNetDangling, FlagsUnconnectedRequiredPin) {
  Netlist nl = make_ff_netlist();
  nl.cell(0).inputs[0] = kInvalidNet;  // FF data pin is required
  EXPECT_GE(count_rule(run_structural_drc(nl), "net-dangling"), 1u);
}

// -- net-width ---------------------------------------------------------------

TEST(DrcNetWidth, FlagsDriverWidthMismatch) {
  Netlist nl = make_ff_netlist();
  nl.net(1).width = 4;  // FF produces 8 bits
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "net-width"), 1u);
}

TEST(DrcNetWidth, FlagsTruncatingSink) {
  Netlist nl = make_ff_netlist();
  Cell narrow;
  narrow.type = CellType::kFf;
  narrow.width = 4;
  const CellId c = nl.add_cell(narrow);
  nl.connect_input(c, 0, 1);  // 8-bit 'q' into a 4-bit register
  const NetId out = nl.add_net(4, "narrow_q");
  nl.connect_output(c, 0, out);
  nl.add_port({"narrow", PortDir::kOutput, 4, out});
  EXPECT_GE(count_rule(run_structural_drc(nl), "net-width"), 1u);
}

TEST(DrcNetWidth, AllowsImplicitZeroExtension) {
  Netlist nl = make_ff_netlist();
  Cell wide;
  wide.type = CellType::kFf;
  wide.width = 16;
  const CellId c = nl.add_cell(wide);
  nl.connect_input(c, 0, 1);  // 8-bit 'q' into a 16-bit register: legal
  const NetId out = nl.add_net(16, "wide_q");
  nl.connect_output(c, 0, out);
  nl.add_port({"wide", PortDir::kOutput, 16, out});
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_EQ(count_rule(report, "net-width"), 0u);
  EXPECT_TRUE(report.clean());
}

// -- comb-loop ---------------------------------------------------------------

TEST(DrcCombLoop, FlagsLutCycle) {
  Netlist nl("loop");
  const NetId in = nl.add_net(1, "in");
  nl.add_port({"in", PortDir::kInput, 1, in});
  const NetId na = nl.add_net(1, "na");
  const NetId nb = nl.add_net(1, "nb");
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kAnd;
  lut.width = 1;
  const CellId a = nl.add_cell(lut);
  const CellId b = nl.add_cell(lut);
  nl.connect_input(a, 0, in);
  nl.connect_input(a, 1, nb);
  nl.connect_output(a, 0, na);
  nl.connect_input(b, 0, in);
  nl.connect_input(b, 1, na);
  nl.connect_output(b, 0, nb);
  nl.add_port({"out", PortDir::kOutput, 1, nb});
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "comb-loop"), 1u);
}

TEST(DrcCombLoop, PassesWhenRegisterBreaksCycle) {
  Netlist nl("noloop");
  const NetId in = nl.add_net(1, "in");
  nl.add_port({"in", PortDir::kInput, 1, in});
  const NetId na = nl.add_net(1, "na");
  const NetId nq = nl.add_net(1, "nq");
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kAnd;
  lut.width = 1;
  const CellId a = nl.add_cell(lut);
  Cell ff;
  ff.type = CellType::kFf;
  ff.width = 1;
  const CellId f = nl.add_cell(ff);
  nl.connect_input(a, 0, in);
  nl.connect_input(a, 1, nq);  // feedback through the register: fine
  nl.connect_output(a, 0, na);
  nl.connect_input(f, 0, na);
  nl.connect_output(f, 0, nq);
  nl.add_port({"out", PortDir::kOutput, 1, nq});
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_EQ(count_rule(report, "comb-loop"), 0u);
  EXPECT_TRUE(report.clean());
}

// -- net-dead ----------------------------------------------------------------

TEST(DrcNetDead, WarnsOnOrphanNetButStaysClean) {
  Netlist nl = make_ff_netlist();
  nl.add_net(3, "leftover");
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_TRUE(report.clean());  // warning severity
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(count_rule(report, "net-dead"), 1u);
  EXPECT_EQ(report.findings()[0].severity, Severity::kWarning);
}

// -- place-bounds ------------------------------------------------------------

class DrcPlace : public ::testing::Test {
 protected:
  DrcPlace() : device_(make_tiny_device()) {
    nl_ = make_ff_netlist();
    phys_.resize_for(nl_);
    phys_.cell_loc[0] = TileCoord{2, 2};
    ctx_.netlist = &nl_;
    ctx_.phys = &phys_;
    ctx_.device = &device_;
  }

  FindingsReport run() { return run_drc(ctx_, kDrcPlacement); }

  Device device_;
  Netlist nl_;
  PhysState phys_;
  DrcContext ctx_;
};

TEST_F(DrcPlace, BoundsPassOnPlacedDesign) {
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(count_rule(report, "place-bounds"), 0u);
}

TEST_F(DrcPlace, BoundsFlagOutOfDeviceCell) {
  phys_.cell_loc[0] = TileCoord{999, 999};
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "place-bounds"), 1u);
}

TEST_F(DrcPlace, BoundsFlagMisalignedPhysState) {
  phys_.cell_loc.clear();
  EXPECT_GE(count_rule(run(), "place-bounds"), 1u);
}

TEST_F(DrcPlace, BoundsFlagLockedButUnplacedCell) {
  nl_.cell(0).placement_locked = true;
  phys_.cell_loc[0] = kUnplaced;
  EXPECT_GE(count_rule(run(), "place-bounds"), 1u);
}

// -- place-escape ------------------------------------------------------------

TEST_F(DrcPlace, EscapePassesInsideFootprint) {
  ctx_.instances = {InstanceRange{"u0", Pblock{0, 0, 7, 7}, 0, 1, 0, 2}};
  EXPECT_EQ(count_rule(run(), "place-escape"), 0u);
}

TEST_F(DrcPlace, EscapeFlagsCellOutsideFootprint) {
  ctx_.instances = {InstanceRange{"u0", Pblock{0, 0, 7, 7}, 0, 1, 0, 2}};
  phys_.cell_loc[0] = TileCoord{10, 10};
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "place-escape"), 1u);
}

// -- place-overlap -----------------------------------------------------------

TEST_F(DrcPlace, OverlapPassesOnDisjointPblocks) {
  ctx_.instances = {InstanceRange{"u0", Pblock{0, 0, 7, 7}, 0, 1, 0, 2},
                    InstanceRange{"u1", Pblock{8, 0, 15, 7}, 1, 1, 2, 2}};
  EXPECT_EQ(count_rule(run(), "place-overlap"), 0u);
}

TEST_F(DrcPlace, OverlapFlagsIntersectingPblocks) {
  ctx_.instances = {InstanceRange{"u0", Pblock{0, 0, 7, 7}, 0, 1, 0, 2},
                    InstanceRange{"u1", Pblock{4, 0, 11, 7}, 1, 1, 2, 2}};
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "place-overlap"), 1u);
}

// -- place-overuse -----------------------------------------------------------

TEST_F(DrcPlace, OverusePassesWhenDemandFits) {
  ctx_.instances = {InstanceRange{
      "u0", Pblock{0, 0, device_.width() - 1, device_.height() - 1}, 0, 1, 0, 2}};
  EXPECT_EQ(count_rule(run(), "place-overuse"), 0u);
}

TEST_F(DrcPlace, OveruseFlagsOversubscribedPblock) {
  nl_.cell(0).width = 4096;  // 4096 FFs cannot fit a single tile
  ctx_.instances = {InstanceRange{"u0", Pblock{2, 2, 2, 2}, 0, 1, 0, 2}};
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "place-overuse"), 1u);
}

// -- place-tile-crowding -----------------------------------------------------

TEST_F(DrcPlace, TileCrowdingPassesWithSpillRadius) {
  nl_.cell(0).width = 64;  // spreads over a few neighbouring tiles
  const FindingsReport report = run();
  EXPECT_EQ(count_rule(report, "place-tile-crowding"), 0u);
}

TEST_F(DrcPlace, TileCrowdingWarnsWhenRadiusTooSmall) {
  nl_.cell(0).width = 64;
  ctx_.tile_spill_radius = 0;
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());  // warning severity
  EXPECT_GE(report.warnings(), 1u);
  EXPECT_GE(count_rule(report, "place-tile-crowding"), 1u);
}

// -- route-overuse -----------------------------------------------------------

class DrcRoute : public ::testing::Test {
 protected:
  DrcRoute() : device_(make_tiny_device()) {
    ctx_.netlist = &fix_.nl;
    ctx_.phys = &fix_.phys;
    ctx_.device = &device_;
    ctx_.instances = fix_.instances;
    // Route 'mid' (c0 at (2,2) -> c1 at (6,2)) along row 2.
    RouteInfo& mid = fix_.phys.routes[fix_.n1];
    mid.routed = true;
    for (int x = 2; x < 6; ++x) {
      mid.edges.emplace_back(TileCoord{x, 2}, TileCoord{x + 1, 2});
    }
    mid.sink_delays_ns = {0.5};
  }

  FindingsReport run() { return run_drc(ctx_, kDrcRouting); }

  Device device_;
  TwoInstanceFixture fix_;
  DrcContext ctx_;
};

TEST_F(DrcRoute, OverusePassesAtDefaultCapacity) {
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(count_rule(report, "route-overuse"), 0u);
}

TEST_F(DrcRoute, OveruseWarnsOnOversubscribedEdge) {
  // Second route over the same first edge, capacity 1.
  RouteInfo& in = fix_.phys.routes[fix_.n0];
  in.routed = true;
  in.edges.emplace_back(TileCoord{2, 2}, TileCoord{3, 2});
  in.sink_delays_ns = {0.2};
  ctx_.channel_capacity = 1;
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());  // warning severity
  EXPECT_GE(count_rule(report, "route-overuse"), 1u);
}

// -- route-locked-conflict ---------------------------------------------------

TEST_F(DrcRoute, LockedConflictFlagsCrossInstanceOveruse) {
  // A locked net per instance, both crossing the same edge.
  fix_.nl.net(fix_.n0).routing_locked = true;
  fix_.nl.net(fix_.n2).routing_locked = true;
  RouteInfo& in = fix_.phys.routes[fix_.n0];
  in.routed = true;
  in.edges.emplace_back(TileCoord{2, 2}, TileCoord{3, 2});
  in.sink_delays_ns = {0.2};
  RouteInfo& out = fix_.phys.routes[fix_.n2];
  out.routed = true;
  out.edges.emplace_back(TileCoord{2, 2}, TileCoord{3, 2});
  ctx_.channel_capacity = 1;
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "route-locked-conflict"), 1u);
}

TEST_F(DrcRoute, LockedConflictPassesWithinCapacity) {
  fix_.nl.net(fix_.n0).routing_locked = true;
  fix_.nl.net(fix_.n2).routing_locked = true;
  RouteInfo& in = fix_.phys.routes[fix_.n0];
  in.routed = true;
  in.edges.emplace_back(TileCoord{2, 2}, TileCoord{3, 2});
  in.sink_delays_ns = {0.2};
  RouteInfo& out = fix_.phys.routes[fix_.n2];
  out.routed = true;
  out.edges.emplace_back(TileCoord{2, 2}, TileCoord{3, 2});
  ctx_.channel_capacity = 2;
  EXPECT_EQ(count_rule(run(), "route-locked-conflict"), 0u);
}

// -- route-escape ------------------------------------------------------------

TEST_F(DrcRoute, EscapePassesForStitchedStreamNet) {
  // 'mid' leaves u0's pblock to reach u1 — legal, its sink is external.
  fix_.nl.net(fix_.n1).routing_locked = true;
  EXPECT_EQ(count_rule(run(), "route-escape"), 0u);
}

TEST_F(DrcRoute, EscapeFlagsInternalRouteLeavingPblock) {
  // Make 'mid' instance-internal to u0, but keep its route through x=6.
  fix_.nl.net(fix_.n1).routing_locked = true;
  ctx_.instances[0].cell_end = 2;  // u0 now owns both FFs
  ctx_.instances[0].net_end = 3;
  ctx_.instances.pop_back();
  ctx_.instances.push_back(InstanceRange{"u1", Pblock{8, 8, 9, 9}, 2, 2, 3, 3});
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "route-escape"), 1u);
}

// -- route-endpoints ---------------------------------------------------------

TEST_F(DrcRoute, EndpointsPassOnCoveringRoute) {
  EXPECT_EQ(count_rule(run(), "route-endpoints"), 0u);
}

TEST_F(DrcRoute, EndpointsFlagUnroutedPlacedNet) {
  fix_.phys.routes[fix_.n1] = RouteInfo{};
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "route-endpoints"), 1u);
}

TEST_F(DrcRoute, EndpointsFlagDelayCountMismatch) {
  fix_.phys.routes[fix_.n1].sink_delays_ns = {0.5, 0.7};  // one sink only
  EXPECT_GE(count_rule(run(), "route-endpoints"), 1u);
}

TEST_F(DrcRoute, EndpointsFlagNonAdjacentEdge) {
  fix_.phys.routes[fix_.n1].edges[0] = {TileCoord{2, 2}, TileCoord{4, 2}};
  EXPECT_GE(count_rule(run(), "route-endpoints"), 1u);
}

TEST_F(DrcRoute, EndpointsFlagRouteMissingTerminal) {
  fix_.phys.cell_loc[fix_.c1] = TileCoord{6, 5};  // route still ends at (6,2)
  EXPECT_GE(count_rule(run(), "route-endpoints"), 1u);
}

TEST_F(DrcRoute, EndpointsFlagEmptyRouteSpanningTiles) {
  fix_.phys.routes[fix_.n1].edges.clear();
  EXPECT_GE(count_rule(run(), "route-endpoints"), 1u);
}

// -- cp-pins -----------------------------------------------------------------

class DrcCheckpoint : public ::testing::Test {
 protected:
  DrcCheckpoint() : device_(make_tiny_device()) {
    cp_.netlist = make_ff_netlist();
    cp_.phys.resize_for(cp_.netlist);
    cp_.phys.cell_loc[0] = TileCoord{3, 3};
    cp_.pblock = Pblock{2, 2, 8, 10};
    cp_.meta.fmax_mhz = 250.0;
    cp_.meta.critical_path_ns = 4.0;
    cp_.meta.device = device_.name();
    cp_.port_pins = {TileCoord{2, 5}, TileCoord{8, 6}};  // west in, east out
    ctx_.netlist = &cp_.netlist;
    ctx_.checkpoint = &cp_;
    ctx_.device = &device_;
  }

  FindingsReport run() { return run_drc(ctx_, kDrcCheckpoint); }

  Device device_;
  Checkpoint cp_;
  DrcContext ctx_;
};

TEST_F(DrcCheckpoint, PinsPassOnBoundary) {
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(count_rule(report, "cp-pins"), 0u);
}

TEST_F(DrcCheckpoint, PinsWarnWhenInterior) {
  cp_.port_pins = {TileCoord{5, 5}, TileCoord{8, 6}};
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());  // warning severity
  EXPECT_GE(report.warnings(), 1u);
  EXPECT_EQ(count_rule(report, "cp-pins"), 1u);
}

TEST_F(DrcCheckpoint, PinsErrorOnCountMismatch) {
  cp_.port_pins = {TileCoord{2, 5}};  // two ports, one pin
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(count_rule(report, "cp-pins"), 1u);
}

TEST_F(DrcCheckpoint, PinsInfoWhenNoPlanRecorded) {
  cp_.port_pins.clear();
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.infos(), 1u);
  EXPECT_EQ(count_rule(report, "cp-pins"), 1u);
}

// -- cp-meta -----------------------------------------------------------------

TEST_F(DrcCheckpoint, MetaPassesOnConsistentCheckpoint) {
  EXPECT_EQ(count_rule(run(), "cp-meta"), 0u);
}

TEST_F(DrcCheckpoint, MetaFlagsNegativeQor) {
  cp_.meta.fmax_mhz = -1.0;
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "cp-meta"), 1u);
}

TEST_F(DrcCheckpoint, MetaFlagsDeviceMismatch) {
  cp_.meta.device = "some_other_part";
  const FindingsReport report = run();
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "cp-meta"), 1u);
}

TEST_F(DrcCheckpoint, MetaFlagsMisalignedPhys) {
  cp_.phys.cell_loc.clear();
  EXPECT_GE(count_rule(run(), "cp-meta"), 1u);
}

TEST_F(DrcCheckpoint, MetaWarnsOnFmaxCriticalPathDisagreement) {
  cp_.meta.critical_path_ns = 10.0;  // implies 100 MHz, meta says 250
  const FindingsReport report = run();
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.warnings(), 1u);
  EXPECT_GE(count_rule(report, "cp-meta"), 1u);
}

// -- checkpoint entry point --------------------------------------------------

TEST_F(DrcCheckpoint, RunCheckpointDrcIsCleanOnGoodComponent) {
  const FindingsReport report = run_checkpoint_drc(cp_, &device_);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.rules_run(), 10u);  // all stages engaged
}

TEST_F(DrcCheckpoint, RunCheckpointDrcCatchesEscapedCell) {
  cp_.phys.cell_loc[0] = TileCoord{15, 15};  // outside the pblock
  const FindingsReport report = run_checkpoint_drc(cp_, &device_);
  EXPECT_FALSE(report.clean());
  EXPECT_GE(count_rule(report, "place-escape"), 1u);
}

TEST_F(DrcCheckpoint, RunCheckpointDrcWorksWithoutDevice) {
  cp_.meta.device = "some_other_part";  // needs a device context to detect
  const FindingsReport report = run_checkpoint_drc(cp_);
  EXPECT_TRUE(report.clean());
}

// -- waivers, caps, enforcement ---------------------------------------------

TEST(DrcOptionsTest, WaivedRuleIsRecordedButNotCounted) {
  Netlist nl = make_ff_netlist();
  nl.net(1).driver_pin = 3;  // net-driver violation
  CheckOptions opt;
  opt.waived_rules = {"net-driver"};
  const FindingsReport report = run_structural_drc(nl, opt);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_GE(report.waived(), 1u);
  ASSERT_GE(count_rule(report, "net-driver"), 1u);
  EXPECT_TRUE(report.by_rule("net-driver")[0]->waived);
}

TEST(DrcOptionsTest, PerRuleViolationCap) {
  Netlist nl = make_ff_netlist();
  for (int i = 0; i < 5; ++i) nl.add_net(1, "dead" + std::to_string(i));
  CheckOptions opt;
  opt.max_per_rule = 2;
  const FindingsReport report = run_structural_drc(nl, opt);
  EXPECT_EQ(count_rule(report, "net-dead"), 2u);
  EXPECT_EQ(report.suppressed(), 3u);
}

TEST(DrcEnforce, ThrowsOnErrorsOnly) {
  Netlist bad = make_ff_netlist();
  bad.net(1).driver_pin = 3;
  EXPECT_THROW(enforce(run_structural_drc(bad), "test"), std::runtime_error);

  Netlist warn_only = make_ff_netlist();
  warn_only.add_net(2, "dead");
  EXPECT_NO_THROW(enforce(run_structural_drc(warn_only), "test"));
}

TEST(FindingsReportTest, SummaryAndListing) {
  Netlist nl = make_ff_netlist();
  nl.net(1).driver_pin = 3;
  nl.add_net(2, "dead");
  const FindingsReport report = run_structural_drc(nl);
  EXPECT_NE(report.summary().find("error"), std::string::npos);
  EXPECT_NE(report.to_string().find("net-driver"), std::string::npos);
  EXPECT_NE(report.to_string().find("net-dead"), std::string::npos);
}

}  // namespace
}  // namespace fpgasim
