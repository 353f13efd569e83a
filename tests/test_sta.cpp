#include <gtest/gtest.h>

#include <stdexcept>

#include "synth/builder.h"
#include "timing/sta.h"

namespace fpgasim {
namespace {

/// FF -> LUT -> FF chain with every cell at the same tile: critical path
/// is fully predictable from the delay model.
TEST(Sta, HandBuiltChainMatchesModel) {
  const Device device = make_tiny_device();
  const DelayModel dm;
  NetlistBuilder b("chain");
  const NetId d = b.in_port("d", 1);
  const NetId q1 = b.ff(d, kInvalidNet, 1);
  const NetId l1 = b.not1(q1, 1);
  b.out_port("q", b.ff(l1, kInvalidNet, 1));
  Netlist nl = std::move(b).take();

  PhysState phys;
  phys.resize_for(nl);
  for (CellId c = 0; c < nl.cell_count(); ++c) phys.cell_loc[c] = TileCoord{3, 3};

  const TimingResult result = run_sta(nl, phys, device, dm);
  // ff.q + wire + lut + wire + ff.setup, wires at distance 0.
  const double expected = dm.ff_clk_to_q + dm.wire_base + dm.lut + dm.wire_base + dm.ff_setup;
  EXPECT_NEAR(result.critical_path_ns, expected, 1e-9);
  EXPECT_NEAR(result.fmax_mhz, 1000.0 / expected, 1e-6);
  EXPECT_GE(result.endpoints, 2u);

  // Launch FF, LUT, capturing FF: each hop carries its own model terms.
  ASSERT_EQ(result.critical_path.size(), 3u);
  const TimingHop& launch = result.critical_path[0];
  const TimingHop& lut = result.critical_path[1];
  const TimingHop& capture = result.critical_path[2];
  EXPECT_EQ(launch.cell, nl.net(q1).driver);
  EXPECT_EQ(launch.net, kInvalidNet);
  EXPECT_DOUBLE_EQ(launch.wire_ns + launch.logic_ns, dm.ff_clk_to_q);
  EXPECT_EQ(lut.cell, nl.net(l1).driver);
  EXPECT_EQ(lut.net, q1);
  EXPECT_DOUBLE_EQ(lut.wire_ns, dm.wire_base);
  EXPECT_DOUBLE_EQ(lut.logic_ns, dm.lut);
  EXPECT_EQ(capture.net, l1);
  EXPECT_DOUBLE_EQ(capture.wire_ns, dm.wire_base);
  EXPECT_DOUBLE_EQ(capture.logic_ns, dm.ff_setup);

  // The formatter names each hop's instance and marks the net that
  // crosses from one instance into the next.
  const std::vector<InstanceRange> instances{{"a", {}, 0, capture.cell, 0, 0},
                                             {"b", {}, capture.cell, capture.cell + 1, 0, 0}};
  const std::string text = format_critical_path(result, nl, instances);
  EXPECT_NE(text.find("a: FF cell #" + std::to_string(launch.cell)), std::string::npos) << text;
  EXPECT_NE(text.find("b: FF cell #" + std::to_string(capture.cell)), std::string::npos) << text;
  EXPECT_NE(text.find("from a"), std::string::npos) << text;
}

TEST(Sta, DistanceIncreasesCriticalPath) {
  const Device device = make_tiny_device();
  NetlistBuilder b("dist");
  const NetId d = b.in_port("d", 1);
  const NetId q1 = b.ff(d, kInvalidNet, 1);
  b.out_port("q", b.ff(q1, kInvalidNet, 1));
  Netlist nl = std::move(b).take();

  PhysState near, far;
  near.resize_for(nl);
  far.resize_for(nl);
  near.cell_loc = {TileCoord{3, 3}, TileCoord{4, 3}};
  far.cell_loc = {TileCoord{1, 1}, TileCoord{20, 28}};
  const double near_cp = run_sta(nl, near, device).critical_path_ns;
  const double far_cp = run_sta(nl, far, device).critical_path_ns;
  EXPECT_GT(far_cp, near_cp + 1.0);
}

TEST(Sta, SequentialElementsBreakPaths) {
  const Device device = make_tiny_device();
  // Two LUTs back to back vs. two LUTs with an FF between.
  auto build = [&](bool pipelined) {
    NetlistBuilder b("p");
    NetId x = b.in_port("d", 1);
    x = b.ff(x, kInvalidNet, 1);
    x = b.not1(x, 1);
    if (pipelined) x = b.ff(x, kInvalidNet, 1);
    x = b.not1(x, 1);
    b.out_port("q", b.ff(x, kInvalidNet, 1));
    Netlist nl = std::move(b).take();
    PhysState phys;
    phys.resize_for(nl);
    for (CellId c = 0; c < nl.cell_count(); ++c) phys.cell_loc[c] = TileCoord{5, 5};
    return run_sta(nl, phys, device).critical_path_ns;
  };
  EXPECT_GT(build(false), build(true));
}

TEST(Sta, PipelinedDspBeatsCombinationalDsp) {
  const Device device = make_tiny_device();
  auto build = [&](int stages) {
    NetlistBuilder b("dsp");
    const NetId a = b.in_port("a", 16);
    const NetId q = b.ff(a, kInvalidNet, 16);
    const NetId p = b.dsp(q, q, kInvalidNet, 8, stages, 16);
    b.out_port("o", b.ff(p, kInvalidNet, 16));
    Netlist nl = std::move(b).take();
    PhysState phys;
    phys.resize_for(nl);
    for (CellId c = 0; c < nl.cell_count(); ++c) phys.cell_loc[c] = TileCoord{4, 4};
    return run_sta(nl, phys, device).fmax_mhz;
  };
  EXPECT_GT(build(1), build(0) * 1.3);
}

TEST(Sta, RoutedDelaysOverrideEstimates) {
  const Device device = make_tiny_device();
  NetlistBuilder b("r");
  const NetId d = b.in_port("d", 1);
  const NetId q1 = b.ff(d, kInvalidNet, 1);
  b.out_port("q", b.ff(q1, kInvalidNet, 1));
  Netlist nl = std::move(b).take();
  PhysState phys;
  phys.resize_for(nl);
  phys.cell_loc = {TileCoord{2, 2}, TileCoord{3, 2}};

  const double estimated = run_sta(nl, phys, device).critical_path_ns;
  // Provide an (artificially slow) routed delay on the connecting net.
  const NetId inner = nl.cell(1).inputs[0];
  phys.routes[inner].routed = true;
  phys.routes[inner].sink_delays_ns = {5.0};
  const double routed = run_sta(nl, phys, device).critical_path_ns;
  EXPECT_GT(routed, estimated + 3.0);
}

TEST(Sta, FanoutAddsDelay) {
  const Device device = make_tiny_device();
  auto build = [&](int fanout) {
    NetlistBuilder b("f");
    const NetId d = b.in_port("d", 1);
    const NetId q = b.ff(d, kInvalidNet, 1);
    for (int i = 0; i < fanout; ++i) {
      b.out_port(std::string("q").append(std::to_string(i)), b.ff(q, kInvalidNet, 1));
    }
    Netlist nl = std::move(b).take();
    PhysState phys;
    phys.resize_for(nl);
    for (CellId c = 0; c < nl.cell_count(); ++c) phys.cell_loc[c] = TileCoord{6, 6};
    return run_sta(nl, phys, device).critical_path_ns;
  };
  EXPECT_GT(build(12), build(1));
}

TEST(Sta, DiscontinuityPenaltyInEstimates) {
  const Device device = make_tiny_device();  // IO column at x=12
  NetlistBuilder b("disc");
  const NetId d = b.in_port("d", 1);
  const NetId q1 = b.ff(d, kInvalidNet, 1);
  b.out_port("q", b.ff(q1, kInvalidNet, 1));
  Netlist nl = std::move(b).take();
  PhysState same, cross;
  same.resize_for(nl);
  cross.resize_for(nl);
  same.cell_loc = {TileCoord{4, 5}, TileCoord{10, 5}};   // distance 6
  cross.cell_loc = {TileCoord{9, 5}, TileCoord{15, 5}};  // distance 6, crosses IO
  EXPECT_GT(run_sta(nl, cross, device).critical_path_ns,
            run_sta(nl, same, device).critical_path_ns + 0.2);
}

TEST(Sta, UnplacedDesignStillAnalyzesLogicDepth) {
  NetlistBuilder b("u");
  NetId x = b.in_port("d", 8);
  x = b.ff(x, kInvalidNet, 8);
  for (int i = 0; i < 4; ++i) x = b.add(x, x, 8);
  b.out_port("q", b.ff(x, kInvalidNet, 8));
  Netlist nl = std::move(b).take();
  PhysState phys;  // empty: no placement at all
  const Device device = make_tiny_device();
  const TimingResult result = run_sta(nl, phys, device);
  EXPECT_GT(result.critical_path_ns, 1.0);  // 4 adder levels + wire estimates
  EXPECT_GT(result.fmax_mhz, 0.0);
}

TEST(Sta, MultiOutputCellPropagatesArrivalToEveryOutput) {
  const Device device = make_tiny_device();
  const DelayModel dm;
  // FF -> LUT with TWO output nets; the endpoint hangs off the SECOND one.
  // Arrival used to be propagated through outputs[0] only, leaving the
  // second net at arrival 0 and silently shortening every path through it.
  Netlist nl("dual");
  Cell src;
  src.type = CellType::kFf;
  src.width = 1;
  const CellId launch = nl.add_cell(std::move(src));
  const NetId a = nl.add_net(1);
  nl.connect_output(launch, 0, a);

  Cell dual;
  dual.type = CellType::kLut;
  dual.width = 1;
  const CellId lut = nl.add_cell(std::move(dual));
  nl.connect_input(lut, 0, a);
  const NetId o0 = nl.add_net(1);  // unloaded first output
  const NetId o1 = nl.add_net(1);  // the output that carries the path
  nl.connect_output(lut, 0, o0);
  nl.connect_output(lut, 1, o1);

  Cell capture;
  capture.type = CellType::kFf;
  capture.width = 1;
  const CellId endpoint = nl.add_cell(std::move(capture));
  nl.connect_input(endpoint, 0, o1);

  PhysState phys;
  phys.resize_for(nl);
  for (CellId c = 0; c < nl.cell_count(); ++c) phys.cell_loc[c] = TileCoord{3, 3};

  const TimingResult result = run_sta(nl, phys, device, dm);
  const double expected =
      dm.ff_clk_to_q + dm.wire_base + dm.lut + dm.wire_base + dm.ff_setup;
  EXPECT_NEAR(result.critical_path_ns, expected, 1e-9);
}

TEST(Sta, CombinationalLoopIsRejected) {
  // Two LUTs in a ring feeding a register: there is no topological order,
  // so no critical path to report. Both simulators reject the same netlist.
  const Device device = make_tiny_device();
  Netlist nl("ring");
  const NetId in = nl.add_net(1, "in");
  nl.add_port({"in", PortDir::kInput, 1, in});
  const NetId na = nl.add_net(1, "na");
  const NetId nb = nl.add_net(1, "nb");
  const NetId q = nl.add_net(1, "q");
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kAnd;
  const CellId a = nl.add_cell(lut);
  const CellId b = nl.add_cell(lut);
  nl.connect_input(a, 0, in);
  nl.connect_input(a, 1, nb);
  nl.connect_output(a, 0, na);
  nl.connect_input(b, 0, in);
  nl.connect_input(b, 1, na);
  nl.connect_output(b, 0, nb);
  Cell ff;
  ff.type = CellType::kFf;
  const CellId reg = nl.add_cell(ff);
  nl.connect_input(reg, 0, nb);
  nl.connect_output(reg, 0, q);
  nl.add_port({"q", PortDir::kOutput, 1, q});

  PhysState phys;
  phys.resize_for(nl);
  EXPECT_THROW(run_sta(nl, phys, device), std::runtime_error);
}

}  // namespace
}  // namespace fpgasim
