#include <gtest/gtest.h>

#include "cnn/zoo.h"
#include "drc/drc.h"
#include "flow/build.h"
#include "flow/compose.h"
#include "flow/preimpl.h"
#include "flow/service.h"
#include "route/router.h"
#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

using testhelpers::expect_tensor_eq;
using testhelpers::random_params;
using testhelpers::random_tensor;
using testhelpers::run_stream;

TEST(AliasNet, RewiresSinksOntoDrivenNet) {
  Netlist nl("a");
  const NetId driven = nl.add_net(8);
  const NetId dead = nl.add_net(8);
  Cell drv;
  drv.type = CellType::kFf;
  drv.width = 8;
  const CellId d = nl.add_cell(std::move(drv));
  nl.connect_output(d, 0, driven);
  Cell snk;
  snk.type = CellType::kFf;
  snk.width = 8;
  const CellId s = nl.add_cell(std::move(snk));
  nl.connect_input(s, 0, dead);

  alias_net(nl, dead, driven);
  EXPECT_EQ(nl.cell(s).inputs[0], driven);
  ASSERT_EQ(nl.net(driven).sinks.size(), 1u);
  EXPECT_TRUE(nl.net(dead).sinks.empty());
}

TEST(AliasNet, RefusesDrivenSource) {
  Netlist nl("a");
  const NetId n1 = nl.add_net(1);
  const NetId n2 = nl.add_net(1);
  Cell drv;
  drv.type = CellType::kFf;
  const CellId d = nl.add_cell(std::move(drv));
  nl.connect_output(d, 0, n1);
  EXPECT_THROW(alias_net(nl, n1, n2), std::runtime_error);
}

TEST(AliasNet, MergesFanOutOntoOneDrivenNet) {
  // Two driverless nets collapsed onto one driven net: the driven net must
  // accumulate every sink (stream fan-out after stitching a fork), and the
  // merged design must stay DRC-clean for channel capacity and routing.
  Netlist nl("fanout");
  const NetId driven = nl.add_net(8);
  const NetId dead_a = nl.add_net(8);
  const NetId dead_b = nl.add_net(8);
  Cell drv;
  drv.type = CellType::kFf;
  drv.width = 8;
  const CellId d = nl.add_cell(std::move(drv));
  nl.connect_output(d, 0, driven);
  std::vector<CellId> sinks;
  for (int i = 0; i < 4; ++i) {
    Cell snk;
    snk.type = CellType::kFf;
    snk.width = 8;
    sinks.push_back(nl.add_cell(std::move(snk)));
  }
  nl.connect_input(sinks[0], 0, dead_a);
  nl.connect_input(sinks[1], 0, dead_a);
  nl.connect_input(sinks[2], 0, dead_b);
  nl.connect_input(sinks[3], 0, driven);

  PhysState phys;
  phys.resize_for(nl);
  // Stale routes on the dead nets must be dropped by the phys overload.
  phys.routes[dead_a].edges.push_back({TileCoord{0, 0}, TileCoord{1, 0}});
  phys.routes[dead_b].edges.push_back({TileCoord{0, 1}, TileCoord{1, 1}});

  alias_net(nl, phys, dead_a, driven);
  alias_net(nl, phys, dead_b, driven);

  ASSERT_EQ(nl.net(driven).sinks.size(), 4u);
  for (const CellId s : sinks) EXPECT_EQ(nl.cell(s).inputs[0], driven);
  EXPECT_TRUE(nl.net(dead_a).sinks.empty());
  EXPECT_TRUE(nl.net(dead_b).sinks.empty());
  EXPECT_TRUE(phys.routes[dead_a].edges.empty());
  EXPECT_TRUE(phys.routes[dead_b].edges.empty());

  // Place the 5 cells and route the merged net: a 1-driver 4-sink net must
  // be legal for both the routing and channel-capacity DRC stages.
  const Device device = make_xcku5p_sim();
  phys.cell_loc[d] = TileCoord{2, 2};
  phys.cell_loc[sinks[0]] = TileCoord{4, 2};
  phys.cell_loc[sinks[1]] = TileCoord{2, 4};
  phys.cell_loc[sinks[2]] = TileCoord{5, 5};
  phys.cell_loc[sinks[3]] = TileCoord{1, 1};
  RouteOptions ropt;
  const RouteResult routed = route_design(device, nl, phys, ropt);
  ASSERT_TRUE(routed.success) << routed.error;

  DrcContext ctx;
  ctx.netlist = &nl;
  ctx.phys = &phys;
  ctx.device = &device;
  ctx.channel_capacity = ropt.channel_capacity;
  CheckOptions dopt;
  dopt.waived_rules = {"net-dangling"};  // top-level stream ports stay open
  const FindingsReport report = run_drc(ctx, kDrcStructural | kDrcPlacement | kDrcRouting, dopt);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(StitchGraph, ForkedDiamondSimulatesBitExact) {
  // in -> fork -> {relu, relu} -> add: the stitched diamond must behave as
  // the identity under non-negative data doubled by the join.
  const Netlist fork = make_stream_fork("fk", 2);
  const Netlist left = make_relu_component("rl");
  const Netlist right = make_relu_component("rr");
  const Netlist join = make_add_component("j", 16, 2);
  const std::vector<StreamEdge> edges = {
      {0, 1, 0, 0},  // fork branch 0 -> left
      {0, 2, 1, 0},  // fork branch 1 -> right
      {1, 3, 0, 0},  // left -> join port 0
      {2, 3, 0, 1},  // right -> join port 1
  };
  const Netlist top = stitch_graph({&fork, &left, &right, &join}, edges, 0, 3, "diamond");
  EXPECT_TRUE(top.validate().empty());

  const Tensor input = random_tensor(1, 4, 4, 515);
  std::vector<Fixed16> expected;
  for (const Fixed16& v : input.data) {
    const Fixed16 r = v.raw > 0 ? v : Fixed16::from_raw(0);
    expected.push_back(r + r);
  }
  Simulator sim(top);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(StitchGraph, RefusesImplicitStreamFanOut) {
  // One output stream wired to two consumers: the producer's single
  // out_ready can follow only one of them, so the second consumer's
  // in_ready would be silently ignored. The stitch must refuse and point
  // at the fork component instead.
  const Netlist src = make_relu_component("src");
  const Netlist left = make_relu_component("l");
  const Netlist right = make_relu_component("r");
  const std::vector<StreamEdge> edges = {{0, 1, 0, 0}, {0, 2, 0, 0}};
  try {
    stitch_graph({&src, &left, &right}, edges, 0, 1, "fanout");
    FAIL() << "expected implicit fan-out to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("make_stream_fork"), std::string::npos) << e.what();
  }
}

TEST(StitchChain, FunctionallyEquivalentToSeparateComponents) {
  // conv -> pool stitched into one netlist must equal running the golden
  // layers in sequence.
  ConvParams cp;
  cp.in_c = 2;
  cp.out_c = 2;
  cp.kernel = 3;
  cp.in_h = 6;
  cp.in_w = 6;
  const auto weights = random_params(static_cast<std::size_t>(2) * 2 * 9, 301);
  const auto bias = random_params(2, 302);
  const Netlist conv = make_conv_component(cp, weights, bias);
  PoolParams pp;
  pp.channels = 2;
  pp.kernel = 2;
  pp.in_h = 4;
  pp.in_w = 4;
  pp.fuse_relu = true;
  const Netlist pool = make_pool_component(pp);

  const Netlist chain = stitch_chain({&conv, &pool}, "conv_pool");
  EXPECT_TRUE(chain.validate().empty());
  EXPECT_EQ(chain.cell_count(), conv.cell_count() + pool.cell_count());

  const Tensor input = random_tensor(2, 6, 6, 303);
  const Tensor expected = golden_relu(
      golden_maxpool(golden_conv2d(input, weights, bias, 2, 3, 1), 2));
  Simulator sim(chain);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

TEST(StitchChain, SingleStagePassesThrough) {
  const Netlist relu = make_relu_component("r");
  const Netlist chain = stitch_chain({&relu}, "solo");
  EXPECT_TRUE(chain.validate().empty());
  EXPECT_NE(chain.find_port("in_data"), nullptr);
  EXPECT_NE(chain.find_port("out_valid"), nullptr);
}

Checkpoint make_fake_checkpoint(const std::string& name, int width_tiles) {
  ConvParams p;
  p.name = name;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 2;
  p.in_h = 4;
  p.in_w = 4;
  Checkpoint cp;
  cp.netlist = make_conv_component(p, random_params(4, 401), random_params(1, 402));
  cp.phys.resize_for(cp.netlist);
  for (CellId c = 0; c < cp.netlist.cell_count(); ++c) {
    cp.phys.cell_loc[c] = TileCoord{static_cast<int>(c) % width_tiles, 2};
  }
  cp.pblock = Pblock{0, 0, width_tiles - 1, 7};
  cp.meta.fmax_mhz = 300.0;
  return cp;
}

TEST(Composer, TracksInstanceRangesAndMacroNets) {
  const Checkpoint a = make_fake_checkpoint("a", 4);
  const Checkpoint b = make_fake_checkpoint("b", 4);
  Composer composer("top");
  const int ia = composer.add_instance(a, "a0");
  const int ib = composer.add_instance(b, "b0");
  composer.connect(ia, ib);
  composer.expose_input(ia);
  composer.expose_output(ib);
  const ComposedDesign design = std::move(composer).finish();

  ASSERT_EQ(design.instances.size(), 2u);
  EXPECT_EQ(design.instances[0].cell_begin, 0u);
  EXPECT_EQ(design.instances[0].cell_end, a.netlist.cell_count());
  EXPECT_EQ(design.instances[1].cell_begin, a.netlist.cell_count());
  EXPECT_EQ(design.netlist.cell_count(), a.netlist.cell_count() + b.netlist.cell_count());
  ASSERT_EQ(design.macro_nets.size(), 1u);
  EXPECT_EQ(design.macro_nets[0].items, (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(design.netlist.validate().empty());
  EXPECT_NE(design.netlist.find_port("in_data"), nullptr);
  EXPECT_NE(design.netlist.find_port("out_data"), nullptr);
}

TEST(Composer, TranslateInstanceMovesOnlyThatInstance) {
  const Checkpoint a = make_fake_checkpoint("a", 4);
  const Checkpoint b = make_fake_checkpoint("b", 4);
  Composer composer("top");
  composer.add_instance(a, "a0");
  composer.add_instance(b, "b0");
  ComposedDesign design = std::move(composer).finish();

  const TileCoord before_a = design.phys.cell_loc[0];
  const TileCoord before_b = design.phys.cell_loc[design.instances[1].cell_begin];
  design.translate_instance(1, 10, 6);
  EXPECT_EQ(design.phys.cell_loc[0], before_a);  // instance 0 untouched
  const TileCoord after_b = design.phys.cell_loc[design.instances[1].cell_begin];
  EXPECT_EQ(after_b.x, before_b.x + 10);
  EXPECT_EQ(after_b.y, before_b.y + 6);
  EXPECT_EQ(design.instances[1].footprint.x0, 10);
}

TEST(Composer, MacroItemsMirrorFootprints) {
  const Checkpoint a = make_fake_checkpoint("a", 6);
  Composer composer("top");
  composer.add_instance(a, "solo");
  const ComposedDesign design = std::move(composer).finish();
  const auto items = design.macro_items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].name, "solo");
  EXPECT_EQ(items[0].footprint, a.pblock);
}

TEST(PreImplFlow, ComposeGateCatchesBrokenDriverPin) {
  // A checkpoint whose netlist records an inconsistent driver pin must be
  // caught by the flow's compose gate, before placement sees it.
  Checkpoint broken = make_fake_checkpoint("bad", 4);
  for (NetId n = 0; n < broken.netlist.net_count(); ++n) {
    if (broken.netlist.net(n).driver != kInvalidCell) {
      broken.netlist.net(n).driver_pin = 99;
      break;
    }
  }
  ComponentGraph graph;
  graph.nodes = {&broken};
  graph.names = {"bad0"};
  ComposedDesign design;
  try {
    run_preimpl_flow(make_xcku5p_sim(), graph, design);
    FAIL() << "expected the compose gate to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("preimpl after compose"), std::string::npos) << what;
    EXPECT_NE(what.find("net-driver"), std::string::npos) << what;
  }
}

TEST(PreImplFlow, EveryNodeNeedsAName) {
  const Checkpoint a = make_fake_checkpoint("a", 4);
  ComponentGraph graph;
  graph.nodes = {&a};
  ComposedDesign design;
  EXPECT_THROW(run_preimpl_flow(make_xcku5p_sim(), graph, design), std::invalid_argument);
}

TEST(Composer, FinishedDesignPassesStructuralDrc) {
  const Checkpoint a = make_fake_checkpoint("a", 4);
  const Checkpoint b = make_fake_checkpoint("b", 4);
  Composer composer("top");
  const int ia = composer.add_instance(a, "a0");
  const int ib = composer.add_instance(b, "b0");
  composer.connect(ia, ib);
  composer.expose_input(ia);
  composer.expose_output(ib);
  const ComposedDesign design = std::move(composer).finish();

  const FindingsReport report = run_structural_drc(design.netlist);
  EXPECT_TRUE(report.clean()) << report.to_string();

  // The instance ranges the DRC and lint take are the design's own.
  ASSERT_EQ(design.instances.size(), 2u);
  EXPECT_EQ(design.instances[0].name, "a0");
  EXPECT_EQ(design.instances[0].cell_end, design.instances[1].cell_begin);
  EXPECT_EQ(design.instances[0].net_end, design.instances[1].net_begin);
  EXPECT_EQ(design.instances[1].footprint, b.pblock);
}

TEST(Composer, ConnectRefusesImplicitStreamFanOut) {
  const Checkpoint a = make_fake_checkpoint("a", 4);
  const Checkpoint b = make_fake_checkpoint("b", 4);
  const Checkpoint c = make_fake_checkpoint("c", 4);
  Composer composer("top");
  const int ia = composer.add_instance(a, "a0");
  const int ib = composer.add_instance(b, "b0");
  const int ic = composer.add_instance(c, "c0");
  composer.connect(ia, ib);
  try {
    composer.connect(ia, ic);
    FAIL() << "expected implicit fan-out to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("make_stream_fork"), std::string::npos);
  }
  // Two producers on one input port are equally illegal.
  EXPECT_THROW(composer.connect(ic, ib), std::runtime_error);
}

TEST(Composer, MissingPortThrows) {
  Checkpoint broken = make_fake_checkpoint("x", 4);
  broken.netlist.ports().clear();
  Composer composer("top");
  const int i0 = composer.add_instance(broken, "x0");
  EXPECT_THROW(composer.expose_input(i0), std::runtime_error);
}

TEST(BuildGroup, FusedGroupNamesAndSignatures) {
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 64);
  const auto groups = default_grouping(model);
  const std::string sig0 = group_signature(model, impl, groups[0]);
  const std::string sig1 = group_signature(model, impl, groups[1]);
  EXPECT_NE(sig0, sig1);
  EXPECT_NE(sig0.find("conv"), std::string::npos);
  EXPECT_NE(sig1.find("pool"), std::string::npos);
  EXPECT_NE(sig1.find("_r"), std::string::npos);  // fused relu marker
  // Deterministic.
  EXPECT_EQ(sig0, group_signature(model, impl, groups[0]));
}

TEST(BuildGroup, FlatNetlistMatchesReferenceInference) {
  // Whole mini-CNN synthesized flat and simulated against the golden path.
  const std::string text = R"(network mini
input 2 6 6
conv c1 out=2 k=3
pool p1 k=2 relu
)";
  const CnnModel model = parse_arch_def(text);
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  const Netlist flat = build_flat_netlist(model, impl, groups);
  EXPECT_TRUE(flat.validate().empty());

  const Tensor input = random_tensor(2, 6, 6, 777);
  const auto expected = reference_inference(model, input);
  Simulator sim(flat);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(BuildFlat, ZooFlatNetlistsArePinned) {
  // The monolithic flow's input for every zoo model, built with the zoo's
  // dispatch configuration. The fingerprint hashes the serialized netlist
  // (physical state empty), so a change to synthesis or stitching moves it.
  const std::vector<std::pair<const char*, const char*>> pinned{
      {"lenet", "b25082d2d237109c7711e8110364463e"},
      {"resblock", "90302ff0380613af1cb357463e2e22dc"},
      {"vgg16", "51de8d4b7e067941f8399969f050715a"},
      {"mobilenet", "a5821c8faf166d0c9cedbabc80ddc49d"},
      {"resnet18", "a6aa563bfcd928359a491cf97a11c1bc"},
      {"unet", "f7b390c0d49ae57b75b8e8ffe20132e6"},
      {"inception", "f2a8ce3e4c0ad3c08f274aee1baf2c9e"},
  };
  ASSERT_EQ(model_zoo().size(), pinned.size());
  for (const auto& [name, fingerprint] : pinned) {
    const ZooEntry* entry = find_zoo_model(name);
    ASSERT_NE(entry, nullptr) << name;
    const CnnModel model = entry->make();
    const ModelImpl impl = choose_implementation(model, entry->dsp_budget, entry->max_tile);
    ComposedDesign flat;
    flat.netlist = build_flat_netlist(model, impl, default_grouping(model));
    EXPECT_EQ(design_fingerprint(flat), fingerprint) << name;
  }
}

}  // namespace
}  // namespace fpgasim
