// End-to-end flow tests: the pre-implemented flow against the monolithic
// baseline on a small CNN, checking the paper's qualitative claims hold on
// the simulated substrate and that composition preserves functionality.
#include <gtest/gtest.h>

#include <algorithm>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "lint/lint.h"
#include "stream_harness.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

using testhelpers::expect_tensor_eq;
using testhelpers::random_tensor;
using testhelpers::run_stream;

/// A component source that never matches (an empty store).
const ComponentLookup kNoComponents = [](const std::string&) -> const Checkpoint* {
  return nullptr;
};

/// A model compiled cold through a memory-only CompileService; `compile`
/// re-runs the flow warm (every component a store hit).
struct ServiceFlow {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  CheckpointStore store;
  CompileService service{device, store};
  CompileService::SessionResult first;

  ServiceFlow(CnnModel m, long dsp_budget) : model(std::move(m)) {
    impl = choose_implementation(model, dsp_budget);
    groups = default_grouping(model);
    first = compile();
  }

  CompileService::SessionResult compile() { return service.compile(model, impl, groups); }
};

struct MiniFlow : ServiceFlow {
  MiniFlow()
      : ServiceFlow(parse_arch_def(R"(network mini
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=2 k=3
)"),
                    12) {}
};

TEST(Flows, PreImplPipelineEndToEnd) {
  MiniFlow f;
  EXPECT_EQ(f.first.components, 3u);
  EXPECT_EQ(f.first.built, 3u);

  const ComposedDesign& composed = f.first.design;
  const PreImplReport& report = f.first.report;

  EXPECT_TRUE(report.macro.success);
  EXPECT_TRUE(report.route.success);
  EXPECT_GT(report.timing.fmax_mhz, 50.0);
  EXPECT_GT(report.slowest_component_mhz, 0.0);
  // The composed design cannot beat its slowest component (paper Sec. V-E).
  EXPECT_LE(report.timing.fmax_mhz, report.slowest_component_mhz + 1.0);
  EXPECT_TRUE(composed.netlist.validate().empty());
  EXPECT_EQ(composed.instances.size(), 3u);

  // Functional equivalence after placement, relocation and routing.
  const Tensor input = random_tensor(2, 8, 8, 901);
  const auto expected = reference_inference(f.model, input);
  Simulator sim(composed.netlist);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(Flows, LockedComponentRoutesSurviveComposition) {
  MiniFlow f;
  // Snapshot one checkpoint's internal routes.
  const std::string key = group_signature(f.model, f.impl, f.groups[0]);
  const auto cp = f.store.get(key, f.device);
  ASSERT_NE(cp, nullptr);
  std::size_t locked_edges = 0;
  for (const RouteInfo& route : cp->phys.routes) locked_edges += route.edges.size();

  const ComposedDesign& composed = f.first.design;
  ASSERT_TRUE(f.first.report.route.success);

  // Instance 0's nets keep at least the locked edges (translated), and the
  // relative geometry of the first route is preserved.
  const auto& inst = composed.instances[0];
  std::size_t edges_after = 0;
  for (NetId n = inst.net_begin; n < inst.net_end; ++n) {
    edges_after += composed.phys.routes[n].edges.size();
  }
  EXPECT_GE(edges_after, locked_edges);
}

TEST(Flows, MonolithicBaselineCompletesAndIsSlower) {
  MiniFlow f;
  // Time the online flow against a filled store, not right after the cold
  // builds, as a deployed flow would run. Each side's time is the minimum
  // of 3 runs, alternating the two flows, so a burst of host load during
  // one run cannot decide the comparison.
  PreImplReport pre;
  MonoReport mono;
  double pre_seconds = 0.0;
  double mono_seconds = 0.0;
  for (int run = 0; run < 3; ++run) {
    pre = f.compile().report;
    Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
    PhysState phys;
    mono = run_monolithic_flow(f.device, flat, phys);
    pre_seconds = run == 0 ? pre.total_seconds : std::min(pre_seconds, pre.total_seconds);
    mono_seconds = run == 0 ? mono.total_seconds : std::min(mono_seconds, mono.total_seconds);
  }

  EXPECT_TRUE(mono.route.success);
  EXPECT_GT(mono.timing.fmax_mhz, 0.0);
  // Paper headline claims on this substrate:
  // (1) higher Fmax for the pre-implemented flow,
  EXPECT_GT(pre.timing.fmax_mhz, mono.timing.fmax_mhz);
  // (2) productivity: the online architecture-optimization stage is much
  //     faster than the monolithic implementation,
  EXPECT_LT(pre_seconds, mono_seconds);
  // (3) resources: phys-opt register insertion/replication can only grow
  //     the classic flow's footprint.
  EXPECT_GE(mono.stats.resources.ff, pre.stats.resources.ff);
  EXPECT_GE(mono.stats.resources.lut, pre.stats.resources.lut);
  EXPECT_EQ(mono.stats.resources.dsp, pre.stats.resources.dsp);
}

TEST(Flows, ComponentMatchingFailsWithoutDatabase) {
  MiniFlow f;
  ComposedDesign composed;
  EXPECT_THROW(
      run_preimpl_cnn(f.device, f.model, f.impl, f.groups, kNoComponents, composed),
      std::runtime_error);
}

TEST(Flows, DatabaseReuseSkipsReimplementation) {
  MiniFlow f;
  // Second compile: every component is already in the store.
  const CompileService::SessionResult again = f.compile();
  EXPECT_EQ(again.built, 0u);
  EXPECT_EQ(again.store_hits, again.components);
}

TEST(Flows, ReplicatedComponentsShareOneCheckpoint) {
  const Device device = make_xcku5p_sim();
  // Two identical FC layers (8 -> 8): one checkpoint, two instances.
  const CnnModel model = parse_arch_def(R"(network twins
input 8 1 1
fc f1 out=8
fc f2 out=8
)");
  ModelImpl impl = choose_implementation(model, 8);
  // Identical configs require identical weight storage for reuse; the
  // paper's replicated components stream coefficients for the same reason.
  impl.layers[1].materialize = false;
  impl.layers[2].materialize = false;
  impl.layers[1].ic_par = impl.layers[2].ic_par;
  impl.layers[1].oc_par = impl.layers[2].oc_par;
  const auto groups = default_grouping(model);
  ASSERT_EQ(group_signature(model, impl, groups[0]),
            group_signature(model, impl, groups[1]));
  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  EXPECT_EQ(session.built, 1u);  // implemented exactly once (the reuse claim)
  EXPECT_EQ(session.components, 1u);

  const ComposedDesign& composed = session.design;
  EXPECT_TRUE(session.report.macro.success);
  EXPECT_EQ(composed.instances.size(), 2u);
  // Relocation must place the two copies at non-overlapping anchors.
  EXPECT_FALSE(composed.instances[0].footprint.overlaps(composed.instances[1].footprint));
}

TEST(Flows, StitchIsSmallShareOfArchitectureOptimization) {
  MiniFlow f;
  // Paper: stitching is 5-9% of the flow; allow a loose upper bound here.
  // The share is read from the fastest of 3 warm compiles, so a burst of
  // host load during one run cannot decide it.
  PreImplReport fastest = f.compile().report;
  for (int run = 1; run < 3; ++run) {
    PreImplReport report = f.compile().report;
    if (report.total_seconds < fastest.total_seconds) fastest = std::move(report);
  }
  EXPECT_LT(fastest.stitch_fraction(), 0.6);
}

TEST(Flows, PreImplLeNetFinishesDrcClean) {
  // LeNet-5 through the full pre-implemented pipeline: every DRC gate
  // (post-compose, post-placement, post-routing) must report zero errors.
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 16);
  const auto groups = default_grouping(model);
  CheckpointStore store;
  CompileService service(device, store);
  const PreImplReport report = service.compile(model, impl, groups).report;
  EXPECT_TRUE(report.route.success);
  EXPECT_TRUE(report.drc_compose.clean()) << report.drc_compose.to_string();
  EXPECT_TRUE(report.drc_place.clean()) << report.drc_place.to_string();
  EXPECT_TRUE(report.drc.clean()) << report.drc.to_string();
  EXPECT_GT(report.drc.rules_run(), 0u);
  EXPECT_GE(report.drc_seconds, 0.0);
}

/// The monolithic baseline's QoR beyond Fmax: what flat SA placement,
/// full routing and phys-opt produce. The flow's placement, routing and
/// phys-opt constants all feed these numbers.
struct MonoQor {
  std::int64_t lut, ff, dsp, bram;
  std::size_t inserted_ffs, replicated_drivers;
  double wirelength;
};

void expect_mono_qor(const MonoReport& mono, const MonoQor& pin) {
  EXPECT_EQ(mono.stats.resources.lut, pin.lut);
  EXPECT_EQ(mono.stats.resources.ff, pin.ff);
  EXPECT_EQ(mono.stats.resources.dsp, pin.dsp);
  EXPECT_EQ(mono.stats.resources.bram, pin.bram);
  EXPECT_EQ(mono.inserted_ffs, pin.inserted_ffs);
  EXPECT_EQ(mono.replicated_drivers, pin.replicated_drivers);
  EXPECT_DOUBLE_EQ(mono.route.total_wirelength, pin.wirelength);
}

TEST(Flows, LenetQorIsPinned) {
  // The configuration examples/lenet_accelerator reports (paper Table III).
  // Pinned so the printed Fmax gain (1.23x) cannot drift silently: a change
  // that moves these numbers on purpose re-pins them here and updates
  // EXPERIMENTS.md Table III with the new printed gain.
  ServiceFlow f(make_lenet5(), 144);
  const PreImplReport& pre = f.first.report;
  EXPECT_NEAR(pre.timing.fmax_mhz, 129.8686, 1e-3);
  EXPECT_EQ(design_fingerprint(f.first.design), "d057df5922a9a2e974c29bd96c4e06aa");

  Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(f.device, flat, phys);
  EXPECT_NEAR(mono.timing.fmax_mhz, 105.3344, 1e-3);
  expect_mono_qor(mono, {7050, 1342, 72, 145, 0, 0, 12324.0});
  // The paper's verdicts: a real Fmax gain, bounded by the slowest component.
  EXPECT_GT(pre.timing.fmax_mhz, mono.timing.fmax_mhz);
  EXPECT_LE(pre.timing.fmax_mhz, pre.slowest_component_mhz);
}

TEST(Flows, MonolithicLeNetFinishesDrcClean) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 16);
  const auto groups = default_grouping(model);

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(device, flat, phys);
  EXPECT_TRUE(mono.route.success);
  EXPECT_TRUE(mono.drc_place.clean()) << mono.drc_place.to_string();
  EXPECT_TRUE(mono.drc.clean()) << mono.drc.to_string();
  EXPECT_GT(mono.drc.rules_run(), 0u);
}

TEST(Flows, GateStageSetsArePinned) {
  // Every DRC gate always runs at its stage mask: structural (5 rules)
  // after compose, + placement (10) after relocation or SA placement,
  // + routing (14) after routing. fpgalint over either flow's final
  // netlist runs all 9 of its rules and finds no error.
  MiniFlow f;
  const CompileService::SessionResult session = f.compile();
  const PreImplReport& pre = session.report;
  EXPECT_EQ(pre.drc_compose.rules_run(), 5u);
  EXPECT_EQ(pre.drc_place.rules_run(), 10u);
  EXPECT_EQ(pre.drc.rules_run(), 14u);
  const FindingsReport pre_lint =
      lint::run(session.design.netlist, {}, session.design.instances);
  EXPECT_EQ(pre_lint.rules_run(), 9u);
  EXPECT_TRUE(pre_lint.clean()) << pre_lint.to_string();

  Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(f.device, flat, phys);
  EXPECT_EQ(mono.drc_place.rules_run(), 10u);
  EXPECT_EQ(mono.drc.rules_run(), 14u);
  const FindingsReport mono_lint = lint::run(flat);
  EXPECT_EQ(mono_lint.rules_run(), 9u);
  EXPECT_TRUE(mono_lint.clean()) << mono_lint.to_string();
}

struct ResblockFlow : ServiceFlow {
  ResblockFlow() : ServiceFlow(make_resblock_net(), 16) {}
};

TEST(Flows, ResblockPreImplEndToEndBitMatchesGolden) {
  // The branching tentpole: conv -> {identity skip, conv-conv} -> add ->
  // pool+relu -> fc through compose, relocation placement and routing,
  // with a stream fork on the skip connection. Every DRC gate must be
  // clean and the composed simulation bit-exact against the golden DFG.
  ResblockFlow f;
  // 6 group components (c1, c2a, c2b, add1, p1+relu, f1) + the 2-way fork.
  EXPECT_EQ(f.first.components, 7u);
  ASSERT_NE(f.store.get(fork_signature(2), f.device), nullptr);

  const ComposedDesign& composed = f.first.design;
  const PreImplReport& report = f.first.report;
  EXPECT_TRUE(report.macro.success);
  EXPECT_TRUE(report.route.success);
  EXPECT_TRUE(report.drc_compose.clean()) << report.drc_compose.to_string();
  EXPECT_TRUE(report.drc_place.clean()) << report.drc_place.to_string();
  EXPECT_TRUE(report.drc.clean()) << report.drc.to_string();
  EXPECT_EQ(composed.instances.size(), 7u);
  // The DFG macro-nets cover all 7 stream edges (c1->fork, fork->c2a,
  // fork->add1, c2a->c2b, c2b->add1, add1->p1, p1->f1).
  EXPECT_EQ(composed.macro_nets.size(), 7u);

  const Tensor input = testhelpers::random_tensor(2, 8, 8, 905);
  const auto expected = reference_inference(f.model, input);
  Simulator sim(composed.netlist);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(Flows, ResblockMonolithicBaselineBitMatchesGolden) {
  ResblockFlow f;
  Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
  EXPECT_TRUE(flat.validate().empty());
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(f.device, flat, phys);
  EXPECT_TRUE(mono.route.success);
  EXPECT_TRUE(mono.drc_place.clean()) << mono.drc_place.to_string();
  EXPECT_TRUE(mono.drc.clean()) << mono.drc.to_string();
  // The baseline's QoR, pinned like LeNet's in LenetQorIsPinned.
  EXPECT_NEAR(mono.timing.fmax_mhz, 139.5771, 1e-3);
  expect_mono_qor(mono, {4917, 1141, 15, 40, 0, 0, 5463.0});

  const Tensor input = testhelpers::random_tensor(2, 8, 8, 906);
  const auto expected = reference_inference(f.model, input);
  Simulator sim(flat);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(Flows, ResblockMatchingErrorNamesTheGroupLayers) {
  ResblockFlow f;
  ComposedDesign composed;
  try {
    run_preimpl_cnn(f.device, f.model, f.impl, f.groups, kNoComponents, composed);
    FAIL() << "expected component matching to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // The first unmatched group is c1: the message must name the layer and
    // its kind, not just the opaque signature.
    EXPECT_NE(what.find("c1 (conv)"), std::string::npos) << what;
    EXPECT_NE(what.find("CompileService::compile"), std::string::npos) << what;
  }
}

/// One LUT driving 64 registers, more than phys-opt's replication fanout
/// (48), so driver replication must fire.
Netlist wide_fanout_netlist() {
  NetlistBuilder b("fanout");
  const NetId driver = b.xor2(b.in_port("a", 8), b.in_port("b", 8), 8);
  std::vector<NetId> regs;
  for (int i = 0; i < 64; ++i) {
    regs.push_back(b.ff(driver, kInvalidNet, 8, "r" + std::to_string(i)));
  }
  b.out_port("sum", b.adder_tree(regs, 8));
  return std::move(b).take();
}

TEST(Flows, PhysOptReplicatesAWideFanoutDriver) {
  const Device device = make_xcku5p_sim();
  Netlist netlist = wide_fanout_netlist();
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(device, netlist, phys);
  EXPECT_GE(mono.replicated_drivers, 1u);
  EXPECT_TRUE(mono.route.success);
  EXPECT_TRUE(mono.drc.clean()) << mono.drc.to_string();
}

TEST(Flows, PhysOptCanBeDisabled) {
  const Device device = make_xcku5p_sim();
  Netlist netlist = wide_fanout_netlist();
  const ResourceVec before = netlist.stats().resources;
  PhysState phys;
  MonoOptions opt;
  opt.phys_opt = false;
  const MonoReport mono = run_monolithic_flow(device, netlist, phys, opt);
  EXPECT_EQ(mono.inserted_ffs, 0u);
  EXPECT_EQ(mono.replicated_drivers, 0u);
  EXPECT_EQ(mono.stats.resources, before);
}

}  // namespace
}  // namespace fpgasim
