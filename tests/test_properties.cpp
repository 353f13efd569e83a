// Cross-module property tests: determinism of every CAD stage under a
// fixed seed, and end-to-end integrity of the checkpoint store when it
// round-trips through disk before composition.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "stream_harness.h"

namespace fpgasim {
namespace {

using testhelpers::expect_tensor_eq;
using testhelpers::random_tensor;
using testhelpers::run_stream;

CnnModel tiny_model() {
  return parse_arch_def(R"(network prop
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
)");
}

TEST(Determinism, OocFlowIsSeedStable) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  OocOptions opt;
  opt.seed = 77;
  Netlist a = build_group_netlist(model, impl, groups[0]);
  Netlist b = build_group_netlist(model, impl, groups[0]);
  const OocResult ra = implement_ooc(device, std::move(a), opt);
  const OocResult rb = implement_ooc(device, std::move(b), opt);
  EXPECT_DOUBLE_EQ(ra.timing.fmax_mhz, rb.timing.fmax_mhz);
  EXPECT_EQ(ra.checkpoint.pblock, rb.checkpoint.pblock);
  EXPECT_EQ(ra.checkpoint.phys.cell_loc, rb.checkpoint.phys.cell_loc);
}

TEST(Determinism, PreImplFlowIsSeedStable) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  CheckpointStore store;
  CompileService service(device, store);
  const PreImplReport r1 = service.compile(model, impl, groups).report;
  const PreImplReport r2 = service.compile(model, impl, groups).report;
  EXPECT_DOUBLE_EQ(r1.timing.fmax_mhz, r2.timing.fmax_mhz);
  EXPECT_EQ(r1.macro.offsets, r2.macro.offsets);
}

TEST(Determinism, MonolithicFlowIsSeedStable) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  Netlist f1 = build_flat_netlist(model, impl, groups);
  Netlist f2 = build_flat_netlist(model, impl, groups);
  PhysState p1, p2;
  const MonoReport r1 = run_monolithic_flow(device, f1, p1);
  const MonoReport r2 = run_monolithic_flow(device, f2, p2);
  EXPECT_DOUBLE_EQ(r1.timing.fmax_mhz, r2.timing.fmax_mhz);
  EXPECT_EQ(p1.cell_loc, p2.cell_loc);
}

TEST(Integration, DatabaseDiskRoundTripComposesAndSimulates) {
  // Build the components into a persistent store, reopen the directory in
  // a fresh store, run the architecture optimization from the reloaded
  // checkpoints, and prove the composed accelerator still computes the
  // network bit-exactly.
  const std::string dir = testing::TempDir() + "/prop_db";
  std::filesystem::remove_all(dir);
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  StoreOptions store_opt;
  store_opt.dir = dir;

  {
    CheckpointStore store(store_opt);
    CompileService service(device, store);
    ASSERT_EQ(service.compile(model, impl, groups).built, groups.size());
  }
  CheckpointStore reloaded(store_opt);
  ASSERT_EQ(reloaded.stats().entries, groups.size());
  CompileService service(device, reloaded);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  EXPECT_EQ(session.built, 0u);
  EXPECT_EQ(reloaded.stats().disk_loads, groups.size());

  const ComposedDesign& composed = session.design;
  ASSERT_TRUE(session.report.route.success);
  ASSERT_TRUE(composed.netlist.validate().empty());

  const Tensor input = random_tensor(2, 8, 8, 555);
  const auto expected = reference_inference(model, input);
  Simulator sim(composed.netlist);
  const auto out = run_stream(sim, input.data, expected.size());
  expect_tensor_eq(out, expected);
  std::filesystem::remove_all(dir);
}

TEST(Property, ArchDefRoundTripIsIdentity) {
  // parse_arch_def(to_arch_def(m)) == m for every model we can build —
  // linear chains, branching DFGs with explicit from= edges, and models
  // that already went through one round trip (idempotence).
  const std::vector<CnnModel> models = {
      make_lenet5(),
      make_resblock_net(),
      tiny_model(),
      parse_arch_def(R"(network inception
input 3 8 8
conv stem out=4 k=3
conv b1 out=2 k=1 from=stem
conv b2 out=6 k=1 from=stem
concat cat from=b1,b2 relu
fc head out=4
)"),
  };
  for (const CnnModel& model : models) {
    const std::string text = to_arch_def(model);
    CnnModel again = parse_arch_def(text);
    again.infer_shapes();
    EXPECT_EQ(again, model) << "round trip changed '" << model.name() << "':\n" << text;
    // Idempotence: a second trip emits byte-identical text.
    EXPECT_EQ(to_arch_def(again), text) << model.name();
  }
}

/// Randomized legal-construction model generator covering every layer
/// kind: linear stretches of conv / dwconv / pool / avgpool / gavgpool /
/// upsample / relu / fc interleaved with branch-and-join motifs (add on
/// matching 1x1-conv branches, concat on mismatched ones). Moves are
/// drawn only from the kinds legal for the current shape, so every
/// generated model passes infer_shapes.
CnnModel random_model(std::uint64_t seed) {
  Rng rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng.next_int(lo, hi));
  };
  const auto coin = [&rng] { return rng.next_below(2) == 0; };
  CnnModel model("rand" + std::to_string(seed));
  int c = pick(1, 4);
  int h = pick(4, 12);
  int w = pick(4, 12);
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{c, h, w}});
  int next_id = 0;
  const auto fresh = [&next_id] { return std::string("l").append(std::to_string(next_id++)); };
  const auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };

  const int steps = pick(3, 8);
  for (int step = 0; step < steps; ++step) {
    std::vector<int> moves = {0, 7};                   // conv and fc always apply
    if (std::min(h, w) >= 1) moves.push_back(1);       // dwconv (k >= 1)
    if (h % 2 == 0 && w % 2 == 0) moves.push_back(2);  // pool k=2
    if (h % 2 == 0 && w % 2 == 0) moves.push_back(3);  // avgpool k=2 (window 4)
    if (pow2(h * w) && h * w <= 256) moves.push_back(4);  // gavgpool
    if (h * 2 <= 16 && w * 2 <= 16) moves.push_back(5);   // upsample
    moves.push_back(6);                                   // standalone relu
    if (h >= 1 && w >= 1) moves.push_back(8);             // branch + join
    const int move = moves[static_cast<std::size_t>(pick(0, static_cast<int>(moves.size()) - 1))];
    const bool relu = coin();
    switch (move) {
      case 0: {  // conv
        const int k = pick(1, std::min(3, std::min(h, w)));
        const int s = (h - k >= 1 && w - k >= 1 && coin()) ? 2 : 1;
        const int out = pick(1, 6);
        model.add(Layer{.kind = LayerKind::kConv, .name = fresh(), .kernel = k,
                        .stride = s, .out_c = out, .fuse_relu = relu});
        c = out;
        h = (h - k) / s + 1;
        w = (w - k) / s + 1;
        break;
      }
      case 1: {  // dwconv
        const int k = pick(1, std::min(3, std::min(h, w)));
        const int s = (h - k >= 1 && w - k >= 1 && coin()) ? 2 : 1;
        model.add(Layer{.kind = LayerKind::kDwConv, .name = fresh(), .kernel = k,
                        .stride = s, .fuse_relu = relu});
        h = (h - k) / s + 1;
        w = (w - k) / s + 1;
        break;
      }
      case 2:  // max pool
        model.add(Layer{.kind = LayerKind::kPool, .name = fresh(), .kernel = 2,
                        .fuse_relu = relu});
        h /= 2;
        w /= 2;
        break;
      case 3:  // average pool
        model.add(Layer{.kind = LayerKind::kAvgPool, .name = fresh(), .kernel = 2,
                        .fuse_relu = relu});
        h /= 2;
        w /= 2;
        break;
      case 4:  // global average pool
        model.add(Layer{.kind = LayerKind::kGlobalAvgPool, .name = fresh(),
                        .fuse_relu = relu});
        h = w = 1;
        break;
      case 5:  // nearest-neighbour upsample
        model.add(Layer{.kind = LayerKind::kUpsample, .name = fresh(), .kernel = 2,
                        .fuse_relu = relu});
        h *= 2;
        w *= 2;
        break;
      case 6:  // standalone activation
        model.add(Layer{.kind = LayerKind::kRelu, .name = fresh()});
        break;
      case 7: {  // fully connected (flattens)
        const int out = pick(1, 8);
        model.add(Layer{.kind = LayerKind::kFc, .name = fresh(), .out_c = out,
                        .fuse_relu = relu});
        c = out;
        h = w = 1;
        break;
      }
      case 8: {  // branch from the current tail, re-join with add or concat
        const int base = static_cast<int>(model.layers().size()) - 1;
        const bool use_add = coin();
        const int c1 = pick(1, 6);
        const int c2 = use_add ? c1 : pick(1, 6);
        const int b1 = model.add(Layer{.kind = LayerKind::kConv, .name = fresh(),
                                       .kernel = 1, .out_c = c1, .fuse_relu = coin(),
                                       .inputs = {base}});
        const int b2 = model.add(Layer{.kind = LayerKind::kConv, .name = fresh(),
                                       .kernel = 1, .out_c = c2, .inputs = {base}});
        model.add(Layer{.kind = use_add ? LayerKind::kAdd : LayerKind::kConcat,
                        .name = fresh(), .fuse_relu = relu, .inputs = {b1, b2}});
        c = use_add ? c1 : c1 + c2;
        break;
      }
    }
  }
  model.infer_shapes();
  return model;
}

TEST(Property, RandomizedAllKindDfgRoundTripIsIdentity) {
  // parse_arch_def(to_arch_def(m)) == m over randomized DFGs drawn from
  // every registered layer kind (the registry's emit and parse_check
  // functors are exact inverses), plus emission idempotence.
  std::set<int> kinds_seen;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const CnnModel model = random_model(seed);
    for (const Layer& layer : model.layers()) {
      kinds_seen.insert(static_cast<int>(layer.kind));
    }
    const std::string text = to_arch_def(model);
    CnnModel again = parse_arch_def(text);
    again.infer_shapes();
    EXPECT_EQ(again, model) << "seed " << seed << " round trip changed:\n" << text;
    EXPECT_EQ(to_arch_def(again), text) << "seed " << seed;
  }
  // 30 seeds must exercise the whole registry, or the property is weaker
  // than it claims.
  EXPECT_EQ(kinds_seen.size(), static_cast<std::size_t>(kLayerKindCount));
}

TEST(Property, ArchDefErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* needle;  // expected fragment of the message
  };
  const std::vector<Case> cases = {
      {"network x\ninput 1 4 4\nwarp w\n", "line 3"},             // unknown keyword
      {"network x\ninput 1 4 4\nconv c out=1 k=1 from=no\n", "line 3"},  // bad from=
      {"network x\ninput 1 4 4\nconv c out=1 k=1\nconv c out=1 k=1\n",
       "line 4"},                                                 // duplicate name
      {"network x\ninput 1 4 4\nadd j from=in\n", "line 3"},      // 1-input join
  };
  for (const Case& c : cases) {
    try {
      parse_arch_def(c.text);
      FAIL() << "expected parse error for:\n" << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << c.needle << "'";
    }
  }
}

TEST(Integration, ArchDefDrivesIdenticalResultToProgrammaticModel) {
  // The textual architecture definition and a programmatic model of the
  // same network must produce identical component signatures (and thus
  // share the checkpoint database).
  CnnModel programmatic("prop");
  programmatic.add(
      Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{2, 8, 8}});
  programmatic.add(Layer{.kind = LayerKind::kConv, .name = "c1", .kernel = 3, .out_c = 4});
  programmatic.add(
      Layer{.kind = LayerKind::kPool, .name = "p1", .kernel = 2, .fuse_relu = true});
  programmatic.infer_shapes();

  const CnnModel parsed = tiny_model();
  const ModelImpl ia = choose_implementation(programmatic, 8);
  const ModelImpl ib = choose_implementation(parsed, 8);
  const auto ga = default_grouping(programmatic);
  const auto gb = default_grouping(parsed);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_EQ(group_signature(programmatic, ia, ga[i]),
              group_signature(parsed, ib, gb[i]));
  }
}

TEST(Integration, RelocatedCheckpointStaysWithinDevice) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  CheckpointStore store;
  CompileService service(device, store);
  const ComposedDesign composed = service.compile(model, impl, groups).design;
  for (const auto& inst : composed.instances) {
    EXPECT_GE(inst.footprint.x0, 0);
    EXPECT_LT(inst.footprint.x1, device.width());
    EXPECT_GE(inst.footprint.y0, 0);
    EXPECT_LT(inst.footprint.y1, device.height());
    for (CellId c = inst.cell_begin; c < inst.cell_end; ++c) {
      const TileCoord loc = composed.phys.cell_loc[c];
      EXPECT_TRUE(inst.footprint.contains(loc.x, loc.y));
    }
  }
  // Instances never overlap after relocation.
  for (std::size_t i = 0; i < composed.instances.size(); ++i) {
    for (std::size_t j = i + 1; j < composed.instances.size(); ++j) {
      EXPECT_FALSE(
          composed.instances[i].footprint.overlaps(composed.instances[j].footprint));
    }
  }
}

TEST(Integration, RouterRespectsCapacityOnComposedDesign) {
  const Device device = make_xcku5p_sim();
  const CnnModel model = tiny_model();
  const ModelImpl impl = choose_implementation(model, 8);
  const auto groups = default_grouping(model);
  CheckpointStore store;
  CompileService service(device, store);
  const PreImplReport report = service.compile(model, impl, groups).report;
  EXPECT_EQ(report.route.max_overuse, 0) << "composed design left overused channels";
}

}  // namespace
}  // namespace fpgasim
