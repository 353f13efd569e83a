// Compiled-vs-interpreter A/B equivalence: the interpreter is the oracle
// (sim/eval.h semantics contract), the compiled bit-parallel simulator
// must be bit-identical on every output, every cycle, every lane — on
// hand-built corner netlists, randomized synthetic netlists, and the real
// LeNet / VGG-16 / resblock designs through both flows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "sim/compiled.h"
#include "stream_harness.h"
#include "synth/builder.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

using testhelpers::random_tensor;
using testhelpers::run_stream;
using testhelpers::run_stream_batch;

// ---------------------------------------------------------------------------
// Randomized synthetic netlists: every primitive kind, random widths,
// random connectivity.

Netlist random_netlist(std::uint64_t seed) {
  Rng rng(seed);
  NetlistBuilder b("fuzz" + std::to_string(seed));
  std::vector<NetId> pool;

  const int n_inputs = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n_inputs; ++i) {
    const auto width = static_cast<std::uint16_t>(1 + rng.next_below(24));
    pool.push_back(b.in_port("in" + std::to_string(i), width));
  }
  const auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  const auto rand_width = [&] { return static_cast<std::uint16_t>(1 + rng.next_below(24)); };

  const int n_ops = 24 + static_cast<int>(rng.next_below(40));
  for (int i = 0; i < n_ops; ++i) {
    const std::uint16_t w = rand_width();
    NetId out = kInvalidNet;
    switch (rng.next_below(16)) {
      case 0: out = b.op2(LutOp::kAnd, pick(), pick(), w); break;
      case 1: out = b.op2(LutOp::kOr, pick(), pick(), w); break;
      case 2: out = b.op2(LutOp::kXor, pick(), pick(), w); break;
      case 3: out = b.not1(pick(), w); break;
      case 4: out = b.mux2(pick(), pick(), b.bit(pick(), 0), w); break;
      case 5: out = rng.next_below(2) != 0 ? b.eq(pick(), pick()) : b.ltu(pick(), pick()); break;
      case 6: out = rng.next_below(2) != 0 ? b.add(pick(), pick(), w) : b.sub(pick(), pick(), w); break;
      case 7: out = b.smax(pick(), pick(), w); break;
      case 8: out = b.relu(pick(), w); break;
      case 9:
        // DSP widths stay <= 24 so sext(a)*sext(b) cannot overflow int64.
        out = b.dsp(pick(), pick(), rng.next_below(2) != 0 ? pick() : kInvalidNet,
                    static_cast<int>(rng.next_below(9)), static_cast<int>(rng.next_below(4)),
                    w);
        break;
      case 10:
        out = b.ff(pick(), rng.next_below(2) != 0 ? b.bit(pick(), 0) : kInvalidNet, w);
        break;
      case 11:
        out = b.srl(pick(), rng.next_below(2) != 0 ? b.bit(pick(), 0) : kInvalidNet,
                    static_cast<std::uint16_t>(1 + rng.next_below(6)), w);
        break;
      case 12: {
        const std::uint32_t depth = 4 + static_cast<std::uint32_t>(rng.next_below(12));
        if (rng.next_below(2) != 0) {
          std::vector<std::uint64_t> words(depth);
          for (auto& word : words) word = rng();
          out = b.bram(pick(), kInvalidNet, kInvalidNet, depth, w, b.rom(std::move(words)));
        } else {
          out = b.bram(pick(), pick(), b.bit(pick(), 0), depth, w, -1, {},
                       rng.next_below(2) != 0 ? pick() : kInvalidNet);
        }
        break;
      }
      case 13: {
        const auto ctr =
            b.counter(1 + static_cast<std::uint32_t>(rng.next_below(9)), b.bit(pick(), 0), w);
        out = rng.next_below(2) != 0 ? ctr.value : ctr.wrap;
        break;
      }
      case 14: out = b.accum(pick(), b.bit(pick(), 0), b.bit(pick(), 0), w); break;
      case 15: {
        std::vector<NetId> choices;
        const std::size_t n = 3 + rng.next_below(3);
        for (std::size_t j = 0; j < n; ++j) choices.push_back(pick());
        out = b.muxn(choices, pick(), w);
        break;
      }
    }
    pool.push_back(out);
  }

  const int n_outputs = 3 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n_outputs; ++i) {
    // Bias toward recent nets so deep logic stays observable.
    const NetId net = pool[pool.size() - 1 - rng.next_below(pool.size() / 2)];
    b.out_port("out" + std::to_string(i), net);
  }
  return std::move(b).take();
}

TEST(CompiledSim, RandomNetlistFuzzMatchesInterpreter) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist nl = random_netlist(seed);
    ASSERT_TRUE(nl.validate().empty()) << "seed " << seed;
    const std::string diff = compare_compiled_vs_interpreter(nl, 48, 7000 + seed);
    EXPECT_EQ(diff, "") << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Hand-built corners the generators never produce.

TEST(CompiledSim, MultiOutputCellsFanOutInBothSimulators) {
  Netlist nl("mo");
  const NetId a = nl.add_net(8, "a");
  nl.add_port({"a", PortDir::kInput, 8, a});
  const NetId q0 = nl.add_net(8, "q0");
  const NetId q1 = nl.add_net(8, "q1");
  Cell pass;
  pass.type = CellType::kLut;
  pass.op = LutOp::kPass;
  pass.width = 8;
  const CellId c = nl.add_cell(std::move(pass));
  nl.connect_input(c, 0, a);
  nl.connect_output(c, 0, q0);
  nl.connect_output(c, 1, q1);
  const NetId f0 = nl.add_net(8, "f0");
  const NetId f1 = nl.add_net(8, "f1");
  Cell ff;
  ff.type = CellType::kFf;
  ff.width = 8;
  const CellId fc = nl.add_cell(std::move(ff));
  nl.connect_input(fc, 0, q1);
  nl.connect_output(fc, 0, f0);
  nl.connect_output(fc, 1, f1);
  nl.add_port({"q0", PortDir::kOutput, 8, q0});
  nl.add_port({"q1", PortDir::kOutput, 8, q1});
  nl.add_port({"f0", PortDir::kOutput, 8, f0});
  nl.add_port({"f1", PortDir::kOutput, 8, f1});
  ASSERT_TRUE(nl.validate().empty());
  EXPECT_EQ(compare_compiled_vs_interpreter(nl, 16, 42), "");
}

TEST(CompiledSim, WideWidthCellsAreDefinedAndMatch) {
  // Widths 63/64 exercise the clamp_signed / mask_width guards under the
  // sanitizer jobs in both evaluators.
  NetlistBuilder b("wide");
  const NetId a = b.in_port("a", 64);
  const NetId c = b.in_port("b", 63);
  b.out_port("p", b.dsp(a, c, kInvalidNet, 0, 1, 64));
  b.out_port("s", b.add(a, c, 64));
  b.out_port("m", b.smax(a, c, 63));
  const Netlist nl = std::move(b).take();
  EXPECT_EQ(compare_compiled_vs_interpreter(nl, 16, 43), "");
}

TEST(CompiledSim, BatchApiDrivesLanesIndependently) {
  NetlistBuilder b("lanes");
  const NetId x = b.in_port("x", 16);
  const NetId en = b.in_port("en", 1);
  b.out_port("acc", b.accum(x, en, b.zero(1), 16));
  const Netlist nl = std::move(b).take();
  CompiledSim sim(nl);
  const int x_in = sim.input_index("x");
  const int en_in = sim.input_index("en");
  const int acc_out = sim.output_index("acc");

  std::uint64_t xs[CompiledSim::kLanes];
  std::uint64_t ens[CompiledSim::kLanes];
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    xs[l] = l + 1;
    ens[l] = l % 2;  // odd lanes accumulate, even lanes hold
  }
  sim.set_inputs(x_in, xs);
  sim.set_inputs(en_in, ens);
  sim.run(5);
  std::uint64_t acc[CompiledSim::kLanes];
  sim.get_outputs(acc_out, acc);
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    EXPECT_EQ(acc[l], l % 2 == 1 ? 5 * (l + 1) : 0u) << "lane " << l;
  }
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_GT(sim.comb_ops(), 0u);
  EXPECT_GT(sim.levels(), 0u);
}

TEST(CompiledSim, DetectsCombinationalLoop) {
  Netlist nl("loop");
  const NetId n1 = nl.add_net(1);
  const NetId n2 = nl.add_net(1);
  Cell c1;
  c1.type = CellType::kLut;
  c1.op = LutOp::kNot;
  const CellId a = nl.add_cell(std::move(c1));
  Cell c2;
  c2.type = CellType::kLut;
  c2.op = LutOp::kNot;
  const CellId b2 = nl.add_cell(std::move(c2));
  nl.connect_input(a, 0, n2);
  nl.connect_output(a, 0, n1);
  nl.connect_input(b2, 0, n1);
  nl.connect_output(b2, 0, n2);
  EXPECT_THROW(CompiledSim sim(nl), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Real networks through both flows.

struct FlowPair {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  ComposedDesign composed;
  Netlist flat;

  explicit FlowPair(CnnModel m, long dsp_budget, int max_tile = 28) : model(std::move(m)) {
    impl = choose_implementation(model, dsp_budget, max_tile);
    groups = default_grouping(model);
    CheckpointStore store;
    CompileService service(device, store);
    composed = service.compile(model, impl, groups).design;
    flat = build_flat_netlist(model, impl, groups);
    PhysState phys;
    run_monolithic_flow(device, flat, phys);
  }
};

TEST(CompiledSim, LeNetBothFlowsMatchInterpreter) {
  FlowPair f(make_lenet5(), 16);
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 32, 1001), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 32, 1002), "");
}

TEST(CompiledSim, ResblockBothFlowsMatchInterpreter) {
  FlowPair f(make_resblock_net(), 16);
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 32, 1003), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 32, 1004), "");
}

TEST(CompiledSim, Vgg16BothFlowsMatchInterpreter) {
  // Bounded random stimulus, sampled lanes: the full interpreter replay of
  // all 64 lanes on VGG is exactly the cost this simulator exists to avoid.
  FlowPair f(make_vgg16(), 384, 14);
  const std::vector<int> lanes{0, 13, 37, 63};
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 12, 1005, lanes), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 12, 1006, lanes), "");
}

TEST(CompiledSim, ResblockBatchInferenceBitMatchesGoldenAndInterpreter) {
  // 64 different input tensors at once through the composed resblock; every
  // lane must reproduce the golden DFG reference, and lane 17 is replayed
  // through the interpreter's stream harness as the oracle spot-check.
  FlowPair f(make_resblock_net(), 16);
  std::vector<std::vector<Fixed16>> inputs(CompiledSim::kLanes);
  std::vector<std::vector<Fixed16>> expected(CompiledSim::kLanes);
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 2000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(f.model, t);
  }
  CompiledSim cs(f.composed.netlist);
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    ASSERT_EQ(out[l].size(), expected[l].size());
    for (std::size_t i = 0; i < out[l].size(); ++i) {
      ASSERT_EQ(out[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }

  Simulator sim(f.composed.netlist);
  const Tensor t17 = random_tensor(2, 8, 8, 2000 + 17);
  const auto interp = run_stream(sim, t17.data, expected[17].size());
  testhelpers::expect_tensor_eq(interp, out[17]);
}

TEST(CompiledSim, MiniChainBatchInferenceMatchesGolden) {
  // The small conv->pool+relu->conv chain from the flow tests, flat
  // (monolithic) this time, full inference on all 64 lanes.
  const CnnModel model = parse_arch_def(R"(network mini
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=2 k=3
)");
  const ModelImpl impl = choose_implementation(model, 12);
  const auto groups = default_grouping(model);
  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState phys;
  const Device device = make_xcku5p_sim();
  run_monolithic_flow(device, flat, phys);

  std::vector<std::vector<Fixed16>> inputs(CompiledSim::kLanes);
  std::vector<std::vector<Fixed16>> expected(CompiledSim::kLanes);
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 3000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(model, t);
  }
  CompiledSim cs(flat);
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < CompiledSim::kLanes; ++l) {
    ASSERT_EQ(out[l].size(), expected[l].size());
    for (std::size_t i = 0; i < out[l].size(); ++i) {
      ASSERT_EQ(out[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }
}

}  // namespace
}  // namespace fpgasim
