// Compiled-vs-interpreter A/B equivalence: the interpreter is the oracle
// (sim/eval.h semantics contract), the compiled bit-parallel simulator
// must be bit-identical on every output, every cycle, every lane — on
// hand-built corner netlists, randomized synthetic netlists, and the real
// LeNet / VGG-16 / resblock designs through both flows.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "sim/compiled.h"
#include "sim/engine/engine.h"
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
  SimContext sim(SimPlan::compile(nl));
  const int x_in = sim.plan().input_index("x");
  const int en_in = sim.plan().input_index("en");
  const int acc_out = sim.plan().output_index("acc");

  std::uint64_t xs[SimPlan::kLanes];
  std::uint64_t ens[SimPlan::kLanes];
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
    xs[l] = l + 1;
    ens[l] = l % 2;  // odd lanes accumulate, even lanes hold
  }
  sim.set_inputs(x_in, xs);
  sim.set_inputs(en_in, ens);
  sim.run(5);
  std::uint64_t acc[SimPlan::kLanes];
  sim.get_outputs(acc_out, acc);
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
    EXPECT_EQ(acc[l], l % 2 == 1 ? 5 * (l + 1) : 0u) << "lane " << l;
  }
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_GT(sim.plan().comb_ops(), 0u);
  EXPECT_GT(sim.plan().levels(), 0u);
}

// ---------------------------------------------------------------------------
// reset() equivalence, black-box: whatever a context wrote before reset(),
// afterwards it must be indistinguishable from a freshly constructed
// context — every address of every lane of every writable memory reads
// back the initial image, and the full net-state digest agrees.

// Writable BRAMs whose write address, data, enable and read address are
// all input ports, so the stimulus reaches every row of every lane
// independently. `wide` adds a 40-bit memory, which moves the whole design
// onto the 64-bit lane engine.
Netlist reset_fixture(bool wide) {
  NetlistBuilder b(wide ? "reset_wide" : "reset_narrow");
  struct Mem {
    std::uint32_t depth;
    std::uint16_t width;
    bool preloaded;
  };
  std::vector<Mem> mems{{37, 16, true}, {64, 12, false}, {19, 1, true}};
  if (wide) mems.push_back({23, 40, true});
  Rng rng(wide ? 77 : 55);
  for (std::size_t m = 0; m < mems.size(); ++m) {
    const Mem& mem = mems[m];
    const std::string k = std::to_string(m);
    const NetId waddr = b.in_port("waddr" + k, 8);
    const NetId wdata = b.in_port("wdata" + k, mem.width);
    const NetId we = b.in_port("we" + k, 1);
    const NetId raddr = b.in_port("raddr" + k, 8);
    std::int32_t rom_id = -1;
    if (mem.preloaded) {  // non-zero initial image, every row distinct
      std::vector<std::uint64_t> image(mem.depth);
      for (std::uint64_t& w : image) w = rng() | 1;
      rom_id = b.rom(std::move(image));
    }
    b.out_port("q" + k, b.bram(waddr, wdata, we, mem.depth, mem.width, rom_id, {}, raddr));
  }
  return std::move(b).take();
}

// Drives every input port of every lane from `value(port_name, lane)`,
// then steps one cycle.
template <typename F>
void step_with(SimContext& ctx, F value) {
  const SimPlan& plan = ctx.plan();
  std::vector<std::uint64_t> lanes(SimContext::kLanes);
  for (std::size_t i = 0; i < plan.input_count(); ++i) {
    const std::string& port = plan.input_name(i);
    for (std::size_t l = 0; l < lanes.size(); ++l) lanes[l] = value(port, l);
    ctx.set_inputs(static_cast<int>(i), lanes);
  }
  ctx.step();
}

// Write stimulus, `cycles` == 0 for the one-cycle diagonal: lane l writes
// address l of every memory, so each written row has exactly one writer
// lane. Otherwise random: each lane draws its own address (up to 71, so
// some fall past the end of a memory and must be dropped), data and
// enable (one cycle in 16), so lanes write different rows in the same
// cycle — over 32 cycles most rows keep their image, over 5000 every row
// is written by many lanes.
void drive_writes(SimContext& ctx, int cycles, std::uint64_t seed) {
  Rng rng(seed);
  if (cycles == 0) {
    step_with(ctx, [&](const std::string& port, std::size_t l) -> std::uint64_t {
      if (port.starts_with("we")) return 1;
      return port.starts_with("waddr") ? l : rng();
    });
    return;
  }
  for (int c = 0; c < cycles; ++c) {
    step_with(ctx, [&](const std::string& port, std::size_t) -> std::uint64_t {
      if (port.starts_with("we")) return rng.next_below(16) == 0 ? 1 : 0;
      return port.starts_with("waddr") || port.starts_with("raddr") ? rng.next_below(72)
                                                                     : rng();
    });
  }
}

// Reads back every address of every memory on every lane (lane l reads
// address (a + l) mod 72, so each lane sweeps every address, with writes
// disabled) and checks `ctx` against `fresh` after every read.
void expect_same_memories(SimContext& ctx, SimContext& fresh) {
  ASSERT_EQ(ctx.state_digest(), fresh.state_digest());
  const SimPlan& plan = ctx.plan();
  std::vector<std::uint64_t> got(SimContext::kLanes);
  std::vector<std::uint64_t> want(SimContext::kLanes);
  for (std::uint64_t a = 0; a < 72; ++a) {
    const auto read = [a](const std::string& port, std::size_t l) -> std::uint64_t {
      return port.starts_with("raddr") ? (a + l) % 72 : 0;
    };
    step_with(ctx, read);
    step_with(fresh, read);
    for (std::size_t o = 0; o < plan.output_count(); ++o) {
      ctx.get_outputs(static_cast<int>(o), got);
      fresh.get_outputs(static_cast<int>(o), want);
      ASSERT_EQ(got, want) << plan.output_name(o) << " read sweep " << a;
    }
    ASSERT_EQ(ctx.state_digest(), fresh.state_digest()) << "read sweep " << a;
  }
}

void check_reset_equivalence(const Netlist& nl, std::size_t lane_bytes) {
  ASSERT_TRUE(nl.validate().empty());
  const auto plan = SimPlan::compile(nl);
  ASSERT_EQ(plan->lane_bytes(), lane_bytes);
  SimContext ctx(plan);
  std::uint64_t seed = 900;
  for (const int cycles : {0, 32, 5000}) {
    SCOPED_TRACE(cycles == 0 ? std::string("one-cycle diagonal write")
                             : std::to_string(cycles) + " cycles of random writes");
    drive_writes(ctx, cycles, seed++);
    ctx.reset();
    SimContext fresh(plan);
    EXPECT_EQ(ctx.cycle(), 0u);
    expect_same_memories(ctx, fresh);
    // The read sweep itself advanced the context: reset again so the next
    // round starts from reset(), as a serving batch does.
    ctx.reset();
  }
}

TEST(CompiledSim, ResetRestoresEveryWrittenRowNarrow) {
  check_reset_equivalence(reset_fixture(false), 4);
}

TEST(CompiledSim, ResetRestoresEveryWrittenRowWide) {
  check_reset_equivalence(reset_fixture(true), 8);
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
  EXPECT_THROW(SimPlan plan(nl), std::runtime_error);
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

TEST(CompiledSim, ReplayCatchesEveryKindOfDivergence) {
  // Record lane 5 of a composed LeNet with every optional part of the
  // trace, then corrupt one recorded value of each kind.
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 16);
  CheckpointStore store;
  CompileService service(device, store);
  const Netlist nl = service.compile(model, impl, default_grouping(model)).design.netlist;
  const auto plan = SimPlan::compile(nl);
  const std::size_t ins = plan->input_count();
  const std::size_t outs = plan->output_count();
  ASSERT_GT(outs, 0u);
  constexpr std::size_t kLane = 5;

  LaneTrace trace;
  trace.cycles = 24;
  SimContext ctx(plan);
  Rng rng(77);
  std::vector<std::uint64_t> frame(ins * SimPlan::kLanes);
  for (int cycle = 0; cycle < trace.cycles; ++cycle) {
    for (std::uint64_t& v : frame) v = rng();
    ctx.set_input_frame(frame);
    for (std::size_t i = 0; i < ins; ++i) {
      trace.inputs.push_back(frame[i * SimPlan::kLanes + kLane]);
    }
    for (std::size_t o = 0; o < outs; ++o) {
      trace.pre_edge.push_back(ctx.get_output(static_cast<int>(o), kLane));
    }
    ctx.step();
    for (std::size_t o = 0; o < outs; ++o) {
      trace.outputs.push_back(ctx.get_output(static_cast<int>(o), kLane));
    }
  }
  for (std::size_t n = 0; n < plan->net_count(); ++n) {
    trace.nets.push_back(ctx.peek_net(static_cast<NetId>(n), kLane));
  }
  ASSERT_EQ(replay_lane(nl, *plan, trace), "");

  const int cycle = 9;
  const std::size_t port = outs - 1;
  const std::string port_text = " port '" + plan->output_name(port) + "'";
  {
    LaneTrace bad = trace;
    bad.outputs[static_cast<std::size_t>(cycle) * outs + port] ^= 1;
    const std::string diff = replay_lane(nl, *plan, bad);
    EXPECT_EQ(diff.rfind("cycle 9 post-edge" + port_text, 0), 0u) << diff;
  }
  {
    LaneTrace bad = trace;
    bad.pre_edge[static_cast<std::size_t>(cycle) * outs + port] ^= 1;
    const std::string diff = replay_lane(nl, *plan, bad);
    EXPECT_EQ(diff.rfind("cycle 9 pre-edge" + port_text, 0), 0u) << diff;
  }
  {
    LaneTrace bad = trace;
    const std::size_t net = bad.nets.size() / 2;
    bad.nets[net] ^= 1;
    const std::string diff = replay_lane(nl, *plan, bad);
    EXPECT_EQ(diff.rfind("net " + std::to_string(net) + " (end of run)", 0), 0u) << diff;
  }
  LaneTrace empty = trace;
  empty.cycles = 0;
  EXPECT_THROW(replay_lane(nl, *plan, empty), std::invalid_argument);
  EXPECT_THROW(compare_compiled_vs_interpreter(nl, 0, 1), std::invalid_argument);
  EXPECT_THROW(compare_compiled_vs_interpreter(nl, -1, 1), std::invalid_argument);
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

TEST(CompiledSim, ZooEngineFingerprintsArePinned) {
  // Every zoo model composed exactly as `fpgaserve --model` composes it
  // (the composed design's fingerprint is pinned too), served through the
  // inference engine with default options over two contexts. The
  // fingerprint folds every output frame and the end-of-batch
  // state digest of all four 2048-vector batches, so any change to what the
  // compiled engine computes — including what reset() leaves behind between
  // batches — moves it. The plan's schedule shape (levels, settle ops,
  // clocked ops) is pinned alongside, so a levelizer change shows up even
  // where it would leave the outputs alone. The composed design's QoR
  // (Fmax, slowest component, resources) is pinned per model as well, with
  // the online flow's work counters (inter-component wirelength, router
  // iterations, macro-placer cost evaluations), the instances at both ends
  // of its critical path (whose hop delays must add up to the path's), and
  // every instance must have its own name. The classify models' cycles per
  // image are pinned as zoobench's classify pass counts them: 64 seeded
  // images from a fresh context to the last output word, every lane
  // bit-exact.
  struct Pin {
    const char* name;
    std::uint64_t fingerprint;
    std::size_t levels, comb_ops, seq_ops;
    const char* design;            // design_fingerprint of the composed design
    double fmax_mhz, slowest_mhz;  // composed Fmax, and its slowest component's
    const char* slowest;           // instance name of the slowest component
    const char* launch;            // instance launching the critical path
    const char* capture;           // instance capturing it
    std::int64_t lut, ff, dsp, bram;
    double wirelength;  // inter-component routing, in tile edges
    int route_iterations;
    long cost_evals;    // macro placer, over every start
    std::uint64_t cycles_per_image;  // 0: not a classify model (vgg16)
  };
  const std::vector<Pin> pinned{
      {"lenet", 0xcc85505b094f7503ULL, 10, 569, 265, "b70d6907ac1d3ecb449fe6292f142d7c",
       163.8433, 163.8433, "conv2", "conv2", "conv2",
       6352, 1278, 40, 101, 641, 1, 906, 51'559},
      {"resblock", 0x053e32d6e3b28cf0ULL, 9, 478, 224, "64f46cbc6bfc131507aaacb901c48027",
       236.4615, 253.2997, "p1", "add1", "c1",
       4489, 1173, 29, 64, 508, 1, 6131, 1'453},
      {"vgg16", 0xf6fc3f661e16cbc8ULL, 10, 2731, 1286, "7badbfb06742bd9a66891225c8d647c1",
       68.0475, 103.4405, "conv4_2", "conv5_3", "conv5_2",
       32755, 5053, 272, 1119, 6495, 1, 18731, 0},
      {"mobilenet", 0xfa2690557f1f8b8fULL, 14, 644, 307, "2043a0a0836a19d1316b1cf1adcfa144",
       129.6278, 129.6278, "gap", "gap", "gap",
       6973, 1591, 47, 90, 504, 1, 756, 3'704},
      {"resnet18", 0xc965bc5c9c3a8cb9ULL, 14, 882, 395, "59697537d422854611df63cf2398e140",
       135.8208, 135.8208, "gap", "gap", "gap",
       8598, 1980, 57, 116, 1221, 2, 11506, 3'337},
      {"unet", 0x7e7148ec8eb34903ULL, 10, 566, 255, "5d29b3fc51bd44e578119dd97f598397",
       151.9888, 180.0742, "d1", "head", "d1",
       5536, 1306, 36, 75, 795, 1, 10856, 2'351},
      {"inception", 0x536a1e6a229f0feaULL, 14, 1085, 446, "52a61dabddf97c55640d172e32f34329",
       112.8898, 112.8898, "gap", "gap", "gap",
       11413, 2405, 56, 118, 1414, 1, 30706, 2'795},
  };
  ASSERT_EQ(model_zoo().size(), pinned.size());
  const Device device = make_xcku5p_sim();
  for (const Pin& pin : pinned) {
    const ZooEntry* entry = find_zoo_model(pin.name);
    ASSERT_NE(entry, nullptr) << pin.name;
    const CnnModel model = entry->make();
    const ModelImpl impl = choose_implementation(model, entry->dsp_budget, entry->max_tile);
    CheckpointStore store;
    CompileService service(device, store);
    CompileService::SessionResult result =
        service.compile(model, impl, default_grouping(model));
    EXPECT_EQ(design_fingerprint(result.design), pin.design) << pin.name;

    const PreImplReport& report = result.report;
    EXPECT_NEAR(report.timing.fmax_mhz, pin.fmax_mhz, 1e-3) << pin.name;
    ASSERT_NE(report.slowest(), nullptr) << pin.name;
    EXPECT_NEAR(report.slowest()->fmax_mhz, pin.slowest_mhz, 1e-3) << pin.name;
    EXPECT_EQ(report.slowest()->instance, pin.slowest) << pin.name;
    EXPECT_EQ(report.stats.resources.lut, pin.lut) << pin.name;
    EXPECT_EQ(report.stats.resources.ff, pin.ff) << pin.name;
    EXPECT_EQ(report.stats.resources.dsp, pin.dsp) << pin.name;
    EXPECT_EQ(report.stats.resources.bram, pin.bram) << pin.name;
    EXPECT_EQ(report.route.total_wirelength, pin.wirelength) << pin.name;
    EXPECT_EQ(report.route.iterations, pin.route_iterations) << pin.name;
    EXPECT_EQ(report.macro.stats.cost_evals, pin.cost_evals) << pin.name;
    std::set<std::string> instance_names;
    for (const InstanceRange& inst : result.design.instances) {
      EXPECT_TRUE(instance_names.insert(inst.name).second)
          << pin.name << ": two instances named '" << inst.name << "'";
    }

    const std::vector<TimingHop>& path = report.timing.critical_path;
    ASSERT_FALSE(path.empty()) << pin.name;
    double path_ns = 0.0;
    for (const TimingHop& hop : path) path_ns += hop.wire_ns + hop.logic_ns;
    EXPECT_NEAR(path_ns, report.timing.critical_path_ns, 1e-9) << pin.name;
    const auto instance_name = [&](CellId cell) {
      const int i = instance_of_cell(result.design.instances, cell);
      return i < 0 ? std::string("top") : result.design.instances[static_cast<std::size_t>(i)].name;
    };
    EXPECT_EQ(instance_name(path.front().cell), pin.launch) << pin.name;
    EXPECT_EQ(instance_name(path.back().cell), pin.capture) << pin.name;

    const Netlist netlist = std::move(result.design.netlist);
    const std::shared_ptr<const SimPlan> plan = SimPlan::compile(netlist);
    if (pin.cycles_per_image > 0) {
      const Shape shape = model.layers().front().out_shape;
      std::vector<std::vector<Fixed16>> inputs(SimPlan::kLanes);
      std::vector<std::vector<Fixed16>> expected(SimPlan::kLanes);
      for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
        const Tensor t = random_tensor(shape.c, shape.h, shape.w, 6000 + l);
        inputs[l] = t.data;
        expected[l] = reference_inference(model, t);
      }
      SimContext ctx(plan);
      const auto out = run_stream_batch(ctx, inputs, expected[0].size());
      for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
        EXPECT_EQ(out[l], expected[l]) << pin.name << " lane " << l;
      }
      EXPECT_EQ(ctx.cycle(), pin.cycles_per_image) << pin.name;
    }

    EngineOptions opt;
    opt.contexts = 2;
    InferenceEngine engine(netlist, plan, opt);
    EXPECT_EQ(engine.plan().levels(), pin.levels) << pin.name;
    EXPECT_EQ(engine.plan().comb_ops(), pin.comb_ops) << pin.name;
    EXPECT_EQ(engine.plan().seq_ops(), pin.seq_ops) << pin.name;
    const EngineStats stats = engine.serve(8192);
    EXPECT_TRUE(stats.ok()) << pin.name << ": " << stats.first_failure;
    EXPECT_EQ(stats.fingerprint(), pin.fingerprint)
        << pin.name << " fingerprint 0x" << std::hex << stats.fingerprint();
  }
}

TEST(CompiledSim, ResblockBatchInferenceBitMatchesGoldenAndInterpreter) {
  // 64 different input tensors at once through the composed resblock; every
  // lane must reproduce the golden DFG reference, and lane 17 is replayed
  // through the interpreter's stream harness as the oracle spot-check.
  FlowPair f(make_resblock_net(), 16);
  std::vector<std::vector<Fixed16>> inputs(SimPlan::kLanes);
  std::vector<std::vector<Fixed16>> expected(SimPlan::kLanes);
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 2000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(f.model, t);
  }
  SimContext cs(SimPlan::compile(f.composed.netlist));
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
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

  std::vector<std::vector<Fixed16>> inputs(SimPlan::kLanes);
  std::vector<std::vector<Fixed16>> expected(SimPlan::kLanes);
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 3000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(model, t);
  }
  SimContext cs(SimPlan::compile(flat));
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
    ASSERT_EQ(out[l].size(), expected[l].size());
    for (std::size_t i = 0; i < out[l].size(); ++i) {
      ASSERT_EQ(out[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }
}

}  // namespace
}  // namespace fpgasim
