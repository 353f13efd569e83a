#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "drc/drc.h"
#include "lint/lint.h"
#include "netlist/comb_graph.h"
#include "netlist/netlist.h"
#include "sim/compiled.h"
#include "sim/simulator.h"
#include "synth/builder.h"
#include "timing/sta.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

TEST(Netlist, BuilderProducesConsistentConnectivity) {
  NetlistBuilder b("t");
  const NetId a = b.in_port("a", 8);
  const NetId c = b.in_port("b", 8);
  const NetId sum = b.add(a, c, 8);
  b.out_port("sum", sum);
  const Netlist nl = std::move(b).take();
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.ports().size(), 3u);
  ASSERT_NE(nl.find_port("sum"), nullptr);
  EXPECT_EQ(nl.find_port("sum")->dir, PortDir::kOutput);
  EXPECT_EQ(nl.find_port("missing"), nullptr);
}

TEST(Netlist, ValidateCatchesDanglingDriver) {
  Netlist nl("bad");
  const NetId n = nl.add_net(4);
  Cell cell;
  cell.type = CellType::kLut;
  const CellId c = nl.add_cell(std::move(cell));
  nl.connect_input(c, 0, n);  // sink on an undriven, non-port net
  EXPECT_FALSE(nl.validate().empty());
}

TEST(Netlist, ValidateCatchesPortWidthMismatch) {
  Netlist nl("bad");
  const NetId n = nl.add_net(4);
  nl.add_port(Port{"p", PortDir::kInput, 8, n});
  EXPECT_FALSE(nl.validate().empty());
}

struct FootprintCase {
  CellType type;
  std::uint16_t width;
  std::uint16_t depth;
  std::uint32_t bram_depth;
  ResourceVec expected;
};

class CellFootprint : public ::testing::TestWithParam<FootprintCase> {};

TEST_P(CellFootprint, MatchesCalibration) {
  const FootprintCase& tc = GetParam();
  Cell cell;
  cell.type = tc.type;
  cell.width = tc.width;
  cell.depth = tc.depth;
  cell.bram_depth = tc.bram_depth;
  EXPECT_EQ(Netlist::cell_footprint(cell), tc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CellFootprint,
    ::testing::Values(
        FootprintCase{CellType::kConst, 16, 0, 0, ResourceVec{}},
        FootprintCase{CellType::kLut, 16, 0, 0, ResourceVec{.lut = 16}},
        FootprintCase{CellType::kFf, 24, 0, 0, ResourceVec{.ff = 24}},
        FootprintCase{CellType::kSrl, 16, 16, 0, ResourceVec{.lut = 16}},
        FootprintCase{CellType::kSrl, 16, 17, 0, ResourceVec{.lut = 32}},
        FootprintCase{CellType::kAdd, 16, 0, 0, ResourceVec{.lut = 16, .carry = 2}},
        FootprintCase{CellType::kAdd, 24, 0, 0, ResourceVec{.lut = 24, .carry = 3}},
        FootprintCase{CellType::kMax, 16, 0, 0, ResourceVec{.lut = 32, .carry = 2}},
        FootprintCase{CellType::kRelu, 16, 0, 0, ResourceVec{.lut = 16}},
        FootprintCase{CellType::kDsp, 16, 0, 0, ResourceVec{.dsp = 1}},
        // 1024 x 16b = 16 Kb -> one BRAM36; 4096 x 16b = 64 Kb -> two.
        FootprintCase{CellType::kBram, 16, 0, 1024, ResourceVec{.bram = 1}},
        FootprintCase{CellType::kBram, 16, 0, 4096, ResourceVec{.bram = 2}}));

TEST(Netlist, StatsAggregateFootprints) {
  NetlistBuilder b("s");
  const NetId a = b.in_port("a", 16);
  b.out_port("q", b.ff(b.add(a, a, 16), kInvalidNet, 16));
  const Netlist nl = std::move(b).take();
  const NetlistStats stats = nl.stats();
  EXPECT_EQ(stats.resources.lut, 16);
  EXPECT_EQ(stats.resources.ff, 16);
  EXPECT_EQ(stats.resources.carry, 2);
  EXPECT_EQ(stats.cells, 2u);
}

TEST(Netlist, LockAllSetsFlags) {
  NetlistBuilder b("l");
  const NetId a = b.in_port("a", 8);
  b.out_port("q", b.ff(a, kInvalidNet, 8));
  Netlist nl = std::move(b).take();
  nl.lock_all();
  for (CellId c = 0; c < nl.cell_count(); ++c) EXPECT_TRUE(nl.cell(c).placement_locked);
  for (NetId n = 0; n < nl.net_count(); ++n) EXPECT_TRUE(nl.net(n).routing_locked);
}

TEST(Netlist, MergeOffsetsAndRemapsEverything) {
  NetlistBuilder b1("one");
  const NetId a = b1.in_port("a", 8);
  b1.out_port("q", b1.not1(a, 8));
  Netlist first = std::move(b1).take();

  NetlistBuilder b2("two");
  const NetId x = b2.in_port("x", 8);
  const std::int32_t rom = b2.rom({1, 2, 3});
  b2.out_port("y", b2.bram(x, kInvalidNet, kInvalidNet, 4, 8, rom));
  const Netlist second = std::move(b2).take();

  const std::size_t cells_before = first.cell_count();
  const std::size_t nets_before = first.net_count();
  const auto [cell_off, net_off] = first.merge(second);
  EXPECT_EQ(cell_off, cells_before);
  EXPECT_EQ(net_off, nets_before);
  EXPECT_EQ(first.cell_count(), cells_before + second.cell_count());
  // Copied BRAM keeps functioning rom reference.
  const Cell& bram = first.cell(static_cast<CellId>(first.cell_count() - 1));
  EXPECT_EQ(bram.type, CellType::kBram);
  ASSERT_GE(bram.rom_id, 0);
  EXPECT_EQ(first.rom(bram.rom_id).size(), 3u);
  // Net references inside copied cells are offset into valid range.
  for (CellId c = cell_off; c < first.cell_count(); ++c) {
    for (NetId in : first.cell(c).inputs) {
      if (in != kInvalidNet) {
        EXPECT_GE(in, net_off);
      }
    }
  }
}

TEST(Netlist, RomStorageRoundTrips) {
  Netlist nl("r");
  const std::int32_t id = nl.add_rom({5, 6, 7});
  EXPECT_EQ(nl.rom_count(), 1u);
  EXPECT_EQ(nl.rom(id)[2], 7u);
}

// -- CombGraph ----------------------------------------------------------------

/// Random acyclic netlist over every cell kind: each new cell reads nets
/// created before it, so cell ids are a topological order of the fabric.
/// Kept whole (no prune_dead) so every kind stays in the graph.
Netlist random_dag(std::uint64_t seed) {
  Rng rng(seed);
  NetlistBuilder b("dag" + std::to_string(seed));
  std::vector<NetId> pool{b.in_port("a", 8), b.in_port("b", 8)};
  const auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  for (int i = 0; i < 40; ++i) {
    switch (rng.next_below(9)) {
      case 0: pool.push_back(b.op2(LutOp::kXor, pick(), pick(), 8)); break;
      case 1: pool.push_back(b.add(pick(), pick(), 8)); break;
      case 2: pool.push_back(b.relu(pick(), 8)); break;
      case 3: pool.push_back(b.smax(pick(), pick(), 8)); break;
      case 4: pool.push_back(b.constant(rng.next_below(256), 8)); break;
      case 5: pool.push_back(b.ff(pick(), kInvalidNet, 8)); break;
      case 6: pool.push_back(b.srl(pick(), kInvalidNet, 3, 8)); break;
      case 7:
        pool.push_back(b.dsp(pick(), pick(), kInvalidNet, 0,
                             static_cast<int>(rng.next_below(3)), 8));
        break;
      case 8: pool.push_back(b.bram(pick(), kInvalidNet, kInvalidNet, 16, 8)); break;
    }
  }
  b.out_port("o", pool.back());
  return b.netlist();
}

TEST(CombGraph, OrderIsTopologicalAndLevelsAreLongestPaths) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Netlist nl = random_dag(seed);
    const CombGraph graph(nl);
    ASSERT_FALSE(graph.has_cycle()) << "seed " << seed;
    ASSERT_EQ(graph.order().size(), graph.node_count());

    std::vector<std::size_t> position(nl.cell_count(), nl.cell_count());
    for (std::size_t i = 0; i < graph.order().size(); ++i) position[graph.order()[i]] = i;
    // Longest-path depth, recomputed in id order (a topological order here).
    std::vector<std::uint32_t> expect(nl.cell_count(), 0);
    std::size_t depth = 0;
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      const Cell& cell = nl.cell(c);
      EXPECT_EQ(graph.is_node(c), is_combinational(cell)) << "seed " << seed;
      if (!graph.is_node(c)) {
        EXPECT_TRUE(graph.successors(c).empty());
        EXPECT_EQ(position[c], nl.cell_count()) << "non-node cell in the order";
        continue;
      }
      for (const NetId in : cell.inputs) {
        const CellId driver = nl.net(in).driver;
        if (driver != kInvalidCell && graph.is_node(driver)) {
          expect[c] = std::max(expect[c], expect[driver] + 1);
        }
      }
      EXPECT_EQ(graph.level(c), expect[c]) << "seed " << seed << " cell " << c;
      depth = std::max<std::size_t>(depth, expect[c] + 1);
      for (const CellId s : graph.successors(c)) {
        EXPECT_LT(position[c], position[s]) << "edge " << c << " -> " << s;
      }
    }
    EXPECT_EQ(graph.depth(), depth) << "seed " << seed;
    EXPECT_TRUE(graph.cycles().empty());
  }
}

TEST(CombGraph, ClockedCellsAndConstantsAreNotNodes) {
  NetlistBuilder b("kinds");
  const NetId x = b.in_port("x", 8);
  b.constant(3, 8);
  b.ff(x, kInvalidNet, 8);
  b.srl(x, kInvalidNet, 4, 8);
  b.bram(x, kInvalidNet, kInvalidNet, 16, 8);
  b.dsp(x, x, kInvalidNet, 0, 2, 8);  // pipelined: clocked
  b.dsp(x, x, kInvalidNet, 0, 0, 8);  // unpipelined: combinational
  const Netlist& nl = b.netlist();
  const CombGraph graph(nl);
  ASSERT_EQ(nl.cell_count(), 6u);
  for (CellId c = 0; c < 5; ++c) EXPECT_FALSE(graph.is_node(c)) << to_string(nl.cell(c).type);
  EXPECT_TRUE(graph.is_node(5));
  EXPECT_EQ(graph.node_count(), 1u);
  EXPECT_EQ(graph.order(), std::vector<CellId>{5});
}

TEST(CombGraph, PinReadingTheSameNetTwiceIsTwoEdges) {
  NetlistBuilder b("twice");
  const NetId x = b.in_port("x", 8);
  const NetId y = b.not1(x, 8);  // cell 0
  b.out_port("o", b.op2(LutOp::kAnd, y, y, 8));  // cell 1 reads y on pins 0 and 1
  const CombGraph graph(b.netlist());
  const auto succ = graph.successors(0);
  EXPECT_EQ(std::vector<CellId>(succ.begin(), succ.end()), (std::vector<CellId>{1, 1}));
  EXPECT_EQ(graph.level(1), 1u);
  EXPECT_EQ(graph.depth(), 2u);
}

TEST(CombGraph, CyclesIncludeSelfLoopsAndRings) {
  Netlist nl("cycles");
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kAnd;
  const NetId n0 = nl.add_net(1);
  const NetId n1 = nl.add_net(1);
  const NetId n2 = nl.add_net(1);
  const CellId self = nl.add_cell(lut);  // reads its own output
  nl.connect_input(self, 0, n0);
  nl.connect_input(self, 1, n0);
  nl.connect_output(self, 0, n0);
  const CellId a = nl.add_cell(lut);  // a <-> b ring
  const CellId b = nl.add_cell(lut);
  nl.connect_input(a, 0, n2);
  nl.connect_input(a, 1, n0);
  nl.connect_output(a, 0, n1);
  nl.connect_input(b, 0, n1);
  nl.connect_input(b, 1, n1);
  nl.connect_output(b, 0, n2);

  const CombGraph graph(nl);
  EXPECT_TRUE(graph.has_cycle());
  EXPECT_TRUE(graph.order().empty());
  // The DFS from `self` reaches the ring through a's pin 1, so the ring
  // completes first.
  const auto cycles = graph.cycles();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], (std::vector<CellId>{a, b}));
  EXPECT_EQ(cycles[1], std::vector<CellId>{self});
}

TEST(CombGraph, OutOfRangeIdsAreSkipped) {
  Netlist nl("fuzzed");
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kNot;
  const NetId n0 = nl.add_net(1);
  const CellId c0 = nl.add_cell(lut);
  const CellId c1 = nl.add_cell(lut);
  nl.connect_output(c0, 0, n0);
  nl.connect_input(c1, 0, n0);
  nl.cell(c0).outputs.push_back(977);        // output net out of range
  nl.net(n0).sinks.emplace_back(4242, 0);    // sink cell out of range
  nl.net(n0).sinks.emplace_back(c1, 7);      // stale pin: still one edge per entry
  const CombGraph graph(nl);
  const auto succ = graph.successors(c0);
  EXPECT_EQ(std::vector<CellId>(succ.begin(), succ.end()), (std::vector<CellId>{c1, c1}));
  EXPECT_FALSE(graph.has_cycle());
  EXPECT_TRUE(graph.cycles().empty());
}

/// Rewires input `pin` of `cell` to `net`, keeping the sink lists exact.
void rewire(Netlist& nl, CellId cell, std::uint16_t pin, NetId net) {
  auto& sinks = nl.net(nl.cell(cell).inputs[pin]).sinks;
  sinks.erase(std::find(sinks.begin(), sinks.end(), std::make_pair(cell, pin)));
  nl.connect_input(cell, pin, net);
}

TEST(CombGraph, LoopVerdictAgreesAcrossConsumers) {
  // DRC comb-loop, lint-comb-loop, the compiled levelizer, the interpreter
  // and STA must all call the same netlists loopy.
  const Device device = make_tiny_device();
  int injected = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool inject : {false, true}) {
      Netlist nl = random_dag(seed);
      if (inject) {
        // Close a cycle over the first comb -> comb edge u -> v: u's pin 0
        // reads v's output (u itself on odd seeds: a self-loop).
        const CombGraph graph(nl);
        const auto u = std::find_if(graph.order().begin(), graph.order().end(),
                                    [&](CellId c) { return !graph.successors(c).empty(); });
        if (u == graph.order().end()) continue;
        const CellId v = seed % 2 != 0 ? *u : graph.successors(*u)[0];
        rewire(nl, *u, 0, nl.cell(v).outputs[0]);
        ++injected;
      }
      const bool drc_loop = !run_structural_drc(nl).by_rule("comb-loop").empty();
      const bool lint_loop = lint::run(nl).has("lint-comb-loop");
      const auto throws = [](auto&& build) {
        try {
          build();
        } catch (const std::runtime_error&) {
          return true;
        }
        return false;
      };
      const bool plan_loop = throws([&] { SimPlan plan(nl); });
      const bool sim_loop = throws([&] { Simulator sim(nl); });
      const bool sta_loop = throws([&] { run_sta(nl, PhysState{}, device); });
      const std::string where = "seed " + std::to_string(seed) + (inject ? " looped" : "");
      EXPECT_EQ(drc_loop, inject) << where;
      EXPECT_EQ(lint_loop, inject) << where;
      EXPECT_EQ(plan_loop, inject) << where;
      EXPECT_EQ(sim_loop, inject) << where;
      EXPECT_EQ(sta_loop, inject) << where;
    }
  }
  EXPECT_GE(injected, 20);
}

}  // namespace
}  // namespace fpgasim
