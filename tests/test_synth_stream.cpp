// MMU and branching-DFG stream components: the Fig. 5 communication
// interface pieces.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

using testhelpers::random_params;

// The MMU's store-and-forward buffer is the upsample engine at factor 1:
// LOAD a burst into one BRAM, then DRAIN it in order.
TEST(MmuComponent, BuffersAndForwardsBurst) {
  const int words = 12;
  const Netlist nl = make_upsample_component("mmu", 1, 1, words, 1);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto burst = random_params(static_cast<std::size_t>(words), 14);
  sim.set_input("out_ready", 1);
  sim.set_input("in_valid", 1);
  for (const Fixed16& v : burst) {
    ASSERT_EQ(sim.get_output("in_ready"), 1u);
    sim.set_input("in_data", static_cast<std::uint16_t>(v.raw));
    sim.step();
  }
  sim.set_input("in_valid", 0);
  std::vector<std::int16_t> got;
  for (int cycle = 0; cycle < 40 && got.size() < burst.size(); ++cycle) {
    sim.step();
    if (sim.get_output("out_valid") == 1) {
      got.push_back(static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out_data"))));
    }
  }
  ASSERT_EQ(got.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) EXPECT_EQ(got[i], burst[i].raw);
}

TEST(MmuComponent, NotReadyWhileDraining) {
  const Netlist nl = make_upsample_component("mmu", 1, 1, 4, 1);
  Simulator sim(nl);
  sim.set_input("out_ready", 0);
  sim.set_input("in_valid", 1);
  sim.set_input("in_data", 1);
  for (int i = 0; i < 4; ++i) sim.step();
  sim.set_input("in_valid", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("in_ready"), 0u);  // in DRAIN, waiting for ready
}

/// Drives all input streams of a multi-input component concurrently
/// (run_stream only knows the single-stream interface) and collects
/// `expected_outputs` words.
std::vector<Fixed16> run_multi_stream(Simulator& sim,
                                      const std::vector<std::vector<Fixed16>>& inputs,
                                      std::size_t expected_outputs) {
  sim.set_input("out_ready", 1);
  std::vector<std::size_t> pos(inputs.size(), 0);
  std::vector<Fixed16> out;
  long guard = 0;
  while (out.size() < expected_outputs && guard++ < 500000) {
    std::vector<bool> offered(inputs.size(), false);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const bool have = pos[k] < inputs[k].size();
      sim.set_input(stream_port_name("in", static_cast<int>(k), "valid"), have ? 1 : 0);
      if (have) {
        sim.set_input(stream_port_name("in", static_cast<int>(k), "data"),
                      static_cast<std::uint16_t>(inputs[k][pos[k]].raw));
      }
      offered[k] = have;
    }
    std::vector<bool> accepted(inputs.size(), false);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      accepted[k] =
          offered[k] &&
          sim.get_output(stream_port_name("in", static_cast<int>(k), "ready")) == 1;
    }
    sim.step();
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      if (accepted[k]) ++pos[k];
    }
    if (sim.get_output("out_valid") == 1) {
      out.push_back(Fixed16{static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out_data")))});
    }
  }
  EXPECT_EQ(out.size(), expected_outputs) << "timed out after " << guard << " cycles";
  return out;
}

TEST(AddComponent, MatchesGoldenSaturatingAdd) {
  const int volume = 2 * 3 * 3;
  const Netlist nl = make_add_component("add_t", volume, 2);
  ASSERT_TRUE(nl.validate().empty());
  // Large magnitudes so Q8.8 saturation is actually exercised.
  const Tensor a = testhelpers::random_tensor(2, 3, 3, 21, 30000);
  const Tensor b = testhelpers::random_tensor(2, 3, 3, 22, 30000);
  const Tensor expected = golden_add({&a, &b});
  Simulator sim(nl);
  const auto out = run_multi_stream(sim, {a.data, b.data},
                                    static_cast<std::size_t>(volume));
  testhelpers::expect_tensor_eq(out, expected.data);
}

TEST(AddComponent, ThreeWayJoinAndFusedRelu) {
  const int volume = 6;
  const Netlist nl = make_add_component("add3_t", volume, 3, /*fuse_relu=*/true);
  ASSERT_TRUE(nl.validate().empty());
  const Tensor a = testhelpers::random_tensor(1, 2, 3, 31);
  const Tensor b = testhelpers::random_tensor(1, 2, 3, 32);
  const Tensor c = testhelpers::random_tensor(1, 2, 3, 33);
  const Tensor expected = golden_relu(golden_add({&a, &b, &c}));
  Simulator sim(nl);
  const auto out =
      run_multi_stream(sim, {a.data, b.data, c.data}, static_cast<std::size_t>(volume));
  testhelpers::expect_tensor_eq(out, expected.data);
}

TEST(ConcatComponent, AppendsStreamsInPortOrder) {
  // Unequal channel counts: 2x2x2 ++ 1x2x2 -> 3 channels.
  const Netlist nl = make_concat_component("cat_t", {8, 4});
  ASSERT_TRUE(nl.validate().empty());
  const Tensor a = testhelpers::random_tensor(2, 2, 2, 41);
  const Tensor b = testhelpers::random_tensor(1, 2, 2, 42);
  const Tensor expected = golden_concat({&a, &b});
  Simulator sim(nl);
  const auto out = run_multi_stream(sim, {a.data, b.data}, expected.data.size());
  testhelpers::expect_tensor_eq(out, expected.data);
}

TEST(StreamFork, BroadcastsToAllBranchesUnderSkewedBackpressure) {
  const Netlist nl = make_stream_fork("fork_t", 2);
  ASSERT_TRUE(nl.validate().empty());
  const auto words = random_params(16, 51);
  Simulator sim(nl);
  std::vector<std::int16_t> got0, got1;
  std::size_t pos = 0;
  int cycle = 0;
  while ((got0.size() < words.size() || got1.size() < words.size()) && cycle < 400) {
    // Branch 1 accepts only every third cycle: the skid flags must hold the
    // word for it while branch 0 races ahead by at most one.
    const bool r0 = true;
    const bool r1 = cycle % 3 == 0;
    sim.set_input("out_ready", r0 ? 1 : 0);
    sim.set_input("out2_ready", r1 ? 1 : 0);
    const bool have = pos < words.size();
    sim.set_input("in_valid", have ? 1 : 0);
    if (have) sim.set_input("in_data", static_cast<std::uint16_t>(words[pos].raw));
    const bool accepted = have && sim.get_output("in_ready") == 1;
    if (r0 && sim.get_output("out_valid") == 1) {
      got0.push_back(static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out_data"))));
    }
    if (r1 && sim.get_output("out2_valid") == 1) {
      got1.push_back(static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out2_data"))));
    }
    sim.step();
    if (accepted) ++pos;
    ++cycle;
  }
  ASSERT_EQ(got0.size(), words.size());
  ASSERT_EQ(got1.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(got0[i], words[i].raw) << "branch 0 word " << i;
    EXPECT_EQ(got1[i], words[i].raw) << "branch 1 word " << i;
  }
}

TEST(StreamPortName, FollowsConvention) {
  EXPECT_EQ(stream_port_name("in", 0, "data"), "in_data");
  EXPECT_EQ(stream_port_name("out", 0, "valid"), "out_valid");
  EXPECT_EQ(stream_port_name("in", 1, "data"), "in2_data");
  EXPECT_EQ(stream_port_name("out", 2, "ready"), "out3_ready");
}

}  // namespace
}  // namespace fpgasim
