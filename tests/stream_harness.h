// Shared test harness: drives a layer component's stream interface with a
// tensor (channel-major) and collects its output stream — one vector at a
// time through the interpreter, or SimPlan::kLanes tensors at once
// through the compiled bit-parallel simulator.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/compiled.h"
#include "sim/golden.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace fpgasim::testhelpers {

inline Tensor random_tensor(int c, int h, int w, std::uint64_t seed, int magnitude = 50) {
  Tensor t = Tensor::zeros(c, h, w);
  Rng rng(seed);
  for (Fixed16& v : t.data) {
    v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-magnitude, magnitude)));
  }
  return t;
}

inline std::vector<Fixed16> random_params(std::size_t n, std::uint64_t seed,
                                          int magnitude = 50) {
  std::vector<Fixed16> params(n);
  Rng rng(seed);
  for (Fixed16& v : params) {
    v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-magnitude, magnitude)));
  }
  return params;
}

/// Streams `input` into the component and collects `expected_outputs`
/// words. Fails the test if the component does not accept the whole input
/// or does not produce enough outputs within the cycle guard.
inline std::vector<Fixed16> run_stream(Simulator& sim, const std::vector<Fixed16>& input,
                                       std::size_t expected_outputs,
                                       long guard_cycles = 500000) {
  sim.set_input("out_ready", 1);
  sim.set_input("in_valid", 1);
  // Allow a component mid-transition (e.g. finishing a previous DRAIN) to
  // reach its LOAD state before data is offered.
  for (int spin = 0; spin < 64 && sim.get_output("in_ready") != 1; ++spin) sim.step();
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(sim.get_output("in_ready"), 1u) << "component stalled at input word " << i;
    sim.set_input("in_data", static_cast<std::uint16_t>(input[i].raw));
    sim.step();
  }
  sim.set_input("in_valid", 0);

  std::vector<Fixed16> out;
  long guard = 0;
  while (out.size() < expected_outputs && guard++ < guard_cycles) {
    sim.step();
    if (sim.get_output("out_valid") == 1) {
      out.push_back(Fixed16{static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out_data")))});
    }
  }
  EXPECT_EQ(out.size(), expected_outputs) << "timed out after " << guard << " cycles";
  return out;
}

/// Streams one input tensor per lane (all the same length) through the
/// compiled simulator's batch interface and collects `expected_outputs`
/// words per lane. The stream handshake of these components is
/// data-independent, so every lane advances in lock-step; the harness
/// asserts that (in_ready/out_valid identical across lanes) as it goes.
inline std::vector<std::vector<Fixed16>> run_stream_batch(
    SimContext& sim, const std::vector<std::vector<Fixed16>>& inputs,
    std::size_t expected_outputs, long guard_cycles = 500000) {
  constexpr std::size_t kLanes = SimPlan::kLanes;
  EXPECT_EQ(inputs.size(), kLanes);
  const SimPlan& plan = sim.plan();
  const int in_data = plan.input_index("in_data");
  const int in_valid = plan.input_index("in_valid");
  const int out_ready = plan.input_index("out_ready");
  const int in_ready = plan.output_index("in_ready");
  const int out_valid = plan.output_index("out_valid");
  const int out_data = plan.output_index("out_data");

  const auto all_lanes_equal = [&](int output) {
    std::uint64_t lanes[kLanes];
    sim.get_outputs(output, lanes);
    for (std::size_t l = 1; l < kLanes; ++l) {
      if (lanes[l] != lanes[0]) return false;
    }
    return true;
  };

  sim.set_inputs(out_ready, std::uint64_t{1});
  sim.set_inputs(in_valid, std::uint64_t{1});
  for (int spin = 0; spin < 64 && sim.get_output(in_ready, 0) != 1; ++spin) sim.step();
  std::uint64_t words[kLanes];
  for (std::size_t i = 0; i < inputs[0].size(); ++i) {
    EXPECT_EQ(sim.get_output(in_ready, 0), 1u) << "batch stalled at input word " << i;
    EXPECT_TRUE(all_lanes_equal(in_ready)) << "lanes diverged at input word " << i;
    for (std::size_t l = 0; l < kLanes; ++l) {
      words[l] = static_cast<std::uint16_t>(inputs[l][i].raw);
    }
    sim.set_inputs(in_data, words);
    sim.step();
  }
  sim.set_inputs(in_valid, std::uint64_t{0});

  std::vector<std::vector<Fixed16>> out(kLanes);
  long guard = 0;
  while (out[0].size() < expected_outputs && guard++ < guard_cycles) {
    sim.step();
    if (sim.get_output(out_valid, 0) == 1) {
      EXPECT_TRUE(all_lanes_equal(out_valid)) << "out_valid diverged across lanes";
      sim.get_outputs(out_data, words);
      for (std::size_t l = 0; l < kLanes; ++l) {
        out[l].push_back(Fixed16{static_cast<std::int16_t>(
            static_cast<std::uint16_t>(words[l]))});
      }
    }
  }
  EXPECT_EQ(out[0].size(), expected_outputs) << "timed out after " << guard << " cycles";
  return out;
}

inline void expect_tensor_eq(const std::vector<Fixed16>& got, const std::vector<Fixed16>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].raw, want[i].raw) << "word " << i;
  }
}

}  // namespace fpgasim::testhelpers
