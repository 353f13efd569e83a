// Multi-context inference engine (sim/engine): the determinism contract
// and the statistical golden-model audit, tested on a small sequential
// fixture so the TSan CI job can afford the width sweep.
//
//  - byte-identity of the merged EngineStats across thread-pool widths
//    {1, 2, 8} (the FPGASIM_THREADS sweep) and context counts;
//  - the shard-order stat merge is reproducible from outside the engine:
//    a serial single-context replay using engine_shard_seed() folds to
//    the exact same checksum;
//  - the interpreter A/B audit actually bites: corrupt_oracle must turn
//    every audited shard into a reported failure;
//  - plan reuse: engines and contexts share one SimPlan compilation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/compiled.h"
#include "sim/engine/engine.h"
#include "synth/builder.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fpgasim {
namespace {

// Small but representative fixture: combinational mix, an enabled
// accumulator, a shift-register pipeline, a plan-shared ROM and a
// per-context writable memory — every arena section of the plan/state
// split is exercised on each shard.
Netlist engine_fixture() {
  NetlistBuilder b("engine_fixture");
  const NetId x = b.in_port("x", 16);
  const NetId y = b.in_port("y", 16);
  const NetId en = b.in_port("en", 1);

  std::vector<std::uint64_t> words;
  for (std::uint64_t i = 0; i < 16; ++i) words.push_back((i * 2654435761ULL) & 0xffff);
  const NetId romv = b.bram(x, kInvalidNet, kInvalidNet, 16, 16, b.rom(std::move(words)));
  const NetId memv = b.bram(x, y, b.bit(en, 0), 16, 16);

  b.out_port("acc", b.accum(b.op2(LutOp::kXor, x, romv, 16), en, b.zero(1), 24));
  b.out_port("pipe", b.srl(b.add(x, y, 16), kInvalidNet, 4, 16));
  b.out_port("mem", memv);
  b.out_port("mix", b.op2(LutOp::kXor, b.add(x, y, 16), romv, 16));
  return std::move(b).take();
}

// run_shard's checksum fold constant (engine.cpp); the merge-determinism
// test re-derives the served checksum from scratch with it.
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

TEST(Engine, MultiContextByteIdentityAcrossWidths) {
  const Netlist nl = engine_fixture();
  const auto plan = SimPlan::compile(nl);

  EngineOptions opt;
  opt.seed = 7;
  opt.check_every = 4;
  const std::uint64_t vectors = 10 * 32 * InferenceEngine::kLanes;  // 10 batches

  std::vector<EngineStats> runs;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(width);
    opt.contexts = width;
    InferenceEngine engine(nl, plan, opt, &pool);
    EXPECT_EQ(engine.context_count(), width);
    runs.push_back(engine.serve(vectors));
  }

  for (const EngineStats& s : runs) {
    EXPECT_EQ(s.batches, 10u);
    EXPECT_EQ(s.vectors, vectors);
    EXPECT_EQ(s.lane_cycles, vectors);
    EXPECT_EQ(s.oracle_checks, 3u);  // shards 0, 4, 8
    EXPECT_EQ(s.oracle_failures, 0u);
    EXPECT_TRUE(s.first_failure.empty());
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.checksum, runs[0].checksum);
    EXPECT_EQ(s.fingerprint(), runs[0].fingerprint());
  }
  EXPECT_NE(runs[0].checksum, 0u);

  // A different seed must change the stream (the fingerprint is a real
  // function of the served data, not a constant).
  ThreadPool pool(2);
  opt.contexts = 2;
  opt.seed = 8;
  InferenceEngine other(nl, plan, opt, &pool);
  EXPECT_NE(other.serve(vectors).fingerprint(), runs[0].fingerprint());
}

TEST(Engine, ShardOrderMergeMatchesSerialReplay) {
  const Netlist nl = engine_fixture();
  const auto plan = SimPlan::compile(nl);

  EngineOptions opt;
  opt.seed = 11;
  opt.check_every = 0;  // pure serving path
  opt.contexts = 4;
  const int cycles = opt.cycles_per_batch;
  const std::uint64_t batches = 6;

  ThreadPool pool(8);
  InferenceEngine engine(nl, plan, opt, &pool);
  const EngineStats stats = engine.serve(batches * cycles * InferenceEngine::kLanes);
  ASSERT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.oracle_checks, 0u);

  // Reproduce the merged checksum with one context, serially, from the
  // published shard-seed derivation: per shard fold every output frame
  // word then the full state digest, then hash the per-shard checksums in
  // shard order.
  SimContext ctx(plan);
  std::vector<std::uint64_t> in_frame(plan->input_count() * SimPlan::kLanes);
  std::vector<std::uint64_t> out_frame(plan->output_count() * SimPlan::kLanes);
  Hasher merged;
  for (std::uint64_t shard = 0; shard < batches; ++shard) {
    ctx.reset();
    Rng rng(engine_shard_seed(opt.seed, shard));
    std::uint64_t checksum = 0;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (std::uint64_t& v : in_frame) v = rng();
      ctx.set_input_frame(in_frame);
      ctx.step();
      ctx.get_output_frame(out_frame);
      for (const std::uint64_t v : out_frame) checksum = (checksum ^ v) * kFnvPrime;
    }
    checksum = (checksum ^ ctx.state_digest()) * kFnvPrime;
    merged.u64(checksum);
  }
  const Hash128 folded = merged.digest();
  EXPECT_EQ(stats.checksum, folded.hi ^ folded.lo);
}

TEST(Engine, CorruptOracleInjectionReportsEveryAuditedShard) {
  const Netlist nl = engine_fixture();

  EngineOptions opt;
  opt.seed = 3;
  opt.check_every = 1;  // audit every shard
  opt.contexts = 2;
  opt.corrupt_oracle = true;

  ThreadPool pool(2);
  InferenceEngine engine(nl, opt, &pool);
  const std::uint64_t batches = 5;
  const EngineStats stats =
      engine.serve(batches * static_cast<std::uint64_t>(opt.cycles_per_batch) *
                   InferenceEngine::kLanes);

  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.oracle_checks, batches);
  EXPECT_EQ(stats.oracle_failures, batches);
  EXPECT_FALSE(stats.ok());
  // first_failure is pinned to shard order, not completion order.
  EXPECT_EQ(stats.first_failure.rfind("shard 0 ", 0), 0u) << stats.first_failure;

  // Control: the same configuration without the corruption hook is clean.
  opt.corrupt_oracle = false;
  InferenceEngine clean(nl, opt, &pool);
  const EngineStats ok = clean.serve(batches * static_cast<std::uint64_t>(opt.cycles_per_batch) *
                                     InferenceEngine::kLanes);
  EXPECT_EQ(ok.oracle_checks, batches);
  EXPECT_EQ(ok.oracle_failures, 0u);
  EXPECT_TRUE(ok.ok());
}

TEST(Engine, PlanCompiledOnceAndSharedAcrossContexts) {
  const Netlist nl = engine_fixture();

  const std::uint64_t before = SimPlan::plans_compiled();
  const auto plan = SimPlan::compile(nl);
  EXPECT_EQ(SimPlan::plans_compiled() - before, 1u);

  // Adopting a pre-compiled plan must not compile again — not at engine
  // construction (any context count) and not across serve().
  EngineOptions opt;
  opt.contexts = 8;
  opt.check_every = 2;
  ThreadPool pool(4);
  InferenceEngine engine(nl, plan, opt, &pool);
  EXPECT_EQ(engine.context_count(), 8u);
  const EngineStats stats = engine.serve(8 * 32 * InferenceEngine::kLanes);
  EXPECT_EQ(SimPlan::plans_compiled() - before, 1u);
  EXPECT_TRUE(stats.ok());
  // Context-reset telemetry: every batch resets exactly one context.
  EXPECT_EQ(stats.resets, stats.batches);

  // Compiling from the netlist directly is exactly one more plan.
  InferenceEngine from_netlist(nl, opt, &pool);
  EXPECT_EQ(SimPlan::plans_compiled() - before, 2u);
}

TEST(Engine, ContextCountFromOptionOrPoolWidth) {
  const Netlist nl = engine_fixture();
  const auto plan = SimPlan::compile(nl);
  ThreadPool pool(2);

  // An explicit option wins; absent one, the pool width.
  EngineOptions opt;
  opt.contexts = 5;
  InferenceEngine explicit_ctx(nl, plan, opt, &pool);
  EXPECT_EQ(explicit_ctx.context_count(), 5u);
  InferenceEngine pool_width(nl, plan, EngineOptions{}, &pool);
  EXPECT_EQ(pool_width.context_count(), 2u);
}

TEST(Engine, FrameApiMatchesPerPortApi) {
  const Netlist nl = engine_fixture();
  const auto plan = SimPlan::compile(nl);
  SimContext frame_ctx(plan);
  SimContext port_ctx(plan);

  const std::size_t in_count = plan->input_count();
  const std::size_t out_count = plan->output_count();
  std::vector<std::uint64_t> frame(in_count * SimPlan::kLanes);
  Rng rng(99);
  for (int cycle = 0; cycle < 12; ++cycle) {
    for (std::uint64_t& v : frame) v = rng();
    frame_ctx.set_input_frame(frame);
    for (std::size_t i = 0; i < in_count; ++i) {
      port_ctx.set_inputs(static_cast<int>(i), {frame.data() + i * SimPlan::kLanes,
                                                SimPlan::kLanes});
    }
    frame_ctx.step();
    port_ctx.step();

    std::vector<std::uint64_t> out_a(out_count * SimPlan::kLanes);
    frame_ctx.get_output_frame(out_a);
    for (std::size_t o = 0; o < out_count; ++o) {
      std::uint64_t lanes[SimPlan::kLanes];
      port_ctx.get_outputs(static_cast<int>(o), lanes);
      for (std::size_t l = 0; l < SimPlan::kLanes; ++l) {
        ASSERT_EQ(out_a[o * SimPlan::kLanes + l], lanes[l])
            << "cycle " << cycle << " port " << plan->output_name(o) << " lane " << l;
      }
    }
  }
  EXPECT_EQ(frame_ctx.state_digest(), port_ctx.state_digest());
}

}  // namespace fpgasim
