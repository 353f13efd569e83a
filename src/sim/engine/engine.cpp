#include "sim/engine/engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <thread>

#include "util/aligned.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t engine_shard_seed(std::uint64_t seed, std::uint64_t shard) {
  return splitmix64(seed ^ splitmix64(shard));
}

std::uint64_t EngineStats::fingerprint() const {
  const Hash128 h = Hasher()
                        .u64(vectors)
                        .u64(lane_cycles)
                        .u64(checksum)
                        .u64(oracle_checks)
                        .u64(batches)
                        .digest();
  return h.hi ^ h.lo;
}

// Per-shard stat slot: written by exactly one worker, on its own cache
// line, merged after the barrier — the hot path takes no lock and shares
// no line.
struct alignas(kCacheLineBytes) InferenceEngine::Shard {
  std::uint64_t vectors = 0;
  std::uint64_t lane_cycles = 0;
  std::uint64_t checksum = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_failures = 0;
  std::string failure;  // empty unless this shard's audit diverged
};

InferenceEngine::InferenceEngine(const Netlist& netlist, EngineOptions options,
                                 ThreadPool* pool)
    : InferenceEngine(netlist, SimPlan::compile(netlist), options, pool) {}

InferenceEngine::InferenceEngine(const Netlist& netlist,
                                 std::shared_ptr<const SimPlan> plan,
                                 EngineOptions options, ThreadPool* pool)
    : netlist_(netlist), plan_(std::move(plan)), opt_(options), pool_(pool) {
  if (opt_.cycles_per_batch < 1) {
    throw std::runtime_error("engine: cycles_per_batch must be >= 1");
  }
  std::size_t n = opt_.contexts;
  if (n == 0) n = pool_ != nullptr ? pool_->size() : ThreadPool::default_width();
  n = std::clamp<std::size_t>(n, 1, kMaxContexts);
  contexts_.reserve(n);
  in_frames_.resize(n);
  out_frames_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    contexts_.push_back(std::make_unique<SimContext>(plan_));
    in_frames_[i].assign(plan_->input_count() * kLanes, 0);
    out_frames_[i].assign(plan_->output_count() * kLanes, 0);
  }
  free_mask_.store(n >= 64 ? ~0ULL : ((1ULL << n) - 1), std::memory_order_relaxed);
}

std::size_t InferenceEngine::acquire_context() {
  for (;;) {
    std::uint64_t mask = free_mask_.load(std::memory_order_acquire);
    while (mask != 0) {
      const auto idx = static_cast<std::size_t>(std::countr_zero(mask));
      if (free_mask_.compare_exchange_weak(mask, mask & ~(1ULL << idx),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return idx;
      }
      // CAS refreshed `mask`; retry on the updated view.
    }
    // All contexts busy (more workers than contexts): let a holder finish.
    std::this_thread::yield();
  }
}

void InferenceEngine::release_context(std::size_t idx) {
  free_mask_.fetch_or(1ULL << idx, std::memory_order_acq_rel);
}

void InferenceEngine::run_shard(std::size_t shard_index, int cycles, Shard& out) {
  const std::size_t ci = acquire_context();
  SimContext& ctx = *contexts_[ci];
  std::vector<std::uint64_t>& in_frame = in_frames_[ci];
  std::vector<std::uint64_t>& out_frame = out_frames_[ci];
  ctx.reset();

  const std::size_t in_count = plan_->input_count();
  const std::size_t out_count = plan_->output_count();
  const bool audited =
      opt_.check_every != 0 && shard_index % opt_.check_every == 0;
  const auto audit_lane =
      static_cast<std::size_t>((opt_.check_every != 0
                                    ? shard_index / opt_.check_every
                                    : 0) % kLanes);
  // Audited shards record one lane's trajectory for the interpreter
  // replay below.
  LaneTrace trace;
  if (audited) {
    trace.cycles = cycles;
    trace.inputs.reserve(static_cast<std::size_t>(cycles) * in_count);
    trace.outputs.reserve(static_cast<std::size_t>(cycles) * out_count);
  }

  Rng rng(engine_shard_seed(opt_.seed, shard_index));
  std::uint64_t checksum = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint64_t& v : in_frame) v = rng();
    ctx.set_input_frame(in_frame);
    ctx.step();
    ctx.get_output_frame(out_frame);
    for (const std::uint64_t v : out_frame) checksum = (checksum ^ v) * kFnvPrime;
    if (audited) {
      for (std::size_t i = 0; i < in_count; ++i) {
        trace.inputs.push_back(in_frame[i * kLanes + audit_lane]);
      }
      for (std::size_t o = 0; o < out_count; ++o) {
        trace.outputs.push_back(out_frame[o * kLanes + audit_lane]);
      }
    }
  }
  // End-of-batch full-state digest: a deep accelerator pipeline may not
  // raise an output port within one batch, so the output-frame fold alone
  // would checksum nothing but zeros. Folding every net of every lane
  // makes the checksum (and the width-identity fingerprint built on it)
  // sensitive to the whole datapath.
  checksum = (checksum ^ ctx.state_digest()) * kFnvPrime;
  // Audited shards also snapshot the audit lane's final per-net state
  // (must copy before the context is released to another shard).
  if (audited) {
    trace.nets.resize(plan_->net_count());
    for (std::size_t n = 0; n < trace.nets.size(); ++n) {
      trace.nets[n] = ctx.peek_net(static_cast<NetId>(n), audit_lane);
    }
  }
  release_context(ci);

  out.vectors = static_cast<std::uint64_t>(cycles) * kLanes;
  out.lane_cycles = out.vectors;
  out.checksum = checksum;

  if (!audited) return;
  out.oracle_checks = 1;
  if (opt_.corrupt_oracle) {
    for (std::uint64_t& v : trace.outputs) v ^= 1;
    for (std::uint64_t& v : trace.nets) v ^= 1;
  }
  const std::string diff = replay_lane(netlist_, *plan_, trace);
  if (!diff.empty()) {
    out.oracle_failures = 1;
    out.failure = "shard " + std::to_string(shard_index) + " lane " +
                  std::to_string(audit_lane) + " " + diff;
  }
}

EngineStats InferenceEngine::serve(std::uint64_t total_vectors) {
  const auto per_batch = static_cast<std::uint64_t>(opt_.cycles_per_batch) * kLanes;
  const std::uint64_t batches = std::max<std::uint64_t>(1, (total_vectors + per_batch - 1) / per_batch);

  std::vector<Shard> shards(static_cast<std::size_t>(batches));
  parallel_for(
      0, static_cast<std::size_t>(batches),
      [&](std::size_t b) { run_shard(b, opt_.cycles_per_batch, shards[b]); }, pool_);

  // Deterministic merge: fold the per-shard slots in shard order. The
  // checksum merge is order-sensitive (Hasher stream), so a wrong-order
  // merge — not just a wrong value — changes the fingerprint.
  EngineStats stats;
  stats.batches = batches;
  Hasher chk;
  for (const Shard& s : shards) {
    stats.vectors += s.vectors;
    stats.lane_cycles += s.lane_cycles;
    stats.oracle_checks += s.oracle_checks;
    stats.oracle_failures += s.oracle_failures;
    if (!s.failure.empty() && stats.first_failure.empty()) {
      stats.first_failure = s.failure;
    }
    chk.u64(s.checksum);
  }
  const Hash128 folded = chk.digest();
  stats.checksum = folded.hi ^ folded.lo;
  stats.contexts = contexts_.size();
  stats.threads = pool_ != nullptr ? pool_->size() : ThreadPool::global().size();
  std::size_t resets = 0;
  for (const auto& ctx : contexts_) resets += ctx->resets();
  stats.resets = resets;
  return stats;
}

}  // namespace fpgasim
