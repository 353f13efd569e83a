// Traffic-scale inference engine: serves batched 64-lane vector streams
// through a compiled design across the thread pool.
//
// The serving model sits directly on the plan/state split in
// sim/compiled.h: the netlist is compiled ONCE into an immutable SimPlan,
// and the engine owns a small pool of SimContexts (per-worker lane state,
// construction cost state-only). A request stream of `total_vectors`
// inference vectors is sharded at 64-lane-batch granularity: one shard =
// one freshly reset context driven `cycles_per_batch` clock cycles with
// per-cycle re-randomized stimulus, i.e. kLanes x cycles_per_batch vectors
// (a *vector* is one input frame on one lane for one cycle). Shards run
// under parallel_for; each writes a private cache-line-aligned stat slot
// (no locks, no false sharing), and the slots are merged sequentially in
// shard order after the barrier.
//
// Determinism contract (inherits util/thread_pool.h's): a shard's work is
// a pure function of its shard index — stimulus comes from an Rng seeded
// by mix(seed, shard), contexts are reset to the plan's initial state
// before use, and the merge folds stats in shard order. Every pool width
// (FPGASIM_THREADS 1, 2, 8, ...) therefore produces byte-identical
// EngineStats up to its sizing fields (contexts, threads);
// EngineStats::fingerprint() hashes exactly the width-invariant subset.
//
// Statistical golden-model agreement: every `check_every`-th shard also
// replays one rotating lane of its whole batch through the interpreter
// (sim/compiled.h replay_lane, the semantics oracle), comparing every
// output port on every cycle and every net at batch end — a continuous
// A/B audit at ~1/(64*check_every) of the serving cost, in the spirit of
// the compiled/interpreter cross-check that gates the flow tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/compiled.h"
#include "util/thread_pool.h"

namespace fpgasim {

struct EngineOptions {
  /// Simulation contexts to instantiate. 0 selects the serving pool's
  /// width. Clamped to [1, 64].
  std::size_t contexts = 0;
  /// Clock cycles per shard; one shard serves kLanes * cycles_per_batch
  /// vectors. Larger batches amortize the context reset.
  int cycles_per_batch = 32;
  /// Interpreter A/B audit every N-th shard (rotating lane). 0 disables.
  std::size_t check_every = 64;
  /// Stimulus seed; shard s draws from Rng(mix(seed, s)).
  std::uint64_t seed = 1;
  /// Test hook: flips a bit of every recorded compiled value in each
  /// audited shard's trace before the replay, so each audited shard must
  /// report a failure (proves the statistical check actually bites).
  bool corrupt_oracle = false;
};

struct EngineStats {
  std::uint64_t batches = 0;
  std::uint64_t vectors = 0;      // total inference vectors served
  std::uint64_t lane_cycles = 0;  // vectors, counted as lane-clock-cycles
  std::uint64_t checksum = 0;     // order-sensitive fold of every output value
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_failures = 0;
  std::string first_failure;  // first divergence, in shard order
  std::size_t contexts = 0;
  std::size_t threads = 0;
  std::size_t resets = 0;  // context resets (== batches; telemetry)

  /// Width-invariant digest: hashes the result fields that the
  /// determinism contract pins (vectors, lane_cycles, checksum,
  /// oracle_checks, batches) and none of the sizing fields.
  /// Identical across FPGASIM_THREADS widths and context counts.
  std::uint64_t fingerprint() const;

  bool ok() const { return oracle_failures == 0 && batches > 0; }
};

/// Multi-context serving engine over one compiled plan.
class InferenceEngine {
 public:
  static constexpr std::size_t kLanes = SimPlan::kLanes;
  static constexpr std::size_t kMaxContexts = 64;  // free-list is one u64 bitmask

  /// Compiles `netlist` once (or adopts `plan` when given — zero
  /// compilations). The netlist reference must outlive the engine: the
  /// interpreter oracle replays against it.
  InferenceEngine(const Netlist& netlist, EngineOptions options = {},
                  ThreadPool* pool = nullptr);
  InferenceEngine(const Netlist& netlist, std::shared_ptr<const SimPlan> plan,
                  EngineOptions options = {}, ThreadPool* pool = nullptr);

  const SimPlan& plan() const { return *plan_; }
  std::size_t context_count() const { return contexts_.size(); }

  /// Serves at least `total_vectors` inference vectors (rounded up to
  /// whole 64-lane batches) and returns the merged, deterministic stats.
  /// Thread-safe against itself only through external serialization; one
  /// serve() call internally fans out across the pool.
  EngineStats serve(std::uint64_t total_vectors);

 private:
  struct Shard;  // per-shard aligned stat slot (engine.cpp)

  std::size_t acquire_context();
  void release_context(std::size_t idx);
  void run_shard(std::size_t shard_index, int cycles, Shard& out);

  const Netlist& netlist_;
  std::shared_ptr<const SimPlan> plan_;
  EngineOptions opt_;
  ThreadPool* pool_;  // nullptr = ThreadPool::global()
  std::vector<std::unique_ptr<SimContext>> contexts_;
  // Per-context scratch frames (input/output port-major buffers), reused
  // across every batch the context serves — the steady-state serve loop
  // performs no allocation.
  std::vector<std::vector<std::uint64_t>> in_frames_;
  std::vector<std::vector<std::uint64_t>> out_frames_;
  std::atomic<std::uint64_t> free_mask_{0};  // bit set = context free
};

/// splitmix64-style shard seed derivation (exposed for tests that
/// reproduce a shard's stimulus independently).
std::uint64_t engine_shard_seed(std::uint64_t seed, std::uint64_t shard);

}  // namespace fpgasim
