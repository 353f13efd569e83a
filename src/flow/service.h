// Compile-as-a-service (DESIGN.md §14): admits many concurrent
// `run_preimpl_flow` sessions against one content-addressed
// CheckpointStore. Component resolution is the store's claim ladder — LRU
// cache, on-disk store, build — so identical in-flight builds are
// deduplicated: the second session requesting a component blocks on the
// first's future instead of rebuilding. The claims of one session are
// built as a single pool submission (parallel_for over the owned builds).
//
// Determinism contract: a component's OOC seed derives from its content
// hash alone (never from arrival order, session index or pool width), so
// a given (signature, fabric) pair maps to byte-identical checkpoint
// files no matter which session, process or thread width built it first.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "fabric/device.h"
#include "flow/ooc.h"
#include "flow/preimpl.h"
#include "flow/store.h"
#include "util/thread_pool.h"

namespace fpgasim {

struct ServiceOptions {
  /// Function-optimization knobs for component builds. The seed field is
  /// a base that is mixed with each component's content hash; see
  /// component_seed().
  OocOptions ooc;
  /// Pool the batched component builds run on (global pool when null).
  ThreadPool* pool = nullptr;
};

class CompileService {
 public:
  CompileService(const Device& device, CheckpointStore& store, ServiceOptions opt = {});

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  struct SessionResult {
    PreImplReport report;
    ComposedDesign design;
    std::size_t components = 0;   // unique components the model needs
    std::size_t store_hits = 0;   // resolved from cache/disk, no build
    std::size_t built = 0;        // built (and persisted) by this session
    std::size_t dedup_waits = 0;  // waited on another session's build
    double ensure_seconds = 0.0;  // component resolution incl. builds
  };

  /// One compile session: resolves every component the grouping needs
  /// (cache -> disk -> deduplicated build), then runs the pre-implemented
  /// flow. Thread-safe; any number of sessions may run concurrently. Must
  /// not be called from a worker of the build pool (a session blocks on
  /// futures its own pool may be executing).
  SessionResult compile(const CnnModel& model, const ModelImpl& impl,
                        const std::vector<std::vector<int>>& groups,
                        const PreImplOptions& opt = {}, std::uint64_t seed_base = 1000);

  /// Process-wide counters across all sessions of this service.
  struct Stats {
    std::uint64_t sessions = 0;
    std::uint64_t components_resolved = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t built = 0;
    std::uint64_t dedup_waits = 0;
  };
  Stats stats() const;

  /// The content-derived component build seed: base.seed mixed with the
  /// component's 128-bit content hash. Arrival order never enters.
  static std::uint64_t component_seed(const OocOptions& base, const Hash128& hash);

 private:
  const Device& device_;
  CheckpointStore& store_;
  ServiceOptions opt_;

  std::atomic<std::uint64_t> sessions_{0}, resolved_{0}, store_hits_{0}, built_{0},
      dedup_waits_{0};
};

/// Stable fingerprint of a composed design: the 128-bit content hash of
/// its serialized checkpoint bytes (netlist + physical state). Two runs
/// produced byte-identical designs iff their fingerprints match; used by
/// the service bench/tests to assert determinism across thread widths.
std::string design_fingerprint(const ComposedDesign& design);

}  // namespace fpgasim
