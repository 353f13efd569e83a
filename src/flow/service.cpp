#include "flow/service.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "drc/drc.h"
#include "flow/build.h"
#include "util/timer.h"

namespace fpgasim {

CompileService::CompileService(const Device& device, CheckpointStore& store, ThreadPool* pool)
    : device_(device), store_(store), pool_(pool) {}

std::uint64_t CompileService::component_seed(const OocOptions& base, const Hash128& hash) {
  return Hasher().u64(base.seed).u64(hash.hi).u64(hash.lo).digest().lo;
}

CompileService::SessionResult CompileService::compile(
    const CnnModel& model, const ModelImpl& impl,
    const std::vector<std::vector<int>>& groups) {
  SessionResult session;
  Stopwatch wall;

  // Plan: the unique components this model needs, in deterministic order.
  const std::vector<ComponentRequest> requests = component_requests(model, impl, groups);
  session.components = requests.size();

  // Resolve every component through the store's claim ladder: a
  // checkpoint now, another session's pending build, or a claim this
  // session must build.
  std::vector<CheckpointStore::Resolution> found(requests.size());
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    found[i] = store_.resolve(requests[i].key, device_);
    if (found[i].claim) {
      owned.push_back(i);
    } else if (found[i].pending.valid()) {
      ++session.dedup_waits;
    } else {
      ++session.store_hits;
    }
  }

  // Build every owned claim as one batched pool submission. Seeds are
  // content-derived, so the resulting checkpoints are byte-identical for
  // any pool width, session interleaving or request order. A failed build
  // is recorded (never thrown mid-batch) and fails its claim, so waiters
  // in other sessions get the error and a later session may retry.
  std::vector<std::exception_ptr> build_errors(owned.size());
  parallel_for(
      0, owned.size(),
      [&](std::size_t c) {
        const ComponentRequest& request = requests[owned[c]];
        CheckpointStore::Resolution& slot = found[owned[c]];
        try {
          OocOptions ooc;
          ooc.seed = component_seed(ooc, slot.claim->hash());
          OocResult result =
              implement_ooc(device_, build_component_netlist(model, impl, request), ooc);
          // A freshly built component must pass the full checkpoint DRC
          // before it becomes shared store content.
          enforce(run_checkpoint_drc(result.checkpoint, &device_),
                  "compile service build '" + request.key + "'");
          slot.checkpoint = slot.claim->fulfil(std::move(result.checkpoint));
        } catch (...) {
          build_errors[c] = std::current_exception();
          slot.claim->fail(build_errors[c]);
        }
      },
      pool_);
  for (const std::exception_ptr& error : build_errors) {
    if (error) std::rethrow_exception(error);
  }
  session.built = owned.size();

  // Collect the components other sessions were already building; their
  // exceptions (a failed build) propagate to every waiter.
  for (CheckpointStore::Resolution& slot : found) {
    if (slot.pending.valid()) slot.checkpoint = slot.pending.get();
  }
  session.ensure_seconds = wall.seconds();

  // Re-entrant flow stage: everything the flow needs rides in locals, the
  // pinned shared_ptrs keep the checkpoints alive for the session.
  std::unordered_map<std::string, const Checkpoint*> by_key;
  by_key.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    by_key[requests[i].key] = found[i].checkpoint.get();
  }
  session.report = run_preimpl_cnn(
      device_, model, impl, groups,
      [&by_key](const std::string& key) -> const Checkpoint* {
        const auto it = by_key.find(key);
        return it == by_key.end() ? nullptr : it->second;
      },
      session.design);

  sessions_.fetch_add(1, std::memory_order_relaxed);
  resolved_.fetch_add(session.components, std::memory_order_relaxed);
  store_hits_.fetch_add(session.store_hits, std::memory_order_relaxed);
  built_.fetch_add(session.built, std::memory_order_relaxed);
  dedup_waits_.fetch_add(session.dedup_waits, std::memory_order_relaxed);
  return session;
}

CompileService::Stats CompileService::stats() const {
  Stats s;
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.components_resolved = resolved_.load(std::memory_order_relaxed);
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.built = built_.load(std::memory_order_relaxed);
  s.dedup_waits = dedup_waits_.load(std::memory_order_relaxed);
  return s;
}

std::string design_fingerprint(const ComposedDesign& design) {
  // Hash the canonical .fdcp encoding of the composed design.
  Checkpoint cp;
  cp.netlist = design.netlist;
  cp.phys = design.phys;
  return hash128(encode_checkpoint(cp)).hex();
}

}  // namespace fpgasim
