#include "flow/service.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "drc/drc.h"
#include "flow/build.h"
#include "util/log.h"
#include "util/timer.h"

namespace fpgasim {

CompileService::CompileService(const Device& device, CheckpointStore& store,
                               ServiceOptions opt)
    : device_(device), store_(store), opt_(opt) {}

std::uint64_t CompileService::component_seed(const OocOptions& base, const Hash128& hash) {
  return Hasher().u64(base.seed).u64(hash.hi).u64(hash.lo).digest().lo;
}

CompileService::SessionResult CompileService::compile(
    const CnnModel& model, const ModelImpl& impl,
    const std::vector<std::vector<int>>& groups, const PreImplOptions& opt,
    std::uint64_t seed_base) {
  SessionResult session;
  Stopwatch wall;
  const std::string fabric = fabric_signature(device_);

  // Plan: the unique components this model needs, in deterministic order.
  const std::vector<ComponentRequest> requests =
      component_requests(model, impl, groups, seed_base);
  session.components = requests.size();

  // Resolution ladder per component: LRU/disk via the store, else claim
  // the in-flight slot (first claimer builds) or collect the future of
  // whoever claimed it first.
  std::vector<std::shared_ptr<const Checkpoint>> resolved(requests.size());
  struct Claim {
    std::size_t index;
    Hash128 hash;
    std::promise<std::shared_ptr<const Checkpoint>> promise;
  };
  std::vector<Claim> owned;
  std::vector<std::pair<std::size_t, std::shared_future<std::shared_ptr<const Checkpoint>>>>
      waits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (auto hit = store_.get(requests[i].key, device_)) {
      resolved[i] = std::move(hit);
      ++session.store_hits;
      continue;
    }
    const Hash128 hash = CheckpointStore::content_hash(requests[i].key, fabric);
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(hash);
    if (it != inflight_.end()) {
      waits.emplace_back(i, it->second);
      ++session.dedup_waits;
    } else {
      Claim claim;
      claim.index = i;
      claim.hash = hash;
      inflight_[hash] = claim.promise.get_future().share();
      owned.push_back(std::move(claim));
    }
  }

  // Build every owned miss as one batched pool submission. Seeds are
  // content-derived, so the resulting checkpoints are byte-identical for
  // any pool width, session interleaving or request order. A failed build
  // is recorded (never thrown mid-batch): every claimed promise must be
  // fulfilled — with the value or the exception — or waiters in other
  // sessions would be stranded on a slot nobody owns anymore.
  std::atomic<std::size_t> built_here{0}, healed_hits{0};
  std::vector<std::exception_ptr> build_errors(owned.size());
  parallel_for(
      0, owned.size(),
      [&](std::size_t c) {
        Claim& claim = owned[c];
        const ComponentRequest& request = requests[claim.index];
        const auto release = [&](std::shared_ptr<const Checkpoint> value,
                                 std::exception_ptr error) {
          {
            std::lock_guard<std::mutex> lock(inflight_mutex_);
            inflight_.erase(claim.hash);
          }
          if (error) {
            claim.promise.set_exception(error);
          } else {
            claim.promise.set_value(std::move(value));
          }
        };
        try {
          // Heal the claim/put race: the store may have gained the entry
          // between our miss and the claim (another service instance, or
          // a put that landed after our get).
          if (auto hit = store_.get(request.key, device_)) {
            resolved[claim.index] = hit;
            healed_hits.fetch_add(1, std::memory_order_relaxed);
            release(std::move(hit), nullptr);
            return;
          }
          Netlist netlist = build_component_netlist(model, impl, request, seed_base);
          OocOptions local = opt_.ooc;
          local.seed = component_seed(opt_.ooc, claim.hash);
          OocResult result = implement_ooc(device_, std::move(netlist), local);
          // A freshly built component must pass the full checkpoint DRC
          // before it becomes shared store content.
          enforce_drc(run_checkpoint_drc(result.checkpoint, &device_),
                      "compile service build '" + request.key + "'");
          auto shared = store_.put(request.key, device_, std::move(result.checkpoint));
          resolved[claim.index] = shared;
          built_here.fetch_add(1, std::memory_order_relaxed);
          release(std::move(shared), nullptr);
        } catch (...) {
          build_errors[c] = std::current_exception();
          release(nullptr, build_errors[c]);
        }
      },
      opt_.pool);
  session.built = built_here.load();
  session.store_hits += healed_hits.load();
  for (const std::exception_ptr& error : build_errors) {
    if (error) std::rethrow_exception(error);
  }

  // Collect the components other sessions were already building; their
  // exceptions (a failed build) propagate to every waiter.
  for (auto& [index, future] : waits) resolved[index] = future.get();
  session.ensure_seconds = wall.seconds();

  // Re-entrant flow stage: everything the flow needs rides in locals, the
  // pinned shared_ptrs keep the checkpoints alive for the session.
  std::unordered_map<std::string, const Checkpoint*> by_key;
  by_key.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    by_key[requests[i].key] = resolved[i].get();
  }
  Stopwatch flow_watch;
  session.report = run_preimpl_cnn(
      device_, model, impl, groups,
      [&by_key](const std::string& key) -> const Checkpoint* {
        const auto it = by_key.find(key);
        return it == by_key.end() ? nullptr : it->second;
      },
      session.design, opt, seed_base);
  session.flow_seconds = flow_watch.seconds();
  session.wall_seconds = wall.seconds();

  sessions_.fetch_add(1, std::memory_order_relaxed);
  resolved_.fetch_add(session.components, std::memory_order_relaxed);
  store_hits_.fetch_add(session.store_hits, std::memory_order_relaxed);
  built_.fetch_add(session.built, std::memory_order_relaxed);
  dedup_waits_.fetch_add(session.dedup_waits, std::memory_order_relaxed);
  LOG_DEBUG("compile session '%s': %zu components (%zu hit, %zu built, %zu waited), "
            "%.3fs ensure + %.3fs flow",
            model.name().c_str(), session.components, session.store_hits, session.built,
            session.dedup_waits, session.ensure_seconds, session.flow_seconds);
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
  // Serialize through the canonical .fdcp writer (a temp file; the format
  // has no in-memory sink) and hash the bytes.
  static std::atomic<std::uint64_t> counter{0};
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fpgasim-fp-" + std::to_string(::getpid()) + "-" +
        std::to_string(counter.fetch_add(1)) + ".fdcp"))
          .string();
  Checkpoint cp;
  cp.netlist = design.netlist;
  cp.phys = design.phys;
  save_checkpoint(path, cp);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  return hash128(bytes.str()).hex();
}

}  // namespace fpgasim
