// Compile-as-a-service (flow/store + flow/service): the content-addressed
// checkpoint store round-trips through disk and restarts, the LRU honors
// its byte budget, and concurrent deduplicating sessions build each
// component signature exactly once while composing byte-identical designs
// at any build-pool width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "flow/build.h"
#include "flow/service.h"
#include "flow/store.h"
#include "util/latch.h"

namespace fpgasim {
namespace {

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("fpgasim_svc_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct ServiceFixture {
  Device device = make_xcku5p_sim();

  struct Spec {
    CnnModel model;
    ModelImpl impl;
    std::vector<std::vector<int>> groups;
  };
  // Two small networks with disjoint component sets: a linear chain and a
  // branching resblock (adds a stream fork), so concurrent sessions mix
  // shared and unique signatures.
  Spec chain, branch;

  ServiceFixture() {
    chain.model = parse_arch_def(R"(network chain
input 2 14 14
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=4 k=3
pool p2 k=2
)");
    chain.impl = choose_implementation(chain.model, 12);
    chain.groups = default_grouping(chain.model);
    branch.model = make_resblock_net();
    branch.impl = choose_implementation(branch.model, 16);
    branch.groups = default_grouping(branch.model);
  }

  /// Unique component signatures across the given specs.
  std::size_t unique_components(const std::vector<const Spec*>& specs) const {
    std::set<std::string> keys;
    for (const Spec* spec : specs) {
      for (const ComponentRequest& request :
           component_requests(spec->model, spec->impl, spec->groups)) {
        keys.insert(request.key);
      }
    }
    return keys.size();
  }

  /// Runs one latch-aligned concurrent session per entry of `picks`
  /// (indexing {chain, branch}) and returns the per-session results.
  std::vector<CompileService::SessionResult> run_sessions(
      CompileService& service, const std::vector<int>& picks) {
    std::vector<CompileService::SessionResult> results(picks.size());
    std::vector<std::string> errors(picks.size());
    Latch start(picks.size() + 1);
    std::vector<std::thread> threads;
    threads.reserve(picks.size());
    for (std::size_t s = 0; s < picks.size(); ++s) {
      threads.emplace_back([&, s] {
        start.arrive_and_wait();
        const Spec& spec = picks[s] == 0 ? chain : branch;
        try {
          results[s] = service.compile(spec.model, spec.impl, spec.groups);
        } catch (const std::exception& e) {
          errors[s] = e.what();
        }
      });
    }
    start.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    for (std::size_t s = 0; s < picks.size(); ++s) {
      EXPECT_EQ(errors[s], "") << "session " << s;
    }
    return results;
  }
};

TEST(CheckpointStore, RoundTripsThroughDiskAndRestart) {
  ServiceFixture fixture;
  const std::string dir = fresh_dir("roundtrip");
  StoreOptions opt;
  opt.dir = dir;
  const auto requests = component_requests(fixture.chain.model, fixture.chain.impl,
                                           fixture.chain.groups);
  ASSERT_FALSE(requests.empty());
  const std::string key = requests[0].key;
  {
    CheckpointStore store(opt);
    EXPECT_FALSE(store.contains(key, fixture.device));
    EXPECT_EQ(store.get(key, fixture.device), nullptr);
    Netlist netlist = build_component_netlist(fixture.chain.model, fixture.chain.impl,
                                              requests[0]);
    OocResult built = implement_ooc(fixture.device, std::move(netlist), {});
    auto put = store.put(key, fixture.device, std::move(built.checkpoint));
    ASSERT_NE(put, nullptr);
    EXPECT_TRUE(store.contains(key, fixture.device));
    auto got = store.get(key, fixture.device);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got.get(), put.get());  // served from the cache, same object
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_GE(stats.hits, 1u);
  }
  {
    // Restart: a fresh store over the same directory replays the index and
    // deserializes the entry from disk.
    CheckpointStore store(opt);
    EXPECT_TRUE(store.contains(key, fixture.device));
    auto got = store.get(key, fixture.device);
    ASSERT_NE(got, nullptr);
    EXPECT_FALSE(got->netlist.name().empty());
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.disk_loads, 1u);
    // A second get is a pure cache hit.
    EXPECT_NE(store.get(key, fixture.device), nullptr);
    EXPECT_EQ(store.stats().disk_loads, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, EvictsToByteBudgetAndReloadsFromDisk) {
  ServiceFixture fixture;
  const std::string dir = fresh_dir("evict");
  StoreOptions opt;
  opt.dir = dir;
  opt.cache_bytes = 1;  // every insert evicts the previous entry
  CheckpointStore store(opt);
  const auto requests = component_requests(fixture.chain.model, fixture.chain.impl,
                                           fixture.chain.groups);
  ASSERT_GE(requests.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    Netlist netlist =
        build_component_netlist(fixture.chain.model, fixture.chain.impl, requests[i]);
    OocResult built = implement_ooc(fixture.device, std::move(netlist), {});
    ASSERT_NE(store.put(requests[i].key, fixture.device, std::move(built.checkpoint)),
              nullptr);
  }
  // Both entries stay reachable; the cold one comes back via a disk load.
  EXPECT_NE(store.get(requests[0].key, fixture.device), nullptr);
  EXPECT_NE(store.get(requests[1].key, fixture.device), nullptr);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.disk_loads, 0u);
  EXPECT_LE(stats.cache_entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, RemoveUnreferencedDropsExactlyTheUnreachable) {
  ServiceFixture fixture;
  const std::string dir = fresh_dir("gc");
  StoreOptions opt;
  opt.dir = dir;
  CheckpointStore store(opt);
  const std::string fabric = fabric_signature(fixture.device);
  const auto requests = component_requests(fixture.chain.model, fixture.chain.impl,
                                           fixture.chain.groups);
  ASSERT_GE(requests.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    Netlist netlist =
        build_component_netlist(fixture.chain.model, fixture.chain.impl, requests[i]);
    OocResult built = implement_ooc(fixture.device, std::move(netlist), {});
    store.put(requests[i].key, fixture.device, std::move(built.checkpoint));
  }
  const std::size_t removed = store.remove_unreferenced(
      {CheckpointStore::content_hash(requests[0].key, fabric)});
  EXPECT_EQ(removed, 1u);
  EXPECT_TRUE(store.contains(requests[0].key, fixture.device));
  EXPECT_FALSE(store.contains(requests[1].key, fixture.device));
  // The index rewrite survives a restart.
  CheckpointStore reopened(opt);
  EXPECT_TRUE(reopened.contains(requests[0].key, fixture.device));
  EXPECT_FALSE(reopened.contains(requests[1].key, fixture.device));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, ConcurrentDiskLoadsAreDeduplicated) {
  const Device device = make_xcku5p_sim();
  const std::string dir = fresh_dir("load_dedup");
  StoreOptions opt;
  opt.dir = dir;
  // LeNet's first FC layer (400 -> 120) keeps its weights in ROMs, which
  // makes its load the slowest of LeNet's components: a wide window for
  // readers to share.
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 16);
  const auto groups = default_grouping(model);  // requests point into it
  const auto requests = component_requests(model, impl, groups);
  const auto fc = std::find_if(requests.begin(), requests.end(), [](const ComponentRequest& r) {
    return r.key.rfind("fc_", 0) == 0;
  });
  ASSERT_NE(fc, requests.end());
  const std::string key = fc->key;
  {
    CheckpointStore store(opt);
    OocResult built = implement_ooc(device, build_component_netlist(model, impl, *fc), {});
    ASSERT_NE(store.put(key, device, std::move(built.checkpoint)), nullptr);
  }
  // Each reopen leaves the entry on disk only. Eight latch-aligned readers
  // must share one deserialization and one cached object; several rounds
  // give the readers many chances to overlap a load.
  for (int round = 0; round < 10; ++round) {
    CheckpointStore store(opt);
    constexpr std::size_t kReaders = 8;
    std::vector<std::shared_ptr<const Checkpoint>> got(kReaders);
    Latch start(kReaders + 1);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = store.get(key, device);
      });
    }
    start.arrive_and_wait();
    for (std::thread& thread : threads) thread.join();
    ASSERT_NE(got[0], nullptr);
    for (std::size_t t = 1; t < kReaders; ++t) EXPECT_EQ(got[t].get(), got[0].get()) << t;
    EXPECT_EQ(store.stats().disk_loads, 1u) << "round " << round;
  }
  std::filesystem::remove_all(dir);
}

TEST(CompileService, FailedBuildReachesEveryWaiterAndFreesItsClaim) {
  // One conv layer whose only component needs far more DSPs than the tiny
  // device has, so every build of it fails.
  const CnnModel model = parse_arch_def(R"(network too_wide
input 16 8 8
conv c1 out=16 k=3
)");
  const ModelImpl impl = choose_implementation(model, 256);
  const auto groups = default_grouping(model);
  const auto requests = component_requests(model, impl, groups);
  ASSERT_EQ(requests.size(), 1u);
  const Device device = make_tiny_device();
  const std::string kNoFit = "does not fit the device";

  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    CheckpointStore store;
    ThreadPool pool(width);
    ServiceOptions service_opt;
    service_opt.pool = &pool;
    CompileService service(device, store, service_opt);
    // Sessions share one exception object. Each keeps its own reference
    // and the messages are read after the join, so the object is only
    // touched by one thread at a time.
    const auto compile_error = [&]() -> std::exception_ptr {
      try {
        service.compile(model, impl, groups);
      } catch (...) {
        return std::current_exception();
      }
      return nullptr;
    };
    const auto message = [](const std::exception_ptr& error) -> std::string {
      if (!error) return "compiled without error";
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        return e.what();
      }
    };

    constexpr std::size_t kSessions = 4;
    std::vector<std::exception_ptr> errors(kSessions);
    Latch start(kSessions + 1);
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        start.arrive_and_wait();
        errors[s] = compile_error();
      });
    }
    start.arrive_and_wait();
    for (std::thread& thread : threads) thread.join();
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::string text = message(errors[s]);
      EXPECT_NE(text.find(kNoFit), std::string::npos)
          << "session " << s << " at width " << width << ": " << text;
    }
    EXPECT_EQ(service.stats().built, 0u);
    EXPECT_EQ(store.stats().cache_entries, 0u);
    EXPECT_EQ(store.get(requests[0].key, device), nullptr);

    // The failed claims freed their slot: the entry is claimable again,
    // and a later session builds it anew instead of reading a stale future.
    {
      CheckpointStore::Resolution again = store.resolve(requests[0].key, device);
      EXPECT_NE(again.claim, nullptr);
      EXPECT_FALSE(again.pending.valid());
    }  // dropped unresolved, which frees the slot again
    const std::string later = message(compile_error());
    EXPECT_NE(later.find(kNoFit), std::string::npos) << later;
    EXPECT_EQ(service.stats().built, 0u);
  }
}

TEST(CompileService, ConcurrentSessionsBuildEachSignatureOnce) {
  ServiceFixture fixture;
  // 8 concurrent sessions, mixed networks, at build-pool widths 1 and 4.
  const std::vector<int> picks{0, 1, 0, 1, 0, 1, 0, 1};
  const std::size_t unique =
      fixture.unique_components({&fixture.chain, &fixture.branch});
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const std::string dir = fresh_dir("dedup_w" + std::to_string(width));
    StoreOptions store_opt;
    store_opt.dir = dir;
    CheckpointStore store(store_opt);
    ThreadPool pool(width);
    ServiceOptions service_opt;
    service_opt.pool = &pool;
    CompileService service(fixture.device, store, service_opt);
    const auto results = fixture.run_sessions(service, picks);

    const CompileService::Stats stats = service.stats();
    EXPECT_EQ(stats.sessions, picks.size());
    // The dedup invariant: every signature is built exactly once no matter
    // how many sessions raced for it; everything else was a store hit or a
    // wait on the in-flight build.
    EXPECT_EQ(stats.built, unique) << "width " << width;
    EXPECT_EQ(store.stats().entries, unique);
    EXPECT_EQ(stats.store_hits + stats.built + stats.dedup_waits,
              stats.components_resolved);
    for (const auto& result : results) {
      EXPECT_EQ(result.components,
                result.store_hits + result.built + result.dedup_waits);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CompileService, ConcurrentSessionsMatchSerialByteForByte) {
  ServiceFixture fixture;
  // Serial reference: one session per network on a private store.
  std::string serial_chain, serial_branch;
  {
    const std::string dir = fresh_dir("serial");
    StoreOptions opt;
    opt.dir = dir;
    CheckpointStore store(opt);
    CompileService service(fixture.device, store);
    serial_chain = design_fingerprint(
        service.compile(fixture.chain.model, fixture.chain.impl, fixture.chain.groups)
            .design);
    serial_branch = design_fingerprint(
        service.compile(fixture.branch.model, fixture.branch.impl, fixture.branch.groups)
            .design);
    std::filesystem::remove_all(dir);
  }
  EXPECT_NE(serial_chain, serial_branch);

  const std::vector<int> picks{0, 1, 1, 0, 0, 1, 0, 1};
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    const std::string dir = fresh_dir("concurrent_w" + std::to_string(width));
    StoreOptions store_opt;
    store_opt.dir = dir;
    CheckpointStore store(store_opt);
    ThreadPool pool(width);
    ServiceOptions service_opt;
    service_opt.pool = &pool;
    CompileService service(fixture.device, store, service_opt);
    const auto results = fixture.run_sessions(service, picks);
    for (std::size_t s = 0; s < picks.size(); ++s) {
      EXPECT_EQ(design_fingerprint(results[s].design),
                picks[s] == 0 ? serial_chain : serial_branch)
          << "session " << s << " at width " << width;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(CompileService, RestartResolvesEverythingFromTheStore) {
  // Both model inputs — a chain and a branching DFG whose store also holds
  // a stream-fork checkpoint — survive a restart byte for byte.
  ServiceFixture fixture;
  const std::string dir = fresh_dir("restart");
  StoreOptions opt;
  opt.dir = dir;
  const std::vector<const ServiceFixture::Spec*> specs{&fixture.chain, &fixture.branch};
  std::vector<std::string> first_prints;
  {
    CheckpointStore store(opt);
    CompileService service(fixture.device, store);
    for (const ServiceFixture::Spec* spec : specs) {
      const auto result = service.compile(spec->model, spec->impl, spec->groups);
      EXPECT_EQ(result.built, result.components);
      first_prints.push_back(design_fingerprint(result.design));
    }
  }
  {
    // Simulated restart: new store, new service, same directory. Nothing
    // is rebuilt and the composed designs are byte-identical.
    CheckpointStore store(opt);
    EXPECT_EQ(store.stats().entries, fixture.unique_components(specs));
    EXPECT_TRUE(store.contains(fork_signature(2), fixture.device));
    CompileService service(fixture.device, store);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto result = service.compile(specs[i]->model, specs[i]->impl, specs[i]->groups);
      EXPECT_EQ(result.built, 0u);
      EXPECT_EQ(result.store_hits, result.components);
      EXPECT_EQ(design_fingerprint(result.design), first_prints[i]) << "model " << i;
    }
    EXPECT_EQ(store.stats().disk_loads, fixture.unique_components(specs));
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, EmptyDirIsMemoryOnlyEvenWithTheStoreDirVariableSet) {
  // Only fpgadb reads FPGASIM_STORE_DIR; a library caller asking for a
  // memory-only store must get one whatever the environment says.
  const char* previous = std::getenv("FPGASIM_STORE_DIR");
  const std::string saved = previous != nullptr ? previous : "";
  const std::string dir = fresh_dir("env");
  ::setenv("FPGASIM_STORE_DIR", dir.c_str(), 1);
  bool persistent = true;
  {
    CheckpointStore store(StoreOptions{});
    persistent = store.persistent();
  }
  const bool created = std::filesystem::exists(dir);
  if (previous != nullptr) {
    ::setenv("FPGASIM_STORE_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("FPGASIM_STORE_DIR");
  }
  EXPECT_FALSE(persistent);
  EXPECT_FALSE(created) << "a memory-only store must not create " << dir;
  std::filesystem::remove_all(dir);
}

TEST(CompileService, MemoryOnlyStoreStillDedupes) {
  ServiceFixture fixture;
  StoreOptions opt;  // no directory: the cache is authoritative
  opt.dir.clear();
  CheckpointStore store(opt);
  EXPECT_FALSE(store.persistent());
  CompileService service(fixture.device, store);
  const auto first =
      service.compile(fixture.chain.model, fixture.chain.impl, fixture.chain.groups);
  EXPECT_EQ(first.built, first.components);
  const auto second =
      service.compile(fixture.chain.model, fixture.chain.impl, fixture.chain.groups);
  EXPECT_EQ(second.built, 0u);
  EXPECT_EQ(second.store_hits, second.components);
  EXPECT_EQ(design_fingerprint(first.design), design_fingerprint(second.design));
}

}  // namespace
}  // namespace fpgasim
