// Content-addressed persistent checkpoint store (DESIGN.md §14): the
// paper's "database of pre-built checkpoints" (Fig. 3) turned into a
// cross-process artifact. Entries are keyed by a 128-bit content hash of
// (component signature, fabric signature); the on-disk layout is an
// append-friendly index file plus one immutable `.fdcp` per entry, written
// atomically (temp file + rename). An in-memory sharded LRU cache with a
// configurable byte budget makes repeated gets cheap: a checkpoint is
// deserialized — and DRC/lint-gated — at most once per process while it
// stays resident.
#pragma once

#include <atomic>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "netlist/checkpoint.h"
#include "util/hash.h"

namespace fpgasim {

/// Stable identity of the fabric a checkpoint was implemented against:
/// device name, column layout and clock-region geometry. Part of the
/// content hash — the same component signature on a different fabric is a
/// different store entry (relocation anchors would not line up).
std::string fabric_signature(const Device& device);

struct StoreOptions {
  /// On-disk root directory. Empty runs the store memory-only (the cache
  /// is then authoritative, and an eviction loses the entry — fine for
  /// tests and one-shot tools, not for a shared database). No environment
  /// variable overrides this; fpgadb reads FPGASIM_STORE_DIR itself.
  std::string dir;
  /// In-memory cache byte budget. 0 selects FPGASIM_STORE_CACHE_BYTES
  /// (bytes) when set, else 256 MiB. The budget is split evenly across
  /// the shards; a shard always retains at least its most recent entry.
  std::size_t cache_bytes = 0;
  /// Cache shard count (each shard has its own mutex + LRU list).
  std::size_t shards = 8;
  /// Opt-in fpgalint gate on disk loads (the DRC gate always runs).
  bool lint = false;
};

struct StoreStats {
  std::size_t entries = 0;        // on-disk index entries
  std::size_t disk_bytes = 0;     // sum of entry file sizes
  std::size_t orphan_files = 0;   // *.fdcp present on disk but not indexed
  std::size_t missing_files = 0;  // indexed but file absent
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_budget = 0;
  std::uint64_t hits = 0;        // gets served from the in-memory cache
  std::uint64_t misses = 0;      // gets that had to go to disk (or failed)
  std::uint64_t disk_loads = 0;  // deserialize + gate round trips
  std::uint64_t evictions = 0;   // LRU entries dropped over budget
  std::uint64_t puts = 0;        // new entries persisted
};

/// Rough in-memory footprint of a checkpoint (structural payload; used
/// for the cache byte accounting). Deterministic for a given checkpoint.
std::size_t approx_checkpoint_bytes(const Checkpoint& checkpoint);

class CheckpointStore {
 public:
  explicit CheckpointStore(StoreOptions opt = {});

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// The content hash: Hasher over a layout tag, the component signature
  /// and the fabric signature. Entry filenames are `<hex>.fdcp`.
  static Hash128 content_hash(const std::string& key, const std::string& fabric);

  struct IndexEntry {
    Hash128 hash;
    std::string key;     // component signature
    std::string fabric;  // fabric signature
    std::string path;    // entry file path ("" when memory-only)
    std::size_t bytes = 0;
  };

  /// True when the entry exists (in cache or on disk).
  bool contains(const std::string& key, const Device& device) const;

  /// The right to build an entry nobody holds. Until the holder fulfil()s
  /// or fail()s it, every other resolve() of the entry gets its pending
  /// future; dropping it unresolved fails it.
  class Claim {
   public:
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim();
    const Hash128& hash() const { return hash_; }
    /// put()s the checkpoint, frees the slot, then wakes the waiters.
    std::shared_ptr<const Checkpoint> fulfil(Checkpoint checkpoint);
    /// Frees the slot for a later claim, then hands `error` to the waiters.
    void fail(std::exception_ptr error);

   private:
    friend class CheckpointStore;
    Claim(CheckpointStore& store, const Hash128& hash, const std::string& key,
          const Device& device, std::promise<std::shared_ptr<const Checkpoint>> promise)
        : store_(store), hash_(hash), key_(key), device_(device), promise_(std::move(promise)) {}

    CheckpointStore& store_;
    Hash128 hash_;
    std::string key_;
    const Device& device_;
    std::promise<std::shared_ptr<const Checkpoint>> promise_;
    bool open_ = true;
  };

  /// What resolve() found; exactly one member is set.
  struct Resolution {
    std::shared_ptr<const Checkpoint> checkpoint;  // cache, or a disk load
    std::shared_future<std::shared_ptr<const Checkpoint>> pending;  // another caller's build
    std::unique_ptr<Claim> claim;  // absent everywhere: the caller builds it
  };

  /// The claim ladder, cache -> disk -> build. A cache hit takes only the
  /// shard lock. A disk entry is deserialized, DRC gated (plus fpgalint
  /// when StoreOptions::lint) and cached once per residency; concurrent
  /// callers wait for that load. Without `claim`, an absent entry or one
  /// being built resolves to nothing. Throws when an entry fails to load.
  Resolution resolve(const std::string& key, const Device& device, bool claim = true);

  /// The checkpoint resolve() finds without claiming; nullptr when absent.
  std::shared_ptr<const Checkpoint> get(const std::string& key, const Device& device) {
    return resolve(key, device, /*claim=*/false).checkpoint;
  }

  /// Persists a checkpoint (atomic temp-file + rename, then an index
  /// append) and inserts it into the cache. Content-addressed: a put of
  /// an already-present hash is a no-op beyond refreshing the cache (the
  /// determinism contract makes the bytes identical). Returns the cached
  /// pointer.
  std::shared_ptr<const Checkpoint> put(const std::string& key, const Device& device,
                                        Checkpoint checkpoint);

  /// Snapshot of the on-disk index, sorted by hash. bytes is the current
  /// file size (0 when the file is missing).
  std::vector<IndexEntry> index_entries() const;

  /// Removes every on-disk entry whose hash is not in `keep` (cache
  /// included) and rewrites the index file atomically. Returns the number
  /// of entries removed.
  std::size_t remove_unreferenced(const std::vector<Hash128>& keep);

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }
  bool persistent() const { return !dir_.empty(); }

 private:
  struct CacheEntry {
    Hash128 hash;
    std::shared_ptr<const Checkpoint> checkpoint;
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<CacheEntry> lru;  // front = most recently used
    std::map<Hash128, std::list<CacheEntry>::iterator> map;
    std::size_t bytes = 0;
  };

  Shard& shard_for(const Hash128& hash) const;
  std::shared_ptr<const Checkpoint> cache_find(const Hash128& hash);
  std::shared_ptr<const Checkpoint> cache_insert(const Hash128& hash,
                                                 std::shared_ptr<const Checkpoint> cp);
  bool indexed(const Hash128& hash) const;
  void release(const Hash128& hash);
  std::string entry_path(const Hash128& hash) const;
  void append_index_line(const IndexEntry& entry);

  std::string dir_;
  std::size_t cache_budget_ = 0;
  bool lint_ = false;

  mutable std::mutex index_mutex_;
  std::map<Hash128, IndexEntry> index_;

  // One slot per entry being loaded or built. An owner caches its result
  // before it frees its slot and the ladder re-checks the cache under
  // this lock, so a miss never races a finishing owner into a rerun.
  struct InFlight {
    std::shared_future<std::shared_ptr<const Checkpoint>> future;
    bool build = false;  // a Claim's build, else a disk load
  };
  std::mutex inflight_mutex_;
  std::map<Hash128, InFlight> inflight_;

  mutable std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0}, misses_{0}, disk_loads_{0}, evictions_{0}, puts_{0};
  std::atomic<std::uint64_t> tmp_counter_{0};
};

}  // namespace fpgasim
