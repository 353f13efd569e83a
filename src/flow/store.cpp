#include "flow/store.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "drc/drc.h"
#include "util/env.h"
#include "util/log.h"

namespace fpgasim {
namespace {

namespace fs = std::filesystem;

constexpr const char* kLayoutTag = "fpgasim-store-v1";
constexpr const char* kIndexName = "index.tsv";
constexpr std::size_t kDefaultCacheBytes = 256u << 20;  // 256 MiB

std::size_t resolve_cache_bytes(std::size_t requested) {
  if (requested > 0) return requested;
  if (const std::size_t bytes = env_positive("FPGASIM_STORE_CACHE_BYTES")) return bytes;
  return kDefaultCacheBytes;
}

std::size_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

}  // namespace

std::string fabric_signature(const Device& device) {
  std::ostringstream os;
  os << device.name() << "/" << device.width() << "x" << device.height() << "/cr"
     << device.clock_region_height() << "/";
  for (int x = 0; x < device.width(); ++x) {
    os << "CDBI"[static_cast<int>(device.column_type(x))];
  }
  return os.str();
}

std::size_t approx_checkpoint_bytes(const Checkpoint& cp) {
  const Netlist& nl = cp.netlist;
  std::size_t bytes = sizeof(Checkpoint);
  bytes += nl.cell_count() * (sizeof(Cell) + 4 * sizeof(NetId));
  for (NetId n = 0; n < nl.net_count(); ++n) {
    bytes += sizeof(Net) + nl.net(n).sinks.size() * sizeof(std::pair<CellId, std::uint16_t>);
  }
  for (const Port& port : nl.ports()) bytes += sizeof(Port) + port.name.size();
  for (std::size_t r = 0; r < nl.rom_count(); ++r) {
    bytes += nl.rom(static_cast<std::int32_t>(r)).size() * sizeof(std::uint64_t);
  }
  bytes += cp.phys.cell_loc.size() * sizeof(TileCoord);
  for (const RouteInfo& route : cp.phys.routes) {
    bytes += sizeof(RouteInfo) + route.edges.size() * sizeof(std::pair<TileCoord, TileCoord>) +
             route.sink_delays_ns.size() * sizeof(double);
  }
  bytes += cp.port_pins.size() * sizeof(TileCoord);
  return bytes;
}

Hash128 CheckpointStore::content_hash(const std::string& key, const std::string& fabric) {
  return Hasher().str(kLayoutTag).str(key).str(fabric).digest();
}

CheckpointStore::CheckpointStore(StoreOptions opt)
    : dir_(opt.dir),
      cache_budget_(resolve_cache_bytes(opt.cache_bytes)) {
  if (dir_.empty()) return;

  fs::create_directories(dir_);
  // Replay the append-only index. Malformed lines (a torn append from a
  // crashed writer) and duplicate hashes (last wins) are tolerated; an
  // entry whose file vanished is kept in the map and surfaces through
  // stats().missing_files rather than throwing here.
  std::ifstream in(dir_ + "/" + kIndexName);
  std::string line;
  std::size_t malformed = 0;
  while (std::getline(in, line)) {
    const std::size_t tab1 = line.find('\t');
    const std::size_t tab2 = tab1 == std::string::npos ? std::string::npos
                                                       : line.find('\t', tab1 + 1);
    if (tab1 != 32 || tab2 == std::string::npos) {
      ++malformed;
      continue;
    }
    IndexEntry entry;
    const std::string hex = line.substr(0, 32);
    bool ok = true;
    entry.hash = Hash128{};
    for (int i = 0; i < 32 && ok; ++i) {
      const char c = hex[static_cast<std::size_t>(i)];
      int v = -1;
      if (c >= '0' && c <= '9') v = c - '0';
      else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
      else ok = false;
      if (!ok) break;
      if (i < 16) entry.hash.hi = (entry.hash.hi << 4) | static_cast<std::uint64_t>(v);
      else entry.hash.lo = (entry.hash.lo << 4) | static_cast<std::uint64_t>(v);
    }
    if (!ok) {
      ++malformed;
      continue;
    }
    entry.key = line.substr(tab1 + 1, tab2 - tab1 - 1);
    entry.fabric = line.substr(tab2 + 1);
    entry.path = entry_path(entry.hash);
    index_[entry.hash] = std::move(entry);
  }
  if (malformed > 0) {
    LOG_WARN("checkpoint store '%s': skipped %zu malformed index line(s)", dir_.c_str(),
             malformed);
  }
}

std::string CheckpointStore::entry_path(const Hash128& hash) const {
  return dir_ + "/" + hash.hex() + ".fdcp";
}

std::shared_ptr<const Checkpoint> CheckpointStore::cache_find(const Hash128& hash) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cached_.find(hash);
  if (it == cached_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->checkpoint;
}

std::shared_ptr<const Checkpoint> CheckpointStore::cache_insert(
    const Hash128& hash, std::shared_ptr<const Checkpoint> cp) {
  const std::size_t bytes = approx_checkpoint_bytes(*cp);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cached_.find(hash);
  if (it != cached_.end()) {
    // A racing loader got here first; keep its entry (the bytes are
    // identical by the determinism contract).
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->checkpoint;
  }
  lru_.push_front(CacheEntry{hash, std::move(cp), bytes});
  cached_[hash] = lru_.begin();
  cache_bytes_ += bytes;
  // Evict from the cold end until the cache is back under budget; the
  // entry just inserted is always retained so an oversized checkpoint
  // still caches (once).
  while (cache_bytes_ > cache_budget_ && lru_.size() > 1) {
    const CacheEntry& victim = lru_.back();
    cache_bytes_ -= victim.bytes;
    cached_.erase(victim.hash);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return lru_.front().checkpoint;
}

bool CheckpointStore::contains(const std::string& key, const Device& device) const {
  const Hash128 hash = content_hash(key, fabric_signature(device));
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cached_.count(hash) != 0) return true;
  }
  return indexed(hash);
}

bool CheckpointStore::indexed(const Hash128& hash) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return index_.count(hash) != 0;
}

void CheckpointStore::release(const Hash128& hash) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.erase(hash);
}

CheckpointStore::Resolution CheckpointStore::resolve(const std::string& key,
                                                     const Device& device, bool claim) {
  const Hash128 hash = content_hash(key, fabric_signature(device));
  Resolution out;
  if ((out.checkpoint = cache_find(hash))) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::promise<std::shared_ptr<const Checkpoint>> promise;
  std::shared_future<std::shared_ptr<const Checkpoint>> loading;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if ((out.checkpoint = cache_find(hash))) return out;
    const auto it = inflight_.find(hash);
    if (it != inflight_.end() && it->second.build) {
      if (claim) out.pending = it->second.future;
      return out;
    }
    if (it != inflight_.end()) {
      loading = it->second.future;
    } else {
      const bool on_disk = indexed(hash);
      if (!on_disk && !claim) return out;
      inflight_[hash] = InFlight{promise.get_future().share(), !on_disk};
      if (!on_disk) {
        out.claim.reset(new Claim(*this, hash, key, device, std::move(promise)));
        return out;
      }
    }
  }
  if (loading.valid()) {
    out.checkpoint = loading.get();  // another caller's disk load
    return out;
  }
  // This caller owns the disk load; concurrent callers wait on `promise`.
  try {
    const std::string path = entry_path(hash);
    Checkpoint cp = load_checkpoint(path);
    // A store entry only becomes usable content if it passes the
    // checkpoint DRC (device-dependent rules run at use time).
    enforce(run_checkpoint_drc(cp), "store load '" + key + "' (" + path + ")");
    disk_loads_.fetch_add(1, std::memory_order_relaxed);
    out.checkpoint = cache_insert(hash, std::make_shared<const Checkpoint>(std::move(cp)));
  } catch (...) {
    release(hash);
    promise.set_exception(std::current_exception());
    throw;
  }
  release(hash);
  promise.set_value(out.checkpoint);
  return out;
}

CheckpointStore::Claim::~Claim() {
  if (open_) {
    fail(std::make_exception_ptr(
        std::runtime_error("checkpoint store: build of '" + key_ + "' was abandoned")));
  }
}

std::shared_ptr<const Checkpoint> CheckpointStore::Claim::fulfil(Checkpoint checkpoint) {
  auto shared = store_.put(key_, device_, std::move(checkpoint));
  store_.release(hash_);
  open_ = false;
  promise_.set_value(shared);
  return shared;
}

void CheckpointStore::Claim::fail(std::exception_ptr error) {
  store_.release(hash_);
  open_ = false;
  promise_.set_exception(std::move(error));
}

void CheckpointStore::append_index_line(const IndexEntry& entry) {
  std::ofstream out(dir_ + "/" + kIndexName, std::ios::app);
  out << entry.hash.hex() << '\t' << entry.key << '\t' << entry.fabric << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("checkpoint store: cannot append index in " + dir_);
  }
}

std::shared_ptr<const Checkpoint> CheckpointStore::put(const std::string& key,
                                                       const Device& device,
                                                       Checkpoint checkpoint) {
  const std::string fabric = fabric_signature(device);
  const Hash128 hash = content_hash(key, fabric);
  auto shared = std::make_shared<const Checkpoint>(std::move(checkpoint));
  if (!dir_.empty()) {
    if (!indexed(hash)) {
      // Atomic publish: serialize to a private temp file, rename into the
      // content-addressed name (rename is atomic within the directory),
      // then append the index line. A crash between the two leaves an
      // orphan file that stats() reports and a re-put heals.
      const std::string tmp = dir_ + "/tmp-" + hash.hex() + "-" +
                              std::to_string(tmp_counter_.fetch_add(1)) + ".part";
      save_checkpoint(tmp, *shared);
      std::error_code ec;
      fs::rename(tmp, entry_path(hash), ec);
      if (ec) {
        fs::remove(tmp, ec);
        throw std::runtime_error("checkpoint store: cannot publish entry for '" + key +
                                 "': " + ec.message());
      }
      IndexEntry entry;
      entry.hash = hash;
      entry.key = key;
      entry.fabric = fabric;
      entry.path = entry_path(hash);
      std::lock_guard<std::mutex> lock(index_mutex_);
      if (index_.count(hash) == 0) {
        append_index_line(entry);
        index_[hash] = std::move(entry);
        puts_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } else {
    puts_.fetch_add(1, std::memory_order_relaxed);
  }
  return cache_insert(hash, std::move(shared));
}

std::vector<CheckpointStore::IndexEntry> CheckpointStore::index_entries() const {
  std::vector<IndexEntry> entries;
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    entries.reserve(index_.size());
    for (const auto& [hash, entry] : index_) entries.push_back(entry);
  }
  for (IndexEntry& entry : entries) entry.bytes = file_bytes(entry.path);
  return entries;
}

std::size_t CheckpointStore::remove_unreferenced(const std::vector<Hash128>& keep) {
  if (dir_.empty()) return 0;
  std::lock_guard<std::mutex> index_lock(index_mutex_);
  std::map<Hash128, bool> keep_set;
  for (const Hash128& hash : keep) keep_set[hash] = true;
  std::size_t removed = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (keep_set.count(it->first) != 0) {
      ++it;
      continue;
    }
    std::error_code ec;
    fs::remove(it->second.path, ec);
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      const auto cached = cached_.find(it->first);
      if (cached != cached_.end()) {
        cache_bytes_ -= cached->second->bytes;
        lru_.erase(cached->second);
        cached_.erase(cached);
      }
    }
    it = index_.erase(it);
    ++removed;
  }
  // Rewrite the index atomically so dropped entries stay dropped.
  const std::string tmp = dir_ + "/" + kIndexName + ".rewrite";
  {
    std::ofstream out(tmp, std::ios::trunc);
    for (const auto& [hash, entry] : index_) {
      out << hash.hex() << '\t' << entry.key << '\t' << entry.fabric << '\n';
    }
    if (!out) throw std::runtime_error("checkpoint store: index rewrite failed in " + dir_);
  }
  fs::rename(tmp, dir_ + "/" + kIndexName);
  return removed;
}

StoreStats CheckpointStore::stats() const {
  StoreStats s;
  s.cache_budget = cache_budget_;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.disk_loads = disk_loads_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.puts = puts_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    s.cache_entries = lru_.size();
    s.cache_bytes = cache_bytes_;
  }
  std::lock_guard<std::mutex> lock(index_mutex_);
  s.entries = index_.size();
  for (const auto& [hash, entry] : index_) {
    const std::size_t bytes = file_bytes(entry.path);
    if (bytes == 0 && !fs::exists(entry.path)) ++s.missing_files;
    s.disk_bytes += bytes;
  }
  if (!dir_.empty() && fs::is_directory(dir_)) {
    for (const auto& file : fs::directory_iterator(dir_)) {
      if (file.path().extension() != ".fdcp") continue;
      const std::string stem = file.path().stem().string();
      bool indexed = false;
      for (const auto& [hash, entry] : index_) {
        if (hash.hex() == stem) {
          indexed = true;
          break;
        }
      }
      if (!indexed) ++s.orphan_files;
    }
  }
  return s;
}

}  // namespace fpgasim
