// fpgadb: operations CLI over the content-addressed checkpoint store
// (src/flow/store, DESIGN.md §14).
//
//   fpgadb [--dir DIR] [--json] stats
//       index/cache health: entry count, bytes, per-kind breakdown,
//       orphan and missing files, in-process cache counters.
//   fpgadb [--dir DIR] [--json] verify
//       loads every indexed entry, re-checks its content hash against the
//       index line, DRC-gates the checkpoint and runs fpgalint over it.
//   fpgadb [--dir DIR] [--json] gc --keep-reachable MODEL[,MODEL...]
//       removes every entry not reachable from the named bundled models
//       (any cnn/zoo.h name) on the simulated device.
//
// The store directory defaults to FPGASIM_STORE_DIR. `--json` output is
// deterministic (sorted, no timing), so reports are byte-identical for
// any FPGASIM_THREADS width.
//
// Exit status: 0 = ok / clean, 1 = verify found problems (DRC or lint
// errors, hash mismatch), 2 = usage error or an entry that failed to load.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "cnn/zoo.h"
#include "drc/drc.h"
#include "flow/build.h"
#include "flow/store.h"
#include "lint/lint.h"
#include "netlist/checkpoint.h"
#include "util/json.h"

namespace {

using namespace fpgasim;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: fpgadb [--dir DIR] [--json] <command>\n"
               "\n"
               "commands:\n"
               "  stats                         store size, kinds, cache counters\n"
               "  verify                        hash + DRC + lint every entry\n"
               "  gc --keep-reachable MODELS    drop entries no listed model needs\n"
               "                                (MODELS: comma-separated subset of\n"
               "                                 %s)\n"
               "\n"
               "options:\n"
               "  --dir DIR   store directory (default: $FPGASIM_STORE_DIR)\n"
               "  --json      machine-readable output (deterministic)\n",
               zoo_model_names(",").c_str());
}

/// Component kind prefix of a signature ("conv", "pool", "fork", ...).
std::string kind_of(const std::string& key) {
  const std::size_t cut = key.find('_');
  return cut == std::string::npos ? key : key.substr(0, cut);
}

/// The bundled-model configurations (shared with the fpgalint CLI): the
/// store keys a model's sessions resolve are derived from these.
bool model_requests(const std::string& name, const Device& device,
                    std::vector<std::string>& keys) {
  const ZooEntry* entry = find_zoo_model(name);
  if (entry == nullptr) return false;
  const CnnModel model = entry->make();
  const ModelImpl impl = choose_implementation(model, entry->dsp_budget, entry->max_tile);
  const auto groups = default_grouping(model);
  for (const ComponentRequest& request : component_requests(model, impl, groups)) {
    keys.push_back(request.key);
  }
  (void)device;
  return true;
}

int run_stats(CheckpointStore& store, bool json) {
  const StoreStats stats = store.stats();
  std::vector<CheckpointStore::IndexEntry> entries = store.index_entries();
  std::map<std::string, std::size_t> kinds;
  for (const auto& entry : entries) ++kinds[kind_of(entry.key)];
  if (json) {
    JsonWriter out;
    out.begin_object();
    out.key("dir").value(store.dir());
    out.key("entries").value(stats.entries);
    out.key("disk_bytes").value(stats.disk_bytes);
    out.key("orphan_files").value(stats.orphan_files);
    out.key("missing_files").value(stats.missing_files);
    out.key("kinds").begin_object();
    for (const auto& [kind, count] : kinds) out.key(kind).value(count);
    out.end_object();
    out.key("cache").begin_object();
    out.key("budget_bytes").value(stats.cache_budget);
    out.key("entries").value(stats.cache_entries);
    out.key("bytes").value(stats.cache_bytes);
    out.key("hits").value(static_cast<std::size_t>(stats.hits));
    out.key("misses").value(static_cast<std::size_t>(stats.misses));
    out.key("evictions").value(static_cast<std::size_t>(stats.evictions));
    out.key("disk_loads").value(static_cast<std::size_t>(stats.disk_loads));
    out.key("puts").value(static_cast<std::size_t>(stats.puts));
    out.end_object();
    out.key("keys").begin_array();
    for (const auto& entry : entries) {
      out.begin_object();
      out.key("hash").value(entry.hash.hex());
      out.key("key").value(entry.key);
      out.key("bytes").value(entry.bytes);
      out.end_object();
    }
    out.end_array();
    out.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("store %s: %zu entries, %zu bytes on disk", store.dir().c_str(),
                stats.entries, stats.disk_bytes);
    if (stats.orphan_files > 0) std::printf(", %zu orphan(s)", stats.orphan_files);
    if (stats.missing_files > 0) std::printf(", %zu missing file(s)", stats.missing_files);
    std::printf("\n");
    for (const auto& [kind, count] : kinds) {
      std::printf("  %-10s %zu\n", kind.c_str(), count);
    }
    std::printf("cache: %zu/%zu bytes, %zu entries | hits %llu, misses %llu, "
                "evictions %llu, disk loads %llu\n",
                stats.cache_bytes, stats.cache_budget, stats.cache_entries,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.disk_loads));
  }
  return 0;
}

int run_verify(CheckpointStore& store, bool json) {
  int exit_code = 0;
  JsonWriter out;
  if (json) out.begin_array();
  for (const auto& entry : store.index_entries()) {
    std::string load_error;
    std::size_t drc_errors = 0, lint_errors = 0, lint_warnings = 0;
    bool hash_ok = CheckpointStore::content_hash(entry.key, entry.fabric) == entry.hash;
    if (!hash_ok && exit_code == 0) exit_code = 1;
    try {
      const Checkpoint checkpoint = load_checkpoint(entry.path);
      const DrcReport drc = run_checkpoint_drc(checkpoint);
      drc_errors = drc.errors();
      const lint::LintReport lint_report = lint::run(checkpoint.netlist);
      lint_errors = lint_report.errors();
      lint_warnings = lint_report.warnings();
      if ((drc_errors > 0 || lint_errors > 0) && exit_code == 0) exit_code = 1;
    } catch (const std::exception& e) {
      load_error = e.what();
      exit_code = 2;
    }
    if (json) {
      out.begin_object();
      out.key("hash").value(entry.hash.hex());
      out.key("key").value(entry.key);
      out.key("hash_consistent").value(hash_ok);
      if (!load_error.empty()) {
        out.key("load_error").value(load_error);
      } else {
        out.key("drc_errors").value(drc_errors);
        out.key("lint_errors").value(lint_errors);
        out.key("lint_warnings").value(lint_warnings);
      }
      out.end_object();
    } else if (!load_error.empty()) {
      std::fprintf(stderr, "fpgadb: %s (%s): load failed: %s\n", entry.key.c_str(),
                   entry.hash.hex().c_str(), load_error.c_str());
    } else {
      std::printf("%s %s: %s%zu drc error(s), %zu lint error(s), %zu lint warning(s)\n",
                  entry.hash.hex().c_str(), entry.key.c_str(),
                  hash_ok ? "" : "HASH MISMATCH, ", drc_errors, lint_errors,
                  lint_warnings);
    }
  }
  if (json) {
    out.end_array();
    std::printf("%s\n", out.str().c_str());
  }
  return exit_code;
}

int run_gc(CheckpointStore& store, const std::string& models, bool json) {
  const Device device = make_xcku5p_sim();
  const std::string fabric = fabric_signature(device);
  std::vector<std::string> keep_keys;
  std::string name;
  std::string rest = models + ",";
  for (char c : rest) {
    if (c != ',') {
      name += c;
      continue;
    }
    if (name.empty()) continue;
    if (!model_requests(name, device, keep_keys)) {
      std::fprintf(stderr, "fpgadb: unknown model '%s' (%s)\n", name.c_str(),
                   zoo_model_names().c_str());
      return 2;
    }
    name.clear();
  }
  std::vector<Hash128> keep;
  keep.reserve(keep_keys.size());
  for (const std::string& key : keep_keys) {
    keep.push_back(CheckpointStore::content_hash(key, fabric));
  }
  const std::size_t before = store.index_entries().size();
  const std::size_t removed = store.remove_unreferenced(keep);
  if (json) {
    JsonWriter out;
    out.begin_object();
    out.key("kept").value(before - removed);
    out.key("removed").value(removed);
    out.key("reachable_keys").value(keep_keys.size());
    out.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("gc: kept %zu, removed %zu (%zu reachable keys)\n", before - removed,
                removed, keep_keys.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  bool json = false;
  std::string command;
  std::string keep_models;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--keep-reachable" && i + 1 < argc) {
      keep_models = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fpgadb: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else if (command.empty()) {
      command = arg;
    } else {
      std::fprintf(stderr, "fpgadb: unexpected argument '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (command.empty()) {
    usage(stderr);
    return 2;
  }
  // The store library never reads the environment (an empty directory is
  // always memory-only); the CLI's default directory lives here.
  if (dir.empty()) {
    if (const char* env = std::getenv("FPGASIM_STORE_DIR")) dir = env;
  }
  StoreOptions options;
  options.dir = dir;
  CheckpointStore store(options);
  if (!store.persistent()) {
    std::fprintf(stderr,
                 "fpgadb: no store directory (pass --dir or set FPGASIM_STORE_DIR)\n");
    return 2;
  }
  if (command == "stats") return run_stats(store, json);
  if (command == "verify") return run_verify(store, json);
  if (command == "gc") {
    if (keep_models.empty()) {
      std::fprintf(stderr, "fpgadb: gc requires --keep-reachable MODEL[,MODEL...]\n");
      return 2;
    }
    return run_gc(store, keep_models, json);
  }
  std::fprintf(stderr, "fpgadb: unknown command '%s'\n", command.c_str());
  usage(stderr);
  return 2;
}
