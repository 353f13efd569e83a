// fpgaserve: serving front-end for the multi-context inference engine.
//
// Composes a zoo model (or loads a `.fdcp` checkpoint) and serves a
// request stream of random inference vectors through sim/engine — the
// compiled plan is built once, N contexts shard the stream across the
// thread pool, and every Kth shard is statistically A/B'd against the
// interpreter oracle. `--soak` sizes the run at a million vectors.
//
// --json prints ONLY the width-invariant result object (model, vectors,
// checksum, fingerprint, oracle tallies) to stdout: running the same
// serve at FPGASIM_THREADS=1 and =4 must produce byte-identical output,
// which is exactly how the CI soak-smoke job checks the determinism
// contract. Timing goes to stderr so it never perturbs the comparison.
//
// Exit status: 0 = served with zero oracle failures,
//              1 = oracle divergence (first failure printed),
//              2 = usage error or a design that failed to build/load.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "cnn/zoo.h"
#include "flow/service.h"
#include "netlist/checkpoint.h"
#include "sim/engine/engine.h"
#include "util/env.h"
#include "util/json.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: fpgaserve --model NAME | checkpoint.fdcp [options]\n"
               "\n"
               "options:\n"
               "  --model NAME     serve a bundled network (%s)\n"
               "                   composed through the pre-implemented flow\n"
               "  --soak           serve 1,000,000 vectors (overridable by --vectors)\n"
               "  --vectors N      vectors to serve (default 65536; rounded up to\n"
               "                   whole 64-lane batches)\n"
               "  --cycles C       cycles per batch (default 32)\n"
               "  --check-every K  interpreter A/B audit every Kth shard; 0 = off\n"
               "                   (default 64)\n"
               "  --seed S         stimulus seed (default 1)\n"
               "  --contexts N     simulation contexts (default: pool width)\n"
               "  --json           deterministic result object on stdout (identical\n"
               "                   across FPGASIM_THREADS widths); timing on stderr\n"
               "  -h, --help       this message\n",
               fpgasim::zoo_model_names().c_str());
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpgasim;

  std::string model_name;
  std::string path;
  bool soak = false;
  bool json_out = false;
  std::uint64_t vectors = 65536;
  bool vectors_set = false;
  EngineOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--soak") {
      soak = true;
    } else if (arg == "--vectors" && i + 1 < argc) {
      vectors = count_arg<std::uint64_t>("fpgaserve", arg, argv[++i], 1);
      vectors_set = true;
    } else if (arg == "--cycles" && i + 1 < argc) {
      opt.cycles_per_batch = count_arg<int>("fpgaserve", arg, argv[++i], 1);
    } else if (arg == "--check-every" && i + 1 < argc) {
      opt.check_every = count_arg<std::size_t>("fpgaserve", arg, argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = count_arg<std::uint64_t>("fpgaserve", arg, argv[++i]);
    } else if (arg == "--contexts" && i + 1 < argc) {
      opt.contexts = count_arg<std::size_t>("fpgaserve", arg, argv[++i]);
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fpgaserve: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "fpgaserve: only one checkpoint per run\n");
      return 2;
    }
  }
  if (soak && !vectors_set) vectors = 1000000;
  if (model_name.empty() == path.empty()) {  // exactly one source
    usage(stderr);
    return 2;
  }

  Netlist netlist;
  std::string what;
  try {
    if (!path.empty()) {
      Checkpoint checkpoint = load_checkpoint(path);
      netlist = std::move(checkpoint.netlist);
      what = path;
    } else {
      const ZooEntry* entry = find_zoo_model(model_name);
      if (entry == nullptr) {
        std::fprintf(stderr, "fpgaserve: unknown model '%s' (%s)\n", model_name.c_str(),
                     zoo_model_names().c_str());
        return 2;
      }
      const Device device = make_xcku5p_sim();
      const CnnModel model = entry->make();
      const ModelImpl impl =
          choose_implementation(model, entry->dsp_budget, entry->max_tile);
      const auto groups = default_grouping(model);
      CheckpointStore store;
      CompileService service(device, store);
      netlist = std::move(service.compile(model, impl, groups).design.netlist);
      what = model_name + " (pre-implemented)";
    }

    InferenceEngine engine(netlist, opt);
    const EngineStats stats = engine.serve(vectors);

    if (json_out) {
      JsonWriter json;
      json.begin_object();
      json.key("design").value(what);
      json.key("cells").value(netlist.cell_count());
      json.key("vectors").value(static_cast<std::size_t>(stats.vectors));
      json.key("batches").value(static_cast<std::size_t>(stats.batches));
      json.key("cycles_per_batch").value(opt.cycles_per_batch);
      json.key("check_every").value(opt.check_every);
      json.key("seed").value(static_cast<std::size_t>(opt.seed));
      json.key("checksum").value(hex64(stats.checksum));
      json.key("fingerprint").value(hex64(stats.fingerprint()));
      json.key("oracle_checks").value(static_cast<std::size_t>(stats.oracle_checks));
      json.key("oracle_failures").value(static_cast<std::size_t>(stats.oracle_failures));
      json.key("ok").value(stats.ok());
      json.end_object();
      std::printf("%s\n", json.str().c_str());
      std::fprintf(stderr, "served %llu vectors in %.2fs: %.0f vec/s, %zu contexts, "
                   "%zu threads\n",
                   static_cast<unsigned long long>(stats.vectors), stats.wall_seconds,
                   stats.vectors_per_sec, stats.contexts, stats.threads);
    } else {
      std::printf("serve %-28s %zu cells | %llu vectors in %llu batches "
                  "(%d cycles/batch, %zu contexts, %zu threads)\n",
                  what.c_str(), netlist.cell_count(),
                  static_cast<unsigned long long>(stats.vectors),
                  static_cast<unsigned long long>(stats.batches), opt.cycles_per_batch,
                  stats.contexts, stats.threads);
      std::printf("  sustained: %.0f vectors/s (%.0f lane-cycles/s) over %.2fs\n",
                  stats.vectors_per_sec, stats.lane_cycles_per_sec, stats.wall_seconds);
      std::printf("  oracle: %llu checks, %llu failures | checksum %s | "
                  "fingerprint %s\n",
                  static_cast<unsigned long long>(stats.oracle_checks),
                  static_cast<unsigned long long>(stats.oracle_failures),
                  hex64(stats.checksum).c_str(), hex64(stats.fingerprint()).c_str());
    }
    if (stats.oracle_failures != 0) {
      std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), stats.first_failure.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpgaserve: %s: %s\n",
                 what.empty() ? (path.empty() ? model_name : path).c_str() : what.c_str(),
                 e.what());
    return 2;
  }
}
