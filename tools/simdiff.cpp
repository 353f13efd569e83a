// simdiff: standalone compiled-vs-interpreter equivalence checker.
//
// Runs the A/B oracle (sim/compiled.h: compare_compiled_vs_interpreter)
// over a netlist — either a `.fdcp` checkpoint or one of the bundled CNN
// accelerators built in-process through the pre-implemented flow (and,
// with --mono, the monolithic baseline too). Every input port of every
// lane is re-randomized each cycle from a seeded generator, then each
// requested lane is replayed through the interpreter and every output
// port is compared pre- and post-edge.
//
// Exit status: 0 = bit-identical on every checked design,
//              1 = at least one divergence (printed),
//              2 = usage error or a design that failed to build/load.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cnn/model.h"
#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "netlist/checkpoint.h"
#include "sim/compiled.h"
#include "util/env.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: simdiff [options] [checkpoint.fdcp ...]\n"
               "\n"
               "options:\n"
               "  --model NAME   check a bundled network (%s)\n"
               "                 composed through the pre-implemented flow\n"
               "  --mono         with --model, also check the monolithic baseline\n"
               "  --cycles N     cycles of random stimulus (default 32)\n"
               "  --vectors N    size the run in inference vectors instead: the cycle\n"
               "                 count becomes ceil(N / 64) (one 64-lane frame per\n"
               "                 cycle); overrides --cycles, for scripted long soaks\n"
               "  --seed S       stimulus seed (default 1)\n"
               "  --lanes N      interpreter replays of the 64-lane batch: 0 = all,\n"
               "                 else N <= 64 evenly spread lanes (default 4)\n"
               "  -h, --help     this message\n",
               fpgasim::zoo_model_names().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpgasim;

  std::string model_name;
  bool mono = false;
  int cycles = 32;
  std::uint64_t vectors = 0;  // 0 = use --cycles directly
  std::uint64_t seed = 1;
  int lane_count = 4;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--mono") {
      mono = true;
    } else if (arg == "--cycles" && i + 1 < argc) {
      cycles = count_arg<int>("simdiff", arg, argv[++i], 1);
    } else if (arg == "--vectors" && i + 1 < argc) {
      vectors = count_arg<std::uint64_t>("simdiff", arg, argv[++i], 0,
                                          std::uint64_t{INT32_MAX} * 64);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = count_arg<std::uint64_t>("simdiff", arg, argv[++i]);
    } else if (arg == "--lanes" && i + 1 < argc) {
      lane_count = count_arg<int>("simdiff", arg, argv[++i], 0, 64);
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "simdiff: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() && model_name.empty()) {
    usage(stderr);
    return 2;
  }
  // One cycle drives one 64-lane frame = 64 inference vectors.
  if (vectors > 0) cycles = static_cast<int>((vectors + 63) / 64);

  std::vector<int> lanes;
  for (int i = 0; i < lane_count; ++i) {
    lanes.push_back(lane_count == 1 ? 0 : i * 63 / (lane_count - 1));
  }

  int exit_code = 0;
  const auto check = [&](const Netlist& netlist, const std::string& what) {
    const std::string diff = compare_compiled_vs_interpreter(netlist, cycles, seed, lanes);
    if (diff.empty()) {
      std::printf("ok   %-28s %zu cells, %d cycles x %zu lanes, seed %llu\n",
                  what.c_str(), netlist.cell_count(), cycles,
                  lanes.empty() ? std::size_t{64} : lanes.size(),
                  static_cast<unsigned long long>(seed));
    } else {
      std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), diff.c_str());
      if (exit_code == 0) exit_code = 1;
    }
  };

  for (const std::string& path : paths) {
    try {
      const Checkpoint checkpoint = load_checkpoint(path);
      check(checkpoint.netlist, path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "simdiff: %s: load failed: %s\n", path.c_str(), e.what());
      exit_code = 2;
    }
  }

  if (!model_name.empty()) {
    const ZooEntry* entry = find_zoo_model(model_name);
    if (entry == nullptr) {
      std::fprintf(stderr, "simdiff: unknown model '%s' (%s)\n", model_name.c_str(),
                   zoo_model_names().c_str());
      return 2;
    }
    const CnnModel model = entry->make();
    try {
      const Device device = make_xcku5p_sim();
      const ModelImpl impl = choose_implementation(model, entry->dsp_budget, entry->max_tile);
      const std::vector<std::vector<int>> groups = default_grouping(model);
      CheckpointStore store;
      CompileService service(device, store);
      check(service.compile(model, impl, groups).design.netlist,
            model_name + " (pre-implemented)");
      if (mono) {
        Netlist flat = build_flat_netlist(model, impl, groups);
        PhysState phys;
        run_monolithic_flow(device, flat, phys);
        check(flat, model_name + " (monolithic)");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "simdiff: %s: flow failed: %s\n", model_name.c_str(), e.what());
      exit_code = 2;
    }
  }
  return exit_code;
}
