// bench_soak: traffic-scale serving soak over the model zoo (ROADMAP
// item 1). Every zoo model is composed through the pre-implemented flow,
// compiled ONCE into a SimPlan, and then served a million-vector request
// stream by the multi-context inference engine (sim/engine) at several
// thread-pool widths. Per model the bench asserts:
//   - the width sweep (FPGASIM_THREADS-equivalent pools of 1, 2 and 8)
//     produces byte-identical EngineStats fingerprints — the engine's
//     determinism contract, measured, not assumed;
//   - zero statistical-oracle failures (every Kth shard A/B'd against the
//     interpreter);
//   - exactly one plan compilation across the whole sweep (the compile
//     counter proves plan reuse across engines and widths);
//   - in full mode, >= 1M vectors actually served.
// Batches are 32 cycles; vgg16 is also served at 256 cycles per batch
// (section "vgg16_256") to show what the per-batch context reset costs.
// The multi-thread speedup gate (8-thread >= 4x 1-thread on LeNet) is
// enforced only on hosts with >= 8 hardware threads — on smaller hosts the
// measured speedup is still reported, with the gate marked unenforced.
//
// Results land in BENCH_soak.json (--out to redirect), one section per
// model plus a "host" section, as a CI trend line next to BENCH_sim.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cnn/zoo.h"
#include "sim/engine/engine.h"

using namespace fpgasim;

namespace {

struct WidthRun {
  std::size_t width = 0;
  EngineStats stats;
  double wall_seconds = 0.0;  // the serve() call

  double per_second(std::uint64_t count) const {
    return wall_seconds > 0.0 ? static_cast<double>(count) / wall_seconds : 0.0;
  }
  double vectors_per_sec() const { return per_second(stats.vectors); }
  double lane_cycles_per_sec() const { return per_second(stats.lane_cycles); }
};

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_soak.json";
  std::uint64_t vectors_override = 0;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--vectors" && i + 1 < argc) {
      vectors_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--model" && i + 1 < argc) {
      only.push_back(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_soak [--smoke] [--out FILE] [--vectors N] "
                   "[--model NAME ...]\n");
      return 2;
    }
  }

  // Full mode: >= 1M vectors per model (rounded up to whole batches).
  // Smoke mode: a short leg per model — same gates, CI-sized.
  const std::uint64_t vectors =
      vectors_override != 0 ? vectors_override : (smoke ? 16384 : 1000000);
  const std::vector<std::size_t> widths = {1, 2, 8};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const bool enforce_speedup = !smoke && hw >= 8;

  const Device device = make_xcku5p_sim();
  bool all_ok = true;

  for (const ZooEntry& entry : model_zoo()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), entry.name) == only.end()) {
      continue;
    }
    // Compose through the pre-implemented flow (the paper's fast path; the
    // monolithic baseline is covered by bench_table3/bench_fig7).
    const CnnModel model = entry.make();
    const ModelImpl impl = choose_implementation(model, entry.dsp_budget, entry.max_tile);
    const auto groups = default_grouping(model);
    CheckpointStore store;
    CompileService service(device, store);
    const ComposedDesign composed = service.compile(model, impl, groups).design;

    const std::uint64_t plans_before = SimPlan::plans_compiled();
    const auto plan = SimPlan::compile(composed.netlist);

    // vgg16 also serves 256-cycle batches: the gap between its 32- and
    // 256-cycle throughput is what a per-batch context reset costs.
    std::vector<int> batch_cycles{32};
    if (std::string(entry.name) == "vgg16") batch_cycles.push_back(256);
    double vectors_per_sec_32 = 0.0;
    for (const int cycles : batch_cycles) {
      std::string section = entry.name;
      if (cycles != 32) section += "_" + std::to_string(cycles);
      EngineOptions opt;
      opt.seed = 1;
      opt.cycles_per_batch = cycles;
      std::vector<WidthRun> runs;
      for (const std::size_t width : widths) {
        ThreadPool pool(width);
        opt.contexts = width;
        InferenceEngine engine(composed.netlist, plan, opt, &pool);
        const Stopwatch watch;
        EngineStats stats = engine.serve(vectors);
        runs.push_back({width, std::move(stats), watch.seconds()});
      }
      const std::uint64_t plans_compiled = SimPlan::plans_compiled() - plans_before;

      bool identical = true;
      for (const WidthRun& r : runs) {
        identical &= r.stats.fingerprint() == runs[0].stats.fingerprint();
      }
      std::uint64_t oracle_failures = 0;
      for (const WidthRun& r : runs) oracle_failures += r.stats.oracle_failures;
      const WidthRun& serial = runs.front();
      const WidthRun& wide = runs.back();
      const double speedup = serial.vectors_per_sec() > 0
                                 ? wide.vectors_per_sec() / serial.vectors_per_sec()
                                 : 0.0;
      if (cycles == 32) vectors_per_sec_32 = wide.vectors_per_sec();

      bool ok = identical && oracle_failures == 0 && plans_compiled == 1;
      for (const WidthRun& r : runs) ok &= r.stats.ok();
      if (!smoke && vectors_override == 0) ok &= wide.stats.vectors >= 1000000;
      if (enforce_speedup && section == "lenet") ok &= speedup >= 4.0;
      all_ok &= ok;

      std::printf(
          "soak [%s]: %zu cells | %llu vectors x %zu widths | best %.0f vec/s "
          "(%.0f lane-cyc/s, width %zu) | serial %.0f vec/s | speedup %.2fx%s | "
          "oracle %llu checks, %llu failures | fingerprint %s %s | plan compiles %llu%s\n",
          section.c_str(), composed.netlist.cell_count(),
          static_cast<unsigned long long>(wide.stats.vectors), widths.size(),
          wide.vectors_per_sec(), wide.lane_cycles_per_sec(), wide.width,
          serial.vectors_per_sec(), speedup,
          enforce_speedup ? "" : " (gate unenforced: host too small)",
          static_cast<unsigned long long>(wide.stats.oracle_checks),
          static_cast<unsigned long long>(oracle_failures),
          hex64(runs[0].stats.fingerprint()).c_str(),
          identical ? "(identical across widths)" : "(WIDTHS DIVERGE)",
          static_cast<unsigned long long>(plans_compiled), ok ? "" : "  ** FAIL");
      if (!runs[0].stats.first_failure.empty()) {
        std::fprintf(stderr, "  first oracle failure: %s\n",
                     runs[0].stats.first_failure.c_str());
      }

      JsonWriter json;
      json.begin_object();
      json.key("model").value(entry.name);
      json.key("cells").value(composed.netlist.cell_count());
      json.key("vectors").value(static_cast<std::size_t>(wide.stats.vectors));
      json.key("batches").value(static_cast<std::size_t>(wide.stats.batches));
      json.key("cycles_per_batch").value(opt.cycles_per_batch);
      json.key("check_every").value(opt.check_every);
      json.key("contexts").value(wide.stats.contexts);
      json.key("lanes").value(InferenceEngine::kLanes);
      json.key("checksum").value(hex64(runs[0].stats.checksum));
      json.key("fingerprint").value(hex64(runs[0].stats.fingerprint()));
      json.key("identical_widths").value(identical);
      json.key("oracle_checks").value(static_cast<std::size_t>(wide.stats.oracle_checks));
      json.key("oracle_failures").value(static_cast<std::size_t>(oracle_failures));
      json.key("plans_compiled").value(static_cast<std::size_t>(plans_compiled));
      json.key("widths");
      json.begin_array();
      for (const WidthRun& r : runs) {
        json.begin_object();
        json.key("threads").value(r.width);
        json.key("wall_seconds").value(r.wall_seconds);
        json.key("vectors_per_sec").value(r.vectors_per_sec());
        json.key("lane_cycles_per_sec").value(r.lane_cycles_per_sec());
        json.end_object();
      }
      json.end_array();
      json.key("sustained_vectors_per_sec").value(wide.vectors_per_sec());
      json.key("sustained_lane_cycles_per_sec").value(wide.lane_cycles_per_sec());
      json.key("speedup_widest_vs_serial").value(speedup);
      if (cycles != 32 && wide.vectors_per_sec() > 0) {
        // How many times faster than the 32-cycle row, at the widest width.
        json.key("vs_32_cycle_batches").value(wide.vectors_per_sec() / vectors_per_sec_32);
      }
      json.key("ok").value(ok);
      json.end_object();
      if (update_json_file(out_path, section, json.str())) {
        std::printf("wrote %s (%s section)\n", out_path.c_str(), section.c_str());
      }
    }
  }

  JsonWriter host;
  host.begin_object();
  bench::write_host_block(host);
  host.key("hardware_concurrency").value(static_cast<std::size_t>(hw));
  host.key("speedup_gate_enforced").value(enforce_speedup);
  host.key("smoke").value(smoke);
  host.end_object();
  update_json_file(out_path, "host", host.str());

  return all_ok ? 0 : 1;
}
