// Relocation-placer benchmark: the paper's Alg. 1 at paper scale (a
// VGG-class chain), on a branching residual topology, and on a dense
// synthetic ~40-component scenario — the regime toolflow surveys scale to
// and where the seed placer's full-recompute evaluation was the wall.
// Each scenario runs the incremental kernel serially, the incremental
// kernel with 4-thread multi-start, and the full-recompute A/B baseline;
// placements must be byte-identical between the incremental and full
// paths (the bench exits non-zero otherwise, making the CI smoke run a
// functional check). Results merge into BENCH_place.json.
//
// Usage: bench_place [--smoke]   (--smoke: 1 repetition instead of 5)
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fabric/device.h"
#include "place/macro_placer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

struct Scenario {
  std::string name;
  std::vector<MacroItem> items;
  std::vector<MacroNet> nets;
};

void edge(Scenario& s, int a, int b) { s.nets.push_back(MacroNet{{a, b}, 1.0}); }

MacroItem item(const std::string& name, int w, int h) {
  return MacroItem{name, Pblock{0, 0, w - 1, h - 1}};
}

/// VGG-16 granularity: 14 pre-implemented components in a linear chain.
Scenario vgg_chain() {
  Scenario s;
  s.name = "vgg_chain";
  const int widths[] = {8, 10, 12, 14};
  const int heights[] = {16, 20, 24, 32};
  for (int i = 0; i < 14; ++i) {
    s.items.push_back(item("vgg" + std::to_string(i), widths[i % 4], heights[(i * 3) % 4]));
    if (i > 0) edge(s, i - 1, i);
  }
  return s;
}

/// Two stacked residual blocks: stem -> (conv-conv | 1x1 skip) -> add,
/// then again, then a tail — the branching-DFG shape of PR 4.
Scenario resblock() {
  Scenario s;
  s.name = "resblock";
  const char* names[] = {"stem", "b1conv1", "b1conv2", "b1skip", "b1add",
                         "mid",  "b2conv1", "b2conv2", "b2skip", "b2add", "tail"};
  const int widths[] = {10, 12, 12, 8, 8, 10, 12, 12, 8, 8, 10};
  const int heights[] = {20, 24, 24, 12, 16, 20, 24, 24, 12, 16, 20};
  for (int i = 0; i < 11; ++i) s.items.push_back(item(names[i], widths[i], heights[i]));
  edge(s, 0, 1);
  edge(s, 0, 3);
  edge(s, 1, 2);
  edge(s, 2, 4);
  edge(s, 3, 4);
  edge(s, 4, 5);
  edge(s, 5, 6);
  edge(s, 5, 8);
  edge(s, 6, 7);
  edge(s, 7, 9);
  edge(s, 8, 9);
  edge(s, 9, 10);
  return s;
}

/// Dense synthetic scenario: 40 mixed-size components with the heavy
/// connectivity of skip/concat-style CNN graphs — a chain, skip edges,
/// 3-pin fan-out nets, and extra random 2-pin nets (fixed seed). Roughly
/// 4.4 nets per component, well past the paper's LeNet/VGG chains.
Scenario dense40() {
  Scenario s;
  s.name = "dense40";
  const int count = 40;
  const int widths[] = {6, 8, 10, 12, 14};
  const int heights[] = {12, 16, 20, 24};
  Rng rng(7);
  for (int i = 0; i < count; ++i) {
    const int w = widths[rng.next_below(5)];
    const int h = heights[rng.next_below(4)];
    s.items.push_back(item("d" + std::to_string(i), w, h));
    if (i > 0) edge(s, i - 1, i);
    if (i >= 3 && i % 3 == 0) edge(s, i - 3, i);
    if (i >= 5 && i % 5 == 0) s.nets.push_back(MacroNet{{i - 5, i - 2, i}, 1.0});
  }
  for (int e = 0; e < count * 3; ++e) {
    const int a = static_cast<int>(rng.next_below(count));
    const int b = static_cast<int>(rng.next_below(count));
    if (a != b) edge(s, a, b);
  }
  return s;
}

struct Sample {
  MacroPlaceResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Sample run_variant(const Device& device, const Scenario& s, std::size_t width,
                   bool incremental, int reps) {
  ThreadPool pool(width);
  MacroPlaceOptions opt;
  opt.pool = &pool;
  opt.incremental = incremental;
  Sample best;
  for (int r = 0; r < reps; ++r) {
    const Stopwatch wall;
    const CpuStopwatch cpu;
    MacroPlaceResult result = place_macros(device, s.items, s.nets, opt);
    const double wall_s = wall.seconds(), cpu_s = cpu.seconds();
    if (r == 0 || wall_s < best.wall_s) {
      best.wall_s = wall_s;
      best.cpu_s = cpu_s;
      best.result = std::move(result);
    }
  }
  return best;
}

void emit_variant(JsonWriter& json, const char* key, const Sample& sample) {
  const MacroPlaceResult& r = sample.result;
  json.key(key).begin_object();
  json.key("wall_s").value(sample.wall_s);
  json.key("cpu_s").value(sample.cpu_s);
  json.key("success").value(r.success);
  json.key("cost_evals").value(r.stats.cost_evals);
  json.key("nets_touched").value(r.stats.nets_touched);
  json.key("overlap_tests").value(r.stats.overlap_tests);
  json.key("winner_start").value(r.stats.winner_start);
  json.key("backtracks_winner").value(r.backtracks);
  json.key("timing_cost").value(r.timing_cost);
  json.key("congestion_cost").value(r.congestion_cost);
  json.end_object();
}

/// Placements must not depend on the evaluation path: offsets and costs
/// byte-identical between the incremental kernel and the full recompute.
bool identical(const MacroPlaceResult& a, const MacroPlaceResult& b) {
  return a.success == b.success && a.offsets == b.offsets &&
         a.timing_cost == b.timing_cost && a.congestion_cost == b.congestion_cost;
}

}  // namespace
}  // namespace fpgasim

int main(int argc, char** argv) {
  using namespace fpgasim;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 1 : 5;
  const Device device = make_xcku5p_sim();

  std::printf("bench_place: relocation placer (Alg. 1), %d repetition(s), %u hardware threads\n",
              reps, std::thread::hardware_concurrency());
  std::printf("%-10s %5s %5s | %12s %12s %12s | %8s %10s\n", "scenario", "comps", "nets",
              "inc_serial_s", "inc_4thr_s", "full_serial", "speedup", "cost_evals");

  JsonWriter json;
  json.begin_object();
  bench::write_host_block(json);
  json.key("smoke").value(smoke);
  json.key("scenarios").begin_object();

  bool ok = true;
  for (const Scenario& s : {vgg_chain(), resblock(), dense40()}) {
    const Sample inc_serial = run_variant(device, s, 1, true, reps);
    const Sample inc_thr4 = run_variant(device, s, 4, true, reps);
    const Sample full_serial = run_variant(device, s, 1, false, reps);
    if (!inc_serial.result.success) {
      std::fprintf(stderr, "FAIL %s: placement failed: %s\n", s.name.c_str(),
                   inc_serial.result.error.c_str());
      ok = false;
    }
    if (!identical(inc_serial.result, full_serial.result) ||
        !identical(inc_serial.result, inc_thr4.result)) {
      std::fprintf(stderr,
                   "FAIL %s: incremental/full or serial/4-thread placements diverge\n",
                   s.name.c_str());
      ok = false;
    }
    const double speedup =
        inc_serial.wall_s > 0.0 ? full_serial.wall_s / inc_serial.wall_s : 0.0;
    std::printf("%-10s %5zu %5zu | %12.4f %12.4f %12.4f | %7.2fx %10ld\n", s.name.c_str(),
                s.items.size(), s.nets.size(), inc_serial.wall_s, inc_thr4.wall_s,
                full_serial.wall_s, speedup, inc_serial.result.stats.cost_evals);

    json.key(s.name).begin_object();
    json.key("components").value(s.items.size());
    json.key("nets").value(s.nets.size());
    emit_variant(json, "incremental_serial", inc_serial);
    emit_variant(json, "incremental_threads4", inc_thr4);
    emit_variant(json, "full_serial", full_serial);
    json.key("speedup_incremental_vs_full").value(speedup);
    json.end_object();
  }
  json.end_object();
  json.end_object();

  if (update_json_file("BENCH_place.json", "bench_place", json.str())) {
    std::puts("wrote BENCH_place.json (bench_place section)");
  }
  return ok ? 0 : 1;
}
