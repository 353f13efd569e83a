// Table III: LeNet performance exploration — per-component Fmax and
// latency, full-network classic implementation vs. the pre-implemented
// composition (paper: 375 MHz -> 437 MHz, 1.75x; latency essentially
// unchanged; the composed Fmax is bounded by the slowest component).
#include <cstring>

#include "bench_common.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Device device = make_xcku5p_sim();
  NetworkRun run = run_network(device, make_lenet5(), kLenet.dsp_budget, kLenet.max_tile);

  const long total_cycles =
      print_perf_table("Table III: LeNet performance exploration", run, false);
  std::printf("Fmax gain: %.2fx (paper: 1.75x)\n",
              run.pre.timing.fmax_mhz / run.mono.timing.fmax_mhz);
  std::printf("image-pipelined throughput (initiation interval = slowest component): "
              "classic %.0f img/s, pre-implemented %.0f img/s\n",
              pipeline_throughput(run.model, run.impl, run.groups,
                                  run.mono.timing.fmax_mhz),
              pipeline_throughput(run.model, run.impl, run.groups,
                                  run.pre.timing.fmax_mhz));
  std::printf("latency ratio preimpl/classic at achieved clocks: %.2fx (paper: ~1.0x,"
              " 249.7 -> 249.1 ns)\n",
              (total_cycles / run.pre.timing.fmax_mhz) /
                  (total_cycles / run.mono.timing.fmax_mhz));
  std::puts("(conv1 at 562 MHz, pool+relu 633, conv2 475, pool2 588, fc1 497, fc2 543 in");
  std::puts(" the paper; our absolute MHz differ — simulated fabric — the ordering and");
  std::puts(" bound-by-slowest behaviour are the reproduced observables.)");

  // Simulation-engine throughput (DESIGN.md §13): interpreter vs the
  // levelized bit-parallel compiled simulator on the final composed
  // netlists, A/B-checked bit-identical first. Sections merge into
  // BENCH_sim.json next to bench_fig7's vgg16 section.
  const int cycles = smoke ? 48 : 256;
  const SimThroughput lenet =
      measure_sim_throughput(run.composed.netlist, "lenet_preimpl", cycles);
  print_sim_throughput(lenet);

  NetworkRun resblock = run_network(device, make_resblock_net(), 64);
  const SimThroughput resb =
      measure_sim_throughput(resblock.composed.netlist, "resblock_preimpl", cycles);
  print_sim_throughput(resb);

  for (const SimThroughput* r : {&lenet, &resb}) {
    JsonWriter json;
    emit_sim_throughput(json, *r);
    const std::string key = r == &lenet ? "lenet" : "resblock";
    if (update_json_file("BENCH_sim.json", key, json.str())) {
      std::printf("wrote BENCH_sim.json (%s section)\n", key.c_str());
    }
  }

  bool ok = lenet.ok() && resb.ok();
  if (smoke && ok) {
    // CI smoke contract: the compiled engine really ran every cycle.
    std::printf("smoke: compiled path used (%llu + %llu cycles), bit-identical\n",
                static_cast<unsigned long long>(lenet.compiled_cycles),
                static_cast<unsigned long long>(resb.compiled_cycles));
  }
  return ok ? 0 : 1;
}
