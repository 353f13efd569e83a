// Figure 7 (rendered as a table in the paper): VGG-16 per-component
// frequency/latency and the full-network comparison (paper: 200 MHz
// baseline vs 243 MHz pre-implemented = 1.22x, latency 55.13 -> 56.67 ms
// = 1.02x).
#include "bench_common.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick" || arg == "--smoke") quick = true;
  }
  const Device device = make_xcku5p_sim();
  NetworkRun run = run_network(device, make_vgg16(), quick ? 384 : 1024, 14);

  print_perf_table("Fig. 7: VGG-16 performance exploration", run, true);
  // Latency is cycles / Fmax with the same cycles on both sides.
  std::printf("Fmax gain %.2fx (paper 1.22x), latency ratio %.2fx (paper 1.02x)\n",
              run.pre.timing.fmax_mhz / run.mono.timing.fmax_mhz,
              run.mono.timing.fmax_mhz / run.pre.timing.fmax_mhz);
  std::puts("(paper components: 300-475 MHz, baseline VGG 200 MHz, composed 243 MHz;");
  std::puts(" fabric discontinuities around IO columns stretch VGG's datapaths, which");
  std::puts(" the routing model reproduces with its IO-column crossing penalty.)");

  // Simulation-engine throughput on the composed VGG netlist (DESIGN.md
  // §13), merged into BENCH_sim.json next to bench_table3's sections.
  const SimThroughput vgg = measure_sim_throughput(
      run.composed.netlist, quick ? "vgg16_preimpl_quick" : "vgg16_preimpl",
      quick ? 16 : 24, 7, 8);
  print_sim_throughput(vgg);
  JsonWriter json;
  emit_sim_throughput(json, vgg);
  if (update_json_file("BENCH_sim.json", "vgg16", json.str())) {
    std::puts("wrote BENCH_sim.json (vgg16 section)");
  }
  return vgg.ok() ? 0 : 1;
}
