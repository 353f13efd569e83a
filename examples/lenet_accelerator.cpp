// LeNet-5 accelerator (paper Sec. V-B1): weights hard-coded in ROM, six
// pre-implemented components (conv1, pool1+relu, conv2, pool2+relu, fc1,
// fc2). Fills a checkpoint store, runs both flows, prints the
// per-component performance exploration and runs a digit image through
// the composed accelerator.
#include <cstdio>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace fpgasim;

int main(int argc, char** argv) {
  const bool run_inference = !(argc > 1 && std::string(argv[1]) == "--no-sim");
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, /*dsp_budget=*/144);
  const auto groups = default_grouping(model);

  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  const PreImplReport& pre = session.report;
  const ComposedDesign& accelerator = session.design;

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  Table perf("LeNet performance exploration (cf. paper Table III)");
  perf.set_header({"component", "Fmax (MHz)", "cycles", "latency (us)"});
  double slowest = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::string key = group_signature(model, impl, groups[g]);
    const auto cp = store.get(key, device);
    const ComponentLatency lat = group_latency(model, impl, groups[g], cp->meta.fmax_mhz);
    perf.add_row({cp->netlist.name(), Table::fmt(cp->meta.fmax_mhz, 1),
                  std::to_string(lat.cycles), Table::fmt(lat.latency_us(), 2)});
    if (slowest == 0.0 || cp->meta.fmax_mhz < slowest) slowest = cp->meta.fmax_mhz;
  }
  long total_cycles = 0;
  for (const auto& group : groups) {
    total_cycles += group_latency(model, impl, group, 1.0).cycles;
  }
  perf.add_row({"classic (monolithic)", Table::fmt(mono.timing.fmax_mhz, 1),
                std::to_string(total_cycles),
                Table::fmt(total_cycles / mono.timing.fmax_mhz, 2)});
  perf.add_row({"pre-implemented", Table::fmt(pre.timing.fmax_mhz, 1),
                std::to_string(total_cycles),
                Table::fmt(total_cycles / pre.timing.fmax_mhz, 2)});
  perf.print();
  std::printf("Fmax gain: %.2fx; network bounded by slowest component (%.1f MHz)\n",
              pre.timing.fmax_mhz / mono.timing.fmax_mhz, slowest);

  if (run_inference) {
    Tensor digit = Tensor::zeros(1, 32, 32);
    Rng rng(1234);
    for (auto& v : digit.data) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
    }
    const auto expected = reference_inference(model, digit);

    std::printf("running one 32x32 image through the composed accelerator...\n");
    Stopwatch sw;
    Simulator sim(accelerator.netlist);
    sim.set_input("out_ready", 1);
    sim.set_input("in_valid", 1);
    for (const Fixed16& v : digit.data) {
      sim.set_input("in_data", static_cast<std::uint16_t>(v.raw));
      sim.step();
    }
    sim.set_input("in_valid", 0);
    std::vector<Fixed16> scores;
    long guard = 0;
    while (scores.size() < expected.size() && guard++ < 30000000) {
      sim.step();
      if (sim.get_output("out_valid") == 1) {
        scores.push_back(Fixed16{static_cast<std::int16_t>(
            static_cast<std::uint16_t>(sim.get_output("out_data")))});
      }
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < scores.size(); ++i) mismatches += (scores[i] != expected[i]);
    std::printf("10 class scores in %llu cycles (%.1fs simulated), %zu mismatches%s\n",
                static_cast<unsigned long long>(sim.cycle()), sw.seconds(), mismatches,
                mismatches == 0 && scores.size() == expected.size() ? " -- MATCHES GOLDEN"
                                                                    : " -- MISMATCH");
    return mismatches == 0 ? 0 : 1;
  }
  return 0;
}
