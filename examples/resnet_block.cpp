// Residual block accelerator: the branching-DFG counterpart of the LeNet
// example. A conv feeds both a skip edge and a conv-conv branch that
// re-join in a streaming element-wise add — so the component graph needs
// a stream fork, two-input join matching, and DFG-aware relocation
// placement. Fills a checkpoint store (groups + fork), runs the
// pre-implemented and monolithic flows, and pushes a tensor through the
// composed accelerator against the golden reference.
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
  const CnnModel model = make_resblock_net();
  const ModelImpl impl = choose_implementation(model, /*dsp_budget=*/16);
  const auto groups = default_grouping(model);

  std::printf("residual block as an arch-def (note the from= edges):\n%s\n",
              to_arch_def(model).c_str());

  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  const PreImplReport& pre = session.report;
  const ComposedDesign& accelerator = session.design;
  std::printf("component store: %zu checkpoints (%zu groups + stream fork)\n",
              session.components, groups.size());

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  Table table("residual block: composed DFG instances");
  table.set_header({"instance", "pblock", "cells"});
  for (const auto& inst : accelerator.instances) {
    char pblock[48];
    std::snprintf(pblock, sizeof pblock, "(%d,%d)-(%d,%d)", inst.footprint.x0,
                  inst.footprint.y0, inst.footprint.x1, inst.footprint.y1);
    table.add_row({inst.name, pblock,
                   std::to_string(inst.cell_end - inst.cell_begin)});
  }
  table.print();
  std::printf("stream edges stitched: %zu; Fmax pre-implemented %.1f MHz vs "
              "monolithic %.1f MHz; stitching %.1f%% of the online flow\n",
              accelerator.macro_nets.size(), pre.timing.fmax_mhz,
              mono.timing.fmax_mhz, pre.stitch_fraction() * 100.0);

  if (run_inference) {
    Tensor input = Tensor::zeros(2, 8, 8);
    Rng rng(4321);
    for (auto& v : input.data) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
    }
    const auto expected = reference_inference(model, input);

    std::printf("running a 2x8x8 tensor through the composed accelerator...\n");
    Stopwatch sw;
    Simulator sim(accelerator.netlist);
    sim.set_input("out_ready", 1);
    sim.set_input("in_valid", 1);
    for (const Fixed16& v : input.data) {
      sim.set_input("in_data", static_cast<std::uint16_t>(v.raw));
      sim.step();
    }
    sim.set_input("in_valid", 0);
    std::vector<Fixed16> out;
    long guard = 0;
    while (out.size() < expected.size() && guard++ < 30000000) {
      sim.step();
      if (sim.get_output("out_valid") == 1) {
        out.push_back(Fixed16{static_cast<std::int16_t>(
            static_cast<std::uint16_t>(sim.get_output("out_data")))});
      }
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < out.size(); ++i) mismatches += (out[i] != expected[i]);
    std::printf("%zu outputs in %llu cycles (%.1fs simulated), %zu mismatches%s\n",
                out.size(), static_cast<unsigned long long>(sim.cycle()), sw.seconds(),
                mismatches,
                mismatches == 0 && out.size() == expected.size() ? " -- MATCHES GOLDEN"
                                                                 : " -- MISMATCH");
    return mismatches == 0 && out.size() == expected.size() ? 0 : 1;
  }
  return 0;
}
