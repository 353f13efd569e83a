// Zoo accelerator: one bundled topology (lenet, mobilenet, resnet18, unet,
// inception or any other model_zoo() name) through both flows. The
// pre-implemented flow stitches the model's component DFG — stream forks,
// element-wise adds, channel concats, upsample — and the monolithic flow
// implements the same netlist flat. Prints the flow report's instances and
// the composed critical path; fpgalint then checks both final netlists,
// the composed one stitch-boundary aware through its instance ranges, and
// a seeded tensor is streamed through the composed design against the
// golden reference.
//
// usage: zoo_accelerator <model> [--no-sim]
// Exit status: 0 = lint clean and bit-exact, 1 = a lint error or a golden
// mismatch, 2 = usage error.
#include <cstdio>
#include <string>

#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "lint/lint.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace fpgasim;

int main(int argc, char** argv) {
  const ZooEntry* entry = argc > 1 ? find_zoo_model(argv[1]) : nullptr;
  if (entry == nullptr) {
    std::fprintf(stderr, "usage: zoo_accelerator <%s> [--no-sim]\n",
                 zoo_model_names(" | ").c_str());
    return 2;
  }
  const bool run_inference = !(argc > 2 && std::string(argv[2]) == "--no-sim");
  const Device device = make_xcku5p_sim();
  const CnnModel model = entry->make();
  const ModelImpl impl = choose_implementation(model, entry->dsp_budget, entry->max_tile);
  const auto groups = default_grouping(model);

  std::printf("%s as an arch-def:\n%s\n", entry->description, to_arch_def(model).c_str());

  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  const PreImplReport& pre = session.report;
  const ComposedDesign& accelerator = session.design;
  std::printf("component store: %zu checkpoints (%zu groups + stream forks)\n",
              session.components, groups.size());

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  Table table(std::string(entry->name) + ": composed DFG instances");
  table.set_header({"instance", "component", "Fmax (MHz)", "LUT", "DSP", "BRAM", "pblock"});
  for (const InstanceRow& row : pre.instances) {
    table.add_row({row.instance, row.component, Table::fmt(row.fmax_mhz, 1),
                   std::to_string(row.resources.lut), std::to_string(row.resources.dsp),
                   std::to_string(row.resources.bram), row.pblock.to_string()});
  }
  table.print();
  std::fputs(format_critical_path(pre.timing, accelerator.netlist, accelerator.instances).c_str(),
             stdout);
  const FindingsReport pre_lint = lint::run(accelerator.netlist, {}, accelerator.instances);
  const FindingsReport mono_lint = lint::run(flat);
  std::printf("lint: pre-implemented %s / monolithic %s\n", pre_lint.summary().c_str(),
              mono_lint.summary().c_str());
  std::printf("stream edges stitched: %zu; Fmax pre-implemented %.1f MHz vs "
              "monolithic %.1f MHz; stitching %.1f%% of the online flow\n",
              accelerator.macro_nets.size(), pre.timing.fmax_mhz, mono.timing.fmax_mhz,
              pre.stitch_fraction() * 100.0);
  if (!pre_lint.clean() || !mono_lint.clean()) return 1;
  if (!run_inference) return 0;

  const Shape shape = model.layers().front().out_shape;
  Tensor input = Tensor::zeros(shape.c, shape.h, shape.w);
  Rng rng(4321);
  for (auto& v : input.data) {
    v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
  }
  const auto expected = reference_inference(model, input);

  std::printf("running a %dx%dx%d tensor through the composed accelerator...\n", shape.c,
              shape.h, shape.w);
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
  const bool matches = mismatches == 0 && out.size() == expected.size();
  std::printf("%zu outputs in %llu cycles (%.1fs simulated), %zu mismatches%s\n", out.size(),
              static_cast<unsigned long long>(sim.cycle()), sw.seconds(), mismatches,
              matches ? " -- MATCHES GOLDEN" : " -- MISMATCH");
  return matches ? 0 : 1;
}
