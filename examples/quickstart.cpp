// Quickstart: define a small CNN with the textual architecture definition,
// pre-implement its components, compose the accelerator with the
// pre-implemented flow, and run one image through the placed-and-routed
// design — the full Figure-3 pipeline in ~60 lines of user code.
#include <cstdio>

#include "flow/build.h"
#include "flow/service.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/table.h"

using namespace fpgasim;

int main() {
  const Device device = make_xcku5p_sim();
  std::printf("device: %s\n", device.describe().c_str());

  // 1. CNN architecture definition (Sec. IV-B1).
  const CnnModel model = parse_arch_def(R"(network quickstart
input 2 12 12
conv c1 out=4 k=3 relu
pool p1 k=2
conv c2 out=2 k=3
)");

  // 2. Granularity exploration + implementation planning.
  const ModelImpl impl = choose_implementation(model, /*dsp_budget=*/16);
  const auto groups = default_grouping(model);

  // 3. Function optimization: pre-implement each component OOC once into
  //    a (memory-only) checkpoint store.
  // 4. Architecture optimization: match, stitch, relocate, route.
  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  std::printf("function optimization: %zu components built, %.2fs total\n", session.built,
              session.ensure_seconds);
  const ComposedDesign& accelerator = session.design;
  const PreImplReport& report = session.report;

  Table table("quickstart accelerator");
  table.set_header({"metric", "value"});
  table.add_row({"components", std::to_string(accelerator.instances.size())});
  table.add_row({"Fmax (MHz)", Table::fmt(report.timing.fmax_mhz, 1)});
  table.add_row({"slowest component (MHz)", Table::fmt(report.slowest_component_mhz, 1)});
  table.add_row({"LUTs", std::to_string(report.stats.resources.lut)});
  table.add_row({"DSPs", std::to_string(report.stats.resources.dsp)});
  table.add_row({"BRAMs", std::to_string(report.stats.resources.bram)});
  table.add_row({"arch. optimization (s)", Table::fmt(report.total_seconds, 3)});
  table.add_row({"stitching share", Table::pct(report.stitch_fraction(), 1)});
  table.print();

  // Every stage ran under the design rule checker; print the final verdict
  // of the post-routing pass (warnings are informational, errors throw).
  std::printf("post-route %s\n", report.drc.summary().c_str());
  for (const DrcViolation& v : report.drc.violations()) {
    std::printf("  %s\n", v.to_string().c_str());
  }

  // 5. Run one image through the composed, placed-and-routed netlist and
  // compare with the golden reference.
  Tensor image = Tensor::zeros(2, 12, 12);
  Rng rng(7);
  for (auto& v : image.data) {
    v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-50, 50)));
  }
  const auto expected = reference_inference(model, image);

  Simulator sim(accelerator.netlist);
  sim.set_input("out_ready", 1);
  sim.set_input("in_valid", 1);
  for (const Fixed16& v : image.data) {
    sim.set_input("in_data", static_cast<std::uint16_t>(v.raw));
    sim.step();
  }
  sim.set_input("in_valid", 0);
  std::vector<Fixed16> out;
  long guard = 0;
  while (out.size() < expected.size() && guard++ < 2000000) {
    sim.step();
    if (sim.get_output("out_valid") == 1) {
      out.push_back(Fixed16{static_cast<std::int16_t>(
          static_cast<std::uint16_t>(sim.get_output("out_data")))});
    }
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < out.size(); ++i) mismatches += (out[i] != expected[i]);
  std::printf("inference on hardware: %zu/%zu outputs after %ld cycles, %zu mismatches%s\n",
              out.size(), expected.size(), guard, mismatches,
              mismatches == 0 && out.size() == expected.size() ? " -- MATCHES GOLDEN MODEL"
                                                               : " -- MISMATCH");
  return mismatches == 0 ? 0 : 1;
}
