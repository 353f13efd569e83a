// Custom networks through the textual CNN architecture definition: reads a
// definition from a file (or uses a built-in default), runs both flows and
// reports the comparison. This is the user-facing entry point of the flow:
// no HDL is ever written or synthesized.
//
// Usage: custom_cnn [arch_def_file] [dsp_budget]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "util/table.h"

using namespace fpgasim;

namespace {

constexpr const char* kDefaultDef = R"(# A small edge-inference network
network edgenet
input 3 14 14
conv c1 out=8 k=3 relu
pool p1 k=2
conv c2 out=16 k=3 relu
pool p2 k=2
fc f1 out=32
fc f2 out=4
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDefaultDef;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }
  const long dsp_budget = argc > 2 ? std::stol(argv[2]) : 64;

  const Device device = make_xcku5p_sim();
  const CnnModel model = parse_arch_def(text);
  std::printf("network '%s': %zu layers\n", model.name().c_str(), model.layers().size());
  const auto stats = model.stats();
  std::printf("  conv: %d layers, %ld weights, %ld MACs\n", stats.conv_layers,
              stats.conv_weights, stats.conv_macs);
  std::printf("  fc:   %d layers, %ld weights, %ld MACs\n", stats.fc_layers,
              stats.fc_weights, stats.fc_macs);

  const ModelImpl impl = choose_implementation(model, dsp_budget);
  const auto groups = default_grouping(model);

  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  const PreImplReport& pre = session.report;

  Table components("pre-implemented components");
  components.set_header({"instance", "Fmax (MHz)", "DSP", "latency (us @ own clock)"});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const InstanceRow& row = pre.instances[g];
    const ComponentLatency lat = group_latency(model, impl, groups[g], row.fmax_mhz);
    components.add_row({row.instance, Table::fmt(row.fmax_mhz, 1),
                        std::to_string(row.resources.dsp), Table::fmt(lat.latency_us(), 2)});
  }
  components.print();

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  Table cmp("flow comparison");
  cmp.set_header({"", "classic", "pre-implemented"});
  cmp.add_row({"Fmax (MHz)", Table::fmt(mono.timing.fmax_mhz, 1),
               Table::fmt(pre.timing.fmax_mhz, 1)});
  cmp.add_row({"time (s)", Table::fmt(mono.total_seconds, 2),
               Table::fmt(pre.total_seconds, 2)});
  cmp.add_row({"LUT", std::to_string(mono.stats.resources.lut),
               std::to_string(pre.stats.resources.lut)});
  cmp.add_row({"FF", std::to_string(mono.stats.resources.ff),
               std::to_string(pre.stats.resources.ff)});
  cmp.print();
  std::fputs(format_critical_path(pre.timing, session.design.netlist, session.design.instances)
                 .c_str(),
             stdout);
  return 0;
}
