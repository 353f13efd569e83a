// VGG-16 accelerator (paper Sec. V-B2): coefficients live off-chip; the
// Best-Fit-with-Coalescing allocator lays out weight and feature-map
// buffers in the simulated DDR, components use streamed weight buffers,
// and the pre-implemented flow assembles the network. Prints the off-chip
// memory map and the flow comparison.
#include <cstdio>

#include "alloc/best_fit.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "util/table.h"

using namespace fpgasim;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_vgg16();
  const ModelImpl impl =
      choose_implementation(model, /*dsp_budget=*/quick ? 384 : 1024, /*max_tile=*/14);
  const auto groups = default_grouping(model);

  // Off-chip coefficient + feature-map layout (Best-Fit with Coalescing).
  BestFitAllocator ddr(2ULL << 30, /*alignment=*/4096);
  Table memmap("VGG-16 off-chip memory map (Best-Fit with Coalescing)");
  memmap.set_header({"buffer", "base", "bytes"});
  for (const Layer& layer : model.layers()) {
    if (layer.weights() > 0) {
      const std::uint64_t bytes = static_cast<std::uint64_t>(layer.weights()) * 2;
      const auto base = ddr.allocate(bytes);
      memmap.add_row({layer.name + ".weights",
                      base ? "0x" + [&] {
                        char buf[32];
                        std::snprintf(buf, sizeof(buf), "%09llx",
                                      static_cast<unsigned long long>(*base));
                        return std::string(buf);
                      }()
                           : "OOM",
                      std::to_string(bytes)});
    }
  }
  // Double-buffered activations for the largest layer transition.
  long max_activation = 0;
  for (const Layer& layer : model.layers()) {
    max_activation = std::max(max_activation, layer.out_shape.volume());
  }
  for (int i = 0; i < 2; ++i) {
    const auto base = ddr.allocate(static_cast<std::uint64_t>(max_activation) * 2);
    memmap.add_row({"activations[" + std::to_string(i) + "]",
                    base ? std::to_string(*base) : "OOM",
                    std::to_string(max_activation * 2)});
  }
  memmap.print();
  std::printf("DDR used: %.1f MiB of %.1f GiB, %zu blocks, largest free %.1f MiB\n",
              ddr.used_bytes() / 1048576.0, ddr.capacity() / 1073741824.0,
              ddr.block_count(), ddr.largest_free_block() / 1048576.0);

  // Flows.
  CheckpointStore store;
  CompileService service(device, store);
  const CompileService::SessionResult session = service.compile(model, impl, groups);
  const PreImplReport& pre = session.report;
  std::printf("function optimization: %zu unique components (of %zu groups), %.1fs\n",
              session.built, groups.size(), session.ensure_seconds);

  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  Table cmp("VGG-16: classic vs pre-implemented");
  cmp.set_header({"metric", "classic", "pre-implemented"});
  cmp.add_row({"Fmax (MHz)", Table::fmt(mono.timing.fmax_mhz, 1),
               Table::fmt(pre.timing.fmax_mhz, 1)});
  cmp.add_row({"LUTs", std::to_string(mono.stats.resources.lut),
               std::to_string(pre.stats.resources.lut)});
  cmp.add_row({"FFs", std::to_string(mono.stats.resources.ff),
               std::to_string(pre.stats.resources.ff)});
  cmp.add_row({"DSPs", std::to_string(mono.stats.resources.dsp),
               std::to_string(pre.stats.resources.dsp)});
  cmp.add_row({"BRAMs", std::to_string(mono.stats.resources.bram),
               std::to_string(pre.stats.resources.bram)});
  cmp.add_row({"implementation time (s)", Table::fmt(mono.total_seconds, 2),
               Table::fmt(pre.total_seconds, 2)});
  cmp.print();
  std::printf("productivity gain %.0f%%, Fmax %.2fx, stitching %.1f%% of the flow\n",
              (1.0 - pre.total_seconds / mono.total_seconds) * 100.0,
              pre.timing.fmax_mhz / mono.timing.fmax_mhz, pre.stitch_fraction() * 100.0);
  return 0;
}
