// Table II: FPGA resource utilization of LeNet and VGG-16, classic
// implementation vs. pre-implemented flow (absolute + % of device).
#include "bench_common.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const Device device = make_xcku5p_sim();
  const ResourceVec total = device.total();

  NetworkRun lenet = run_network(device, make_lenet5(), kLenet.dsp_budget, kLenet.max_tile);
  NetworkRun vgg = run_network(device, make_vgg16(), quick ? 384 : 1024, 14);

  Table table("Table II: FPGA resource utilization (classic vs pre-implemented)");
  table.set_header({"design", "CLB LUTs", "CLB Registers", "BRAMs", "DSPs"});
  auto row = [&](const std::string& name, const ResourceVec& res) {
    table.add_row({name, pct_of(res.lut, total.lut), pct_of(res.ff, total.ff),
                   pct_of(res.bram, total.bram), pct_of(res.dsp, total.dsp)});
  };
  row("LeNet (classic)", lenet.mono.stats.resources);
  row("LeNet (pre-implemented)", lenet.pre.stats.resources);
  row("VGG-16 (classic)", vgg.mono.stats.resources);
  row("VGG-16 (pre-implemented)", vgg.pre.stats.resources);
  table.print();

  Table paper("Table II as reported by the paper (for reference)");
  paper.set_header({"design", "CLB LUTs", "CLB Registers", "BRAMs", "DSPs"});
  paper.add_row({"LeNet (classic)", "32021 (9.65%)", "8538 (1.29%)", "463 (21.44%)",
                 "144 (5.21%)"});
  paper.add_row({"LeNet (pre-implemented)", "29491 (8.89%)", "8442 (1.26%)",
                 "457 (21.16%)", "144 (5.21%)"});
  paper.add_row({"VGG-16 (classic)", "282870 (85.28%)", "215763 (32.53%)", "854 (38.54%)",
                 "2116 (76.66%)"});
  paper.add_row({"VGG-16 (pre-implemented)", "261321 (78.79%)", "180754 (27.25%)",
                 "786 (36.39%)", "2123 (76.92%)"});
  paper.print();
  std::puts("shape check: pre-implemented <= classic in LUT/FF (classic pays phys-opt");
  std::puts("register insertion + driver replication), identical DSP MAC arrays.");
  std::printf("LeNet classic/pre LUT delta: %lld, FF delta: %lld\n",
              static_cast<long long>(lenet.mono.stats.resources.lut -
                                     lenet.pre.stats.resources.lut),
              static_cast<long long>(lenet.mono.stats.resources.ff -
                                     lenet.pre.stats.resources.ff));
  return 0;
}
