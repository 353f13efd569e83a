// Ablation B (Sec. IV-A2, "strategic port planning"): partition pins on
// the pblock boundary vs. unplanned (random interior) pins, measured on
// the standalone component and on a two-component composition.
#include "bench_common.h"
#include "flow/ooc.h"
#include "flow/preimpl.h"
#include "synth/layers.h"

using namespace fpgasim;

namespace {

Netlist conv_block(const std::string& name) {
  ConvParams p;
  p.name = name;
  p.in_c = 2;
  p.out_c = 4;
  p.kernel = 3;
  p.in_h = 10;
  p.in_w = 10;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  return make_conv_component(p, {}, {});
}

}  // namespace

int main() {
  const Device device = make_xcku5p_sim();
  Table table("Ablation B: partition-pin port planning");
  table.set_header({"port planning", "component Fmax (MHz)",
                    "2-chain composed Fmax (MHz)", "inter-comp route wirelength"});

  for (const bool planned : {true, false}) {
    OocOptions opt;
    opt.port_planning = planned;
    opt.seed = 23;
    const OocResult a = implement_ooc(device, conv_block("a"), opt);
    const OocResult b = implement_ooc(device, conv_block("b"), opt);
    ComponentGraph chain;
    chain.nodes = {&a.checkpoint, &b.checkpoint};
    chain.names = {"a0", "b0"};
    chain.edges = {StreamEdge{0, 1, 0, 0}};
    ComposedDesign composed;
    const PreImplReport report = run_preimpl_flow(device, chain, composed);
    table.add_row({planned ? "boundary (planned)" : "random interior",
                   Table::fmt(std::min(a.timing.fmax_mhz, b.timing.fmax_mhz), 1),
                   Table::fmt(report.timing.fmax_mhz, 1),
                   Table::fmt(report.route.total_wirelength, 0)});
  }
  table.print();
  std::puts("paper: 'failure to plan the location of the ports ... may result in long");
  std::puts("compilation time, poor performance, and high congestion'. On this substrate");
  std::puts("the effect is mild for small 2-component chains; it grows with chain length");
  std::puts("and congestion (the router negotiates around bad pins at wirelength cost).");
  return 0;
}
