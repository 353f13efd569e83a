// Ablation A (Sec. IV-A2, "strategic floorplanning"): sweep the pblock
// resource slack of one convolution component. Tight pblocks force area
// optimization but risk congestion; loose pblocks waste area and reduce
// relocatability (fewer column-compatible anchors).
#include "bench_common.h"
#include "flow/ooc.h"
#include "synth/layers.h"

using namespace fpgasim;

int main() {
  const Device device = make_xcku5p_sim();
  ConvParams p;
  p.name = "conv_sweep";
  p.in_c = 4;
  p.out_c = 8;
  p.kernel = 3;
  p.in_h = 14;
  p.in_w = 14;
  p.ic_par = 4;
  p.oc_par = 4;
  p.materialize_roms = false;

  Table table("Ablation A: pblock slack sweep (conv 4->8, k3, 4x4 PEs)");
  table.set_header({"slack", "pblock", "area (tiles)", "Fmax (MHz)", "anchors",
                    "impl time (s)"});
  for (double slack : {1.05, 1.25, 1.5, 2.0, 3.0, 5.0}) {
    OocOptions opt;
    opt.pblock_slack = slack;
    opt.strategies = 2;
    opt.seed = 17;
    const OocResult result = implement_ooc(device, make_conv_component(p, {}, {}), opt);
    const auto anchors = relocation_offsets(device, result.checkpoint.pblock);
    table.add_row({Table::fmt(slack, 2), result.checkpoint.pblock.to_string(),
                   std::to_string(result.checkpoint.pblock.area()),
                   Table::fmt(result.timing.fmax_mhz, 1), std::to_string(anchors.size()),
                   Table::fmt(result.checkpoint.meta.implement_seconds, 2)});
  }
  table.print();
  std::puts("expected shape: the smaller the pblock, the more relocation anchors exist");
  std::puts("(paper: 'the smaller the area of a pblock is, the more RapidWright will be");
  std::puts("capable of relocating the design components across the chip'); very tight");
  std::puts("pblocks eventually cost Fmax through routing congestion.");
  return 0;
}
