// Figure 1 (motivation example): compilation time and Fmax of the
// traditional flow vs. the pre-implemented flow on four applications, each
// a replicated 3x3 processing-element block (MM = matrix multiplication,
// OP = outer product, RC = Robert Cross, SM = smoothing).
//
// Reproduction: each application instantiates its PE block 9 times in a
// chain. The classic flow implements the flat 9-block netlist; the
// pre-implemented flow implements the block once OOC and assembles 9
// relocated copies. Paper shape: 5-37% compile-time gain, 8-33% Fmax gain.
#include "bench_common.h"
#include "flow/ooc.h"
#include "synth/kernels.h"

using namespace fpgasim;

int main() {
  const Device device = make_xcku5p_sim();
  constexpr int kReplicas = 9;

  Table time_table("Fig. 1a: compilation time (s), Vivado-style vs pre-implemented");
  time_table.set_header(
      {"app", "classic flow", "preimpl flow (online)", "gain", "paper gain"});
  Table fmax_table("Fig. 1b: Fmax (MHz)");
  fmax_table.set_header({"app", "classic flow", "preimpl flow", "gain", "paper gain"});

  const std::pair<KernelApp, const char*> paper[] = {
      {KernelApp::kMatrixMult, "5% / 19%"},
      {KernelApp::kOuterProduct, "18% / 33%"},
      {KernelApp::kRobertCross, "37% / 9%"},
      {KernelApp::kSmoothing, "7% / 8%"},
  };

  for (const auto& [app, paper_gains] : paper) {
    // Pre-implemented: one OOC block, replicated by relocation.
    const OocResult ooc = implement_ooc(device, make_kernel_component(app, to_string(app)));
    ComponentGraph chain;
    for (int i = 0; i < kReplicas; ++i) {
      chain.nodes.push_back(&ooc.checkpoint);
      chain.names.push_back(std::string(to_string(app)) + std::to_string(i));
    }
    chain.edges = chain_edges(kReplicas);
    ComposedDesign composed;
    const PreImplReport pre = run_preimpl_flow(device, chain, composed);

    // Classic: flat netlist of 9 blocks.
    std::vector<Netlist> blocks;
    std::vector<const Netlist*> pointers;
    for (int i = 0; i < kReplicas; ++i) {
      blocks.push_back(make_kernel_component(app, chain.names[static_cast<std::size_t>(i)]));
    }
    for (const Netlist& block : blocks) pointers.push_back(&block);
    Netlist flat = stitch_chain(pointers, std::string(to_string(app)) + "_flat");
    PhysState phys;
    const MonoReport mono = run_monolithic_flow(device, flat, phys);

    const double time_gain = 1.0 - pre.total_seconds / mono.total_seconds;
    const double fmax_gain = pre.timing.fmax_mhz / mono.timing.fmax_mhz - 1.0;
    time_table.add_row({to_string(app), Table::fmt(mono.total_seconds, 3),
                        Table::fmt(pre.total_seconds, 3), Table::pct(time_gain, 0),
                        paper_gains});
    fmax_table.add_row({to_string(app), Table::fmt(mono.timing.fmax_mhz, 1),
                        Table::fmt(pre.timing.fmax_mhz, 1), Table::pct(fmax_gain, 0),
                        paper_gains});
  }
  time_table.print();
  fmax_table.print();
  std::puts("(paper gain column: compile-time% / Fmax% from Mandebi et al. as quoted in Fig. 1)");
  return 0;
}
