// Delay library for the simulated UltraScale+-class fabric (ns). Values
// are calibrated so small, well-placed components close timing in the
// 400-650 MHz band and large congested designs land around 200-400 MHz,
// the regime of the paper's Tables III / Fig. 7.
#pragma once

#include "netlist/netlist.h"

namespace fpgasim {

struct DelayModel {
  // Combinational cell delays.
  double lut = 0.12;
  double carry_base = 0.16;        // kAdd/kMax base
  double carry_per_8bits = 0.035;  // carry-chain propagation
  double max_extra = 0.12;         // compare+select mux on kMax
  double dsp_comb = 1.65;          // unpipelined DSP48 multiply

  // Sequential timing.
  double ff_clk_to_q = 0.08;
  double ff_setup = 0.05;
  double srl_clk_to_q = 0.45;
  double srl_setup = 0.08;
  double bram_clk_to_q = 0.88;
  double bram_setup = 0.30;
  double dsp_clk_to_q = 0.62;
  double dsp_setup = 0.32;

  // Wire model (used when a net has no routed delay).
  double wire_base = 0.06;
  double wire_per_tile = 0.042;
  double wire_per_fanout = 0.015;
  double wire_discontinuity = 0.38;  // each IO column crossed
  double wire_unplaced = 0.20;       // fallback for unplaced endpoints

  double comb_delay(const Cell& cell) const {
    switch (cell.type) {
      case CellType::kConst: return 0.0;
      case CellType::kLut:
      case CellType::kRelu: return lut;
      case CellType::kAdd: return carry_base + carry_per_8bits * ((cell.width + 7) / 8);
      case CellType::kMax:
        return carry_base + max_extra + carry_per_8bits * ((cell.width + 7) / 8);
      case CellType::kDsp: return dsp_comb;  // stages == 0 only
      default: return 0.0;
    }
  }

  double clk_to_q(const Cell& cell) const {
    switch (cell.type) {
      case CellType::kFf: return ff_clk_to_q;
      case CellType::kSrl: return srl_clk_to_q;
      case CellType::kBram: return bram_clk_to_q;
      case CellType::kDsp: return dsp_clk_to_q;
      default: return 0.0;
    }
  }

  double setup(const Cell& cell) const {
    switch (cell.type) {
      case CellType::kFf: return ff_setup;
      case CellType::kSrl: return srl_setup;
      case CellType::kBram: return bram_setup;
      case CellType::kDsp: return cell.stages > 0 ? dsp_setup : 0.0;
      default: return 0.0;
    }
  }
};

}  // namespace fpgasim
