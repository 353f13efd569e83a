// Levelized functional simulator for bus-level netlists.
//
// Combinational cells (CONST/LUT/ADD/MAX/RELU and DSP with 0 pipeline
// stages) are evaluated in topological order; sequential cells (FF, SRL,
// BRAM sync read, pipelined DSP) update on step(). Used by the test suite
// to prove that the synthesis generators produce functionally correct
// hardware against the golden models.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace fpgasim {

class Simulator {
 public:
  /// Builds evaluation order. Throws std::runtime_error on combinational
  /// loops or undriven nets with sinks that are not module inputs.
  explicit Simulator(const Netlist& netlist);

  /// Drives a module input port. Value is masked to the port width. The
  /// combinational fabric is NOT re-settled here: settling is deferred to
  /// the next observation (get_output/peek_net) or step(), so driving a
  /// k-port interface costs k stores, not k full fabric sweeps.
  void set_input(const std::string& port_name, std::uint64_t value);

  /// Advances one clock cycle: sequential capture -> commit -> settle.
  void step();

  /// Runs n clock cycles.
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }

  /// Reads a module output port (settling pending input changes first).
  std::uint64_t get_output(const std::string& port_name) const;

  /// Raw net value (debug / white-box tests; settles pending changes).
  std::uint64_t peek_net(NetId net) const {
    settle_if_dirty();
    return values_[net];
  }

  std::uint64_t cycle() const { return cycle_; }

  /// Number of full combinational sweeps performed so far (white-box
  /// counter for the lazy-settle contract: O(observations), not
  /// O(set_input calls)).
  std::size_t settles() const { return settles_; }

 private:
  void settle() const;  // propagate combinational logic
  void settle_if_dirty() const {
    if (dirty_) settle();
  }
  std::uint64_t eval_cell(CellId cell_id) const;
  std::uint64_t in_val(const Cell& cell, std::size_t pin) const;

  const Netlist& netlist_;
  // Logically const-observable state: reads settle lazily.
  mutable std::vector<std::uint64_t> values_;  // per net
  mutable bool dirty_ = false;                 // input changed since last settle
  mutable std::size_t settles_ = 0;
  std::vector<CellId> comb_order_;            // constants, then CombGraph order
  std::vector<CellId> seq_cells_;
  std::vector<std::deque<std::uint64_t>> pipes_;   // per cell (SRL/DSP/FF state)
  std::vector<std::vector<std::uint64_t>> mems_;   // per BRAM cell
  std::vector<std::int32_t> state_index_;          // cell -> pipes_/mems_ slot
  std::uint64_t cycle_ = 0;
};

}  // namespace fpgasim
