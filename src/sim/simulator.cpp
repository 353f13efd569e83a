#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/comb_graph.h"
#include "sim/eval.h"
#include "sim/fixed.h"

namespace fpgasim {

Simulator::Simulator(const Netlist& netlist) : netlist_(netlist) {
  values_.assign(netlist_.net_count(), 0);
  state_index_.assign(netlist_.cell_count(), -1);

  // Collect sequential cells and allocate their state.
  for (CellId c = 0; c < netlist_.cell_count(); ++c) {
    const Cell& cell = netlist_.cell(c);
    if (!is_sequential(cell)) continue;
    seq_cells_.push_back(c);
    if (cell.type == CellType::kBram) {
      state_index_[c] = static_cast<std::int32_t>(mems_.size());
      std::vector<std::uint64_t> mem(cell.bram_depth, 0);
      if (cell.rom_id >= 0) {
        const auto& rom = netlist_.rom(cell.rom_id);
        for (std::size_t i = 0; i < mem.size() && i < rom.size(); ++i) {
          mem[i] = mask_width(rom[i], cell.width);
        }
      }
      mems_.push_back(std::move(mem));
      // BRAM also needs a 1-deep pipe for the registered read value.
      pipes_.emplace_back(1, 0);
    } else {
      state_index_[c] = static_cast<std::int32_t>(pipes_.size());
      pipes_.emplace_back(seq_pipe_depth(cell), 0);
    }
  }

  // Constants first, then the combinational cells in topological order.
  const CombGraph graph(netlist_);
  if (graph.has_cycle()) {
    throw std::runtime_error("simulator: combinational loop in netlist '" + netlist_.name() +
                             "'");
  }
  for (CellId c = 0; c < netlist_.cell_count(); ++c) {
    if (netlist_.cell(c).type == CellType::kConst) comb_order_.push_back(c);
  }
  comb_order_.insert(comb_order_.end(), graph.order().begin(), graph.order().end());

  // Sequential outputs start at 0; settle the combinational fabric.
  settle();
}

std::uint64_t Simulator::in_val(const Cell& cell, std::size_t pin) const {
  if (pin >= cell.inputs.size() || cell.inputs[pin] == kInvalidNet) return 0;
  return values_[cell.inputs[pin]];
}

std::uint64_t Simulator::eval_cell(CellId cell_id) const {
  const Cell& cell = netlist_.cell(cell_id);
  std::uint64_t pins[kMaxCombPins] = {};
  const std::size_t n = std::min(cell.inputs.size(), kMaxCombPins);
  for (std::size_t i = 0; i < n; ++i) pins[i] = in_val(cell, i);
  return eval_comb_cell(cell, pins, n);
}

void Simulator::settle() const {
  for (CellId c : comb_order_) {
    const Cell& cell = netlist_.cell(c);
    if (cell.outputs.empty()) continue;
    const std::uint64_t v = eval_cell(c);
    // One evaluated value fanned out to every connected output pin.
    for (NetId out : cell.outputs) {
      if (out != kInvalidNet) values_[out] = v;
    }
  }
  dirty_ = false;
  ++settles_;
}

void Simulator::set_input(const std::string& port_name, std::uint64_t value) {
  const Port* port = netlist_.find_port(port_name);
  if (port == nullptr || port->dir != PortDir::kInput) {
    throw std::runtime_error("simulator: no input port '" + port_name + "'");
  }
  const std::uint64_t masked = mask_width(value, port->width);
  if (values_[port->net] != masked) {
    values_[port->net] = masked;
    dirty_ = true;  // settled lazily on the next observation or step()
  }
}

std::uint64_t Simulator::get_output(const std::string& port_name) const {
  const Port* port = netlist_.find_port(port_name);
  if (port == nullptr || port->dir != PortDir::kOutput) {
    throw std::runtime_error("simulator: no output port '" + port_name + "'");
  }
  settle_if_dirty();
  return values_[port->net];
}

void Simulator::step() {
  settle_if_dirty();  // phase 1 must read a settled fabric
  // Phase 1: capture next states from the settled fabric.
  std::vector<std::uint64_t> next(seq_cells_.size(), 0);
  std::vector<bool> enabled(seq_cells_.size(), true);
  for (std::size_t i = 0; i < seq_cells_.size(); ++i) {
    const Cell& cell = netlist_.cell(seq_cells_[i]);
    switch (cell.type) {
      case CellType::kFf:
      case CellType::kSrl: {
        next[i] = mask_width(in_val(cell, 0), cell.width);
        if (cell.inputs.size() > 1 && cell.inputs[1] != kInvalidNet) {
          enabled[i] = (in_val(cell, 1) & 1) != 0;
        }
        break;
      }
      case CellType::kDsp:
        next[i] = eval_cell(seq_cells_[i]);
        break;
      case CellType::kBram: {
        // Dual-port: pin0 = write address (also read when pin3 absent),
        // pin1 = wdata, pin2 = we, pin3 = read address.
        const std::uint64_t waddr = in_val(cell, 0);
        const bool has_raddr = cell.inputs.size() > 3 && cell.inputs[3] != kInvalidNet;
        const std::uint64_t raddr = has_raddr ? in_val(cell, 3) : waddr;
        auto& mem = mems_[static_cast<std::size_t>(state_index_[seq_cells_[i]])];
        next[i] = raddr < mem.size() ? mem[raddr] : 0;  // read-first
        const bool we =
            cell.inputs.size() > 2 && cell.inputs[2] != kInvalidNet && (in_val(cell, 2) & 1);
        if (we && waddr < mem.size()) mem[waddr] = mask_width(in_val(cell, 1), cell.width);
        break;
      }
      default:
        break;
    }
  }

  // Phase 2: commit. pipes_ was filled in seq_cells_ order (one per cell).
  for (std::size_t i = 0; i < seq_cells_.size(); ++i) {
    const CellId id = seq_cells_[i];
    const Cell& cell = netlist_.cell(id);
    std::deque<std::uint64_t>& pipe = pipes_[i];
    if (enabled[i]) {
      pipe.push_front(next[i]);
      pipe.pop_back();
    }
    for (NetId out : cell.outputs) {
      if (out != kInvalidNet) values_[out] = pipe.back();
    }
  }

  // Phase 3: settle combinational logic on the new state.
  settle();
  ++cycle_;
}

}  // namespace fpgasim
