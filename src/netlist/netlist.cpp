#include "netlist/netlist.h"

#include <algorithm>

#include "netlist/structure.h"

namespace fpgasim {

const char* to_string(CellType type) {
  switch (type) {
    case CellType::kConst: return "CONST";
    case CellType::kLut: return "LUT";
    case CellType::kFf: return "FF";
    case CellType::kSrl: return "SRL";
    case CellType::kAdd: return "ADD";
    case CellType::kMax: return "MAX";
    case CellType::kRelu: return "RELU";
    case CellType::kDsp: return "DSP48";
    case CellType::kBram: return "BRAM";
  }
  return "?";
}

const char* to_string(LutOp op) {
  switch (op) {
    case LutOp::kAnd: return "AND";
    case LutOp::kOr: return "OR";
    case LutOp::kXor: return "XOR";
    case LutOp::kNot: return "NOT";
    case LutOp::kMux2: return "MUX2";
    case LutOp::kEq: return "EQ";
    case LutOp::kLtU: return "LTU";
    case LutOp::kPass: return "PASS";
    case LutOp::kTruth6: return "TRUTH6";
  }
  return "?";
}

std::uint16_t expected_output_width(const Cell& cell) {
  if (cell.type == CellType::kLut && (cell.op == LutOp::kEq || cell.op == LutOp::kLtU)) {
    return 1;
  }
  return cell.width;
}

bool is_combinational(const Cell& cell) {
  switch (cell.type) {
    case CellType::kLut:
    case CellType::kAdd:
    case CellType::kMax:
    case CellType::kRelu:
      return true;
    case CellType::kDsp:
      return cell.stages == 0;  // unpipelined DSP48 is a combinational MAC
    case CellType::kConst:
    case CellType::kFf:
    case CellType::kSrl:
    case CellType::kBram:
      return false;
  }
  return false;
}

bool is_sequential(const Cell& cell) {
  return cell.type != CellType::kConst && !is_combinational(cell);
}

std::span<const std::uint16_t> required_input_pins(const Cell& cell) {
  static constexpr std::uint16_t kPins[] = {0, 1, 2};
  switch (cell.type) {
    case CellType::kConst:
      return {};
    case CellType::kLut:
      // kNot/kPass are unary; everything else consumes two operands
      // (kMux2's select, pin 2, is also mandatory).
      if (cell.op == LutOp::kNot || cell.op == LutOp::kPass) return {kPins, 1};
      return {kPins, cell.op == LutOp::kMux2 ? 3u : 2u};
    case CellType::kAdd:
    case CellType::kMax:
    case CellType::kDsp:  // C addend is optional
      return {kPins, 2};
    case CellType::kFf:
    case CellType::kSrl:
    case CellType::kRelu:  // FF/SRL clock enable (pin 1) is optional
    case CellType::kBram:  // write port / read address are optional (ROM mode)
      return {kPins, 1};
  }
  return {};
}

std::span<const std::uint16_t> data_pins(const Cell& cell) {
  static constexpr std::uint16_t kPins[] = {0, 1};
  switch (cell.type) {
    case CellType::kFf:
    case CellType::kSrl:
    case CellType::kRelu:
      return {kPins, 1};
    case CellType::kAdd:
    case CellType::kMax:
      return {kPins, 2};
    default:
      return {};
  }
}

NetId Netlist::add_net(std::uint16_t width, std::string name) {
  Net net;
  net.width = width;
  net.name = std::move(name);
  nets_.push_back(std::move(net));
  return static_cast<NetId>(nets_.size() - 1);
}

CellId Netlist::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return static_cast<CellId>(cells_.size() - 1);
}

std::size_t Netlist::add_port(Port port) {
  ports_.push_back(std::move(port));
  return ports_.size() - 1;
}

std::int32_t Netlist::add_rom(std::vector<std::uint64_t> words) {
  roms_.push_back(std::move(words));
  return static_cast<std::int32_t>(roms_.size() - 1);
}

void Netlist::connect_input(CellId cell, std::uint16_t pin, NetId net) {
  Cell& c = cells_[cell];
  if (c.inputs.size() <= pin) c.inputs.resize(pin + 1, kInvalidNet);
  c.inputs[pin] = net;
  nets_[net].sinks.emplace_back(cell, pin);
}

void Netlist::connect_output(CellId cell, std::uint16_t pin, NetId net) {
  Cell& c = cells_[cell];
  if (c.outputs.size() <= pin) c.outputs.resize(pin + 1, kInvalidNet);
  c.outputs[pin] = net;
  nets_[net].driver = cell;
  nets_[net].driver_pin = pin;
}

const Port* Netlist::find_port(const std::string& name) const {
  for (const Port& port : ports_) {
    if (port.name == name) return &port;
  }
  return nullptr;
}

ResourceVec Netlist::cell_footprint(const Cell& cell) {
  const std::int64_t w = cell.width;
  switch (cell.type) {
    case CellType::kConst:
      return {};
    case CellType::kLut:
      // kMux2 costs one LUT per bit (LUT6 fits a 2:1 mux); comparators and
      // wide gates likewise one LUT level per bit.
      return {.lut = w};
    case CellType::kFf:
      return {.ff = w};
    case CellType::kSrl: {
      // SRL16: 16 stages per LUT per bit.
      const std::int64_t per_bit = (cell.depth + 15) / 16;
      return {.lut = per_bit * w};
    }
    case CellType::kAdd:
      return {.lut = w, .carry = (w + 7) / 8};
    case CellType::kMax:
      // Compare (carry chain) plus select mux.
      return {.lut = 2 * w, .carry = (w + 7) / 8};
    case CellType::kRelu:
      return {.lut = w};
    case CellType::kDsp:
      return {.dsp = 1};
    case CellType::kBram: {
      const std::int64_t bits = static_cast<std::int64_t>(cell.bram_depth) * w;
      return {.bram = std::max<std::int64_t>(1, (bits + 36 * 1024 - 1) / (36 * 1024))};
    }
  }
  return {};
}

NetlistStats Netlist::stats() const {
  NetlistStats stats;
  stats.cells = cells_.size();
  stats.nets = nets_.size();
  stats.ports = ports_.size();
  for (const Cell& cell : cells_) stats.resources += cell_footprint(cell);
  return stats;
}

void Netlist::lock_all() {
  for (Cell& cell : cells_) cell.placement_locked = true;
  for (Net& net : nets_) net.routing_locked = true;
}

std::vector<std::string> Netlist::validate() const {
  // Exactly the faults that make a netlist unsafe to index; driver counts,
  // required pins and cell-level widths are the DRC's and lint's business.
  using enum StructuralFault;
  std::vector<std::string> problems;
  for (const StructuralCheck check : {check_widths, check_drivers, check_sinks}) {
    for (StructuralIssue& issue :
         select_faults(check(*this), {kPortNet, kPortWidth, kDriverRange, kDriverPin,
                                      kUndrivenSinks, kSinkRange, kSinkPin, kInputRange})) {
      problems.push_back(std::move(issue.message));
    }
  }
  for (CellId c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (cell.type == CellType::kBram && cell.rom_id >= 0 &&
        static_cast<std::size_t>(cell.rom_id) >= roms_.size()) {
      problems.push_back(cell_ref(*this, c) + " rom_id out of range");
    }
  }
  return problems;
}

std::size_t Netlist::prune_dead() {
  const Liveness live = output_liveness(*this);

  // Stable compaction maps (old id -> new id).
  std::vector<CellId> cell_map(cells_.size(), kInvalidCell);
  std::vector<NetId> net_map(nets_.size(), kInvalidNet);
  CellId next_cell = 0;
  for (CellId c = 0; c < cells_.size(); ++c) {
    if (live.cells[c]) cell_map[c] = next_cell++;
  }
  NetId next_net = 0;
  for (NetId n = 0; n < nets_.size(); ++n) {
    if (live.nets[n]) net_map[n] = next_net++;
  }
  const std::size_t removed = cells_.size() - next_cell;
  if (removed == 0 && next_net == nets_.size()) return 0;

  std::vector<Cell> cells;
  cells.reserve(next_cell);
  for (CellId c = 0; c < cells_.size(); ++c) {
    if (!live.cells[c]) continue;
    Cell cell = std::move(cells_[c]);
    for (NetId& in : cell.inputs) {
      if (in != kInvalidNet && in < net_map.size()) in = net_map[in];
    }
    for (NetId& out : cell.outputs) {
      if (out != kInvalidNet && out < net_map.size()) out = net_map[out];
    }
    cells.push_back(std::move(cell));
  }
  std::vector<Net> nets;
  nets.reserve(next_net);
  for (NetId n = 0; n < nets_.size(); ++n) {
    if (!live.nets[n]) continue;
    Net net = std::move(nets_[n]);
    if (net.driver != kInvalidCell && net.driver < cell_map.size()) {
      net.driver = cell_map[net.driver];  // dead driver -> kInvalidCell
    }
    std::vector<std::pair<CellId, std::uint16_t>> sinks;
    sinks.reserve(net.sinks.size());
    for (const auto& [cell, pin] : net.sinks) {
      if (cell < cell_map.size() && cell_map[cell] != kInvalidCell) {
        sinks.emplace_back(cell_map[cell], pin);
      }
    }
    net.sinks = std::move(sinks);
    nets.push_back(std::move(net));
  }
  cells_ = std::move(cells);
  nets_ = std::move(nets);
  for (Port& port : ports_) {
    if (port.net != kInvalidNet && port.net < net_map.size()) port.net = net_map[port.net];
  }
  return removed;
}

std::pair<CellId, NetId> Netlist::merge(const Netlist& other) {
  const CellId cell_offset = static_cast<CellId>(cells_.size());
  const NetId net_offset = static_cast<NetId>(nets_.size());
  const std::int32_t rom_offset = static_cast<std::int32_t>(roms_.size());

  roms_.insert(roms_.end(), other.roms_.begin(), other.roms_.end());

  cells_.reserve(cells_.size() + other.cells_.size());
  for (const Cell& src : other.cells_) {
    Cell cell = src;
    for (NetId& in : cell.inputs) {
      if (in != kInvalidNet) in += net_offset;
    }
    for (NetId& out : cell.outputs) {
      if (out != kInvalidNet) out += net_offset;
    }
    if (cell.rom_id >= 0) cell.rom_id += rom_offset;
    cells_.push_back(std::move(cell));
  }
  nets_.reserve(nets_.size() + other.nets_.size());
  for (const Net& src : other.nets_) {
    Net net = src;
    if (net.driver != kInvalidCell) net.driver += cell_offset;
    for (auto& [cell, pin] : net.sinks) cell += cell_offset;
    nets_.push_back(std::move(net));
  }
  return {cell_offset, net_offset};
}

std::string net_ref(const Netlist& nl, NetId n) {
  std::string s = "net #" + std::to_string(n);
  if (!nl.net(n).name.empty()) s += " ('" + nl.net(n).name + "')";
  return s;
}

std::string cell_ref(const Netlist& nl, CellId c) {
  std::string s = std::string(to_string(nl.cell(c).type)) + " cell #" + std::to_string(c);
  if (!nl.cell(c).name.empty()) s += " ('" + nl.cell(c).name + "')";
  return s;
}

}  // namespace fpgasim
