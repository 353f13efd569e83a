#include "synth/builder.h"

#include <cassert>

namespace fpgasim {

std::uint16_t addr_bits(std::uint32_t depth) {
  std::uint16_t bits = 1;
  while ((1u << bits) < depth) ++bits;
  return bits;
}

NetId NetlistBuilder::in_port(const std::string& name, std::uint16_t width) {
  const NetId net = new_net(width, name);
  netlist_.add_port(Port{name, PortDir::kInput, width, net});
  return net;
}

void NetlistBuilder::out_port(const std::string& name, NetId net) {
  netlist_.add_port(Port{name, PortDir::kOutput, netlist_.net(net).width, net});
}

NetId NetlistBuilder::constant(std::uint64_t value, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kConst;
  cell.width = width;
  cell.init = value;
  const CellId id = netlist_.add_cell(std::move(cell));
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::op2(LutOp op, NetId a, NetId b, std::uint16_t width, std::string name) {
  Cell cell;
  cell.type = CellType::kLut;
  cell.op = op;
  cell.width = width;
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::not1(NetId a, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kLut;
  cell.op = LutOp::kNot;
  cell.width = width;
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::mux2(NetId a, NetId b, NetId sel, std::uint16_t width, std::string name) {
  Cell cell;
  cell.type = CellType::kLut;
  cell.op = LutOp::kMux2;
  cell.width = width;
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  netlist_.connect_input(id, 2, sel);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::muxn(const std::vector<NetId>& inputs, NetId sel, std::uint16_t width) {
  assert(!inputs.empty());
  std::vector<NetId> level = inputs;
  int bit_index = 0;
  while (level.size() > 1) {
    const NetId sel_bit = bit(sel, bit_index++);
    std::vector<NetId> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(mux2(level[i], level[i + 1], sel_bit, width));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level.front();
}

std::vector<NetId> NetlistBuilder::decode(NetId sel, std::size_t n) {
  std::vector<NetId> enables;
  enables.reserve(n);
  const std::uint16_t w = netlist_.net(sel).width;
  for (std::size_t i = 0; i < n; ++i) {
    enables.push_back(eq(sel, constant(i, w)));
  }
  return enables;
}

NetId NetlistBuilder::bit(NetId bus, int bit_index) {
  if (netlist_.net(bus).width == 1 && bit_index == 0) return bus;
  // Shift-and-mask through a truth-table LUT is overkill; model bit select
  // as a 1-bit EQ against the masked bus: cheaper is a dedicated pass with
  // truth table. We use LTU trick: ((bus >> k) & 1) via AND with a one-hot
  // constant then compare against zero.
  const std::uint16_t w = netlist_.net(bus).width;
  const NetId masked = op2(LutOp::kAnd, bus, constant(1ULL << bit_index, w), w);
  return not1(eq(masked, zero(w)));
}

NetId NetlistBuilder::add(NetId a, NetId b, std::uint16_t width, std::string name) {
  Cell cell;
  cell.type = CellType::kAdd;
  cell.width = width;
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::sub(NetId a, NetId b, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kAdd;
  cell.width = width;
  cell.init = 1;  // subtract
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::smax(NetId a, NetId b, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kMax;
  cell.width = width;
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::relu(NetId a, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kRelu;
  cell.width = width;
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::adder_tree(std::vector<NetId> terms, std::uint16_t width) {
  if (terms.empty()) return zero(width);
  while (terms.size() > 1) {
    std::vector<NetId> next;
    next.reserve((terms.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(add(terms[i], terms[i + 1], width));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

NetId NetlistBuilder::mul_const_add(NetId b_net, std::uint64_t k, NetId addend,
                                    std::uint16_t width) {
  // Constant folding: a term driven by a constant-zero cell contributes
  // nothing (degenerate group counters fold away, as synthesis would do).
  const Net& b_info = netlist_.net(b_net);
  if (b_info.driver != kInvalidCell) {
    const Cell& driver = netlist_.cell(b_info.driver);
    if (driver.type == CellType::kConst && driver.init == 0) k = 0;
  }
  // Binary expansion: repeatedly double b_net, adding doubled terms where k
  // has a set bit. k == 0 degenerates to the addend alone.
  NetId acc = addend;
  NetId term = b_net;
  bool first_add = (addend == kInvalidNet);
  while (k != 0) {
    if (k & 1) {
      if (first_add) {
        acc = term;
        first_add = false;
      } else {
        acc = add(acc, term, width);
      }
    }
    k >>= 1;
    if (k != 0) term = add(term, term, width);  // double
  }
  if (first_add) return zero(width);
  return acc;
}

NetId NetlistBuilder::dsp(NetId a, NetId b, NetId c, int shift, int stages,
                          std::uint16_t width, std::string name) {
  Cell cell;
  cell.type = CellType::kDsp;
  cell.width = width;
  cell.init = static_cast<std::uint64_t>(shift);
  cell.stages = static_cast<std::uint8_t>(stages);
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, a);
  netlist_.connect_input(id, 1, b);
  if (c != kInvalidNet) netlist_.connect_input(id, 2, c);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::ff(NetId d, NetId ce, std::uint16_t width, std::string name) {
  Cell cell;
  cell.type = CellType::kFf;
  cell.width = width;
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, d);
  if (ce != kInvalidNet) netlist_.connect_input(id, 1, ce);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetlistBuilder::Reg NetlistBuilder::reg(std::uint16_t width, std::string name,
                                        std::string net_name) {
  Cell cell;
  cell.type = CellType::kFf;
  cell.width = width;
  cell.name = std::move(name);
  Reg r;
  r.cell = netlist_.add_cell(std::move(cell));
  r.q = new_net(width, std::move(net_name));
  netlist_.connect_output(r.cell, 0, r.q);
  return r;
}

void NetlistBuilder::drive(const Reg& r, NetId d, NetId ce) {
  netlist_.connect_input(r.cell, 0, d);
  if (ce != kInvalidNet) netlist_.connect_input(r.cell, 1, ce);
}

NetId NetlistBuilder::delay(NetId d, int n, std::uint16_t width) {
  for (int i = 0; i < n; ++i) d = ff(d, kInvalidNet, width);
  return d;
}

NetId NetlistBuilder::srl(NetId d, NetId ce, std::uint16_t depth, std::uint16_t width) {
  Cell cell;
  cell.type = CellType::kSrl;
  cell.width = width;
  cell.depth = depth;
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, d);
  if (ce != kInvalidNet) netlist_.connect_input(id, 1, ce);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetId NetlistBuilder::bram(NetId addr, NetId wdata, NetId we, std::uint32_t depth,
                           std::uint16_t width, std::int32_t rom_id, std::string name,
                           NetId raddr) {
  Cell cell;
  cell.type = CellType::kBram;
  cell.width = width;
  cell.bram_depth = depth;
  cell.rom_id = rom_id;
  cell.name = std::move(name);
  const CellId id = netlist_.add_cell(std::move(cell));
  netlist_.connect_input(id, 0, addr);
  if (wdata != kInvalidNet) netlist_.connect_input(id, 1, wdata);
  if (we != kInvalidNet) netlist_.connect_input(id, 2, we);
  if (raddr != kInvalidNet) netlist_.connect_input(id, 3, raddr);
  const NetId out = new_net(width);
  netlist_.connect_output(id, 0, out);
  return out;
}

NetlistBuilder::Counter NetlistBuilder::counter(std::uint32_t modulus, NetId enable,
                                                std::uint16_t width, std::string name) {
  assert(modulus >= 1);
  if (modulus == 1) {
    // Degenerate counter: constant zero, wraps on every enabled cycle.
    return Counter{zero(width), enable};
  }
  // value FF; next = wrap ? 0 : value + 1, loaded when enable.
  const Reg value = reg(width, name.empty() ? std::string("ctr") : name, name);
  const NetId at_top = eq(value.q, constant(modulus - 1, width));
  const NetId wrap = and2(at_top, enable);
  const NetId incremented = add(value.q, constant(1, width), width);
  drive(value, mux2(incremented, zero(width), at_top, width), enable);
  return Counter{value.q, wrap};
}

NetId NetlistBuilder::accum(NetId step, NetId enable, NetId clear, std::uint16_t width,
                            std::string name) {
  const Reg value = reg(width, std::move(name));
  const NetId sum = add(value.q, step, width);
  const NetId next = mux2(sum, zero(width), clear, width);
  drive(value, next, or2(enable, clear));
  return value.q;
}

}  // namespace fpgasim
