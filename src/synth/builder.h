// Structural netlist construction helpers: the RTL-elaboration layer the
// layer generators are written against. Every method appends primitive
// macro-cells to the underlying netlist and returns the output net.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace fpgasim {

class NetlistBuilder {
 public:
  explicit NetlistBuilder(std::string name) : netlist_(std::move(name)) {}

  /// Finalizes the component: drops logic with no path to an output port
  /// (counters whose wrap is unused, degenerate-modulus residue, ...) so
  /// generated netlists come out lint-clean, then releases the netlist.
  Netlist take() && {
    netlist_.prune_dead();
    return std::move(netlist_);
  }
  Netlist& netlist() { return netlist_; }

  // -- ports ------------------------------------------------------------
  NetId in_port(const std::string& name, std::uint16_t width);
  void out_port(const std::string& name, NetId net);

  // -- combinational ------------------------------------------------------
  NetId constant(std::uint64_t value, std::uint16_t width);
  NetId zero(std::uint16_t width) { return constant(0, width); }
  NetId one() { return constant(1, 1); }

  NetId op2(LutOp op, NetId a, NetId b, std::uint16_t width, std::string name = {});
  NetId and2(NetId a, NetId b) { return op2(LutOp::kAnd, a, b, 1); }
  NetId or2(NetId a, NetId b) { return op2(LutOp::kOr, a, b, 1); }
  NetId xor2(NetId a, NetId b, std::uint16_t w = 1) { return op2(LutOp::kXor, a, b, w); }
  NetId not1(NetId a, std::uint16_t width = 1);
  NetId eq(NetId a, NetId b) { return op2(LutOp::kEq, a, b, 1); }
  NetId ltu(NetId a, NetId b) { return op2(LutOp::kLtU, a, b, 1); }
  NetId mux2(NetId a, NetId b, NetId sel, std::uint16_t width, std::string name = {});
  /// N-to-1 mux tree over equally wide inputs; sel is an index bus.
  NetId muxn(const std::vector<NetId>& inputs, NetId sel, std::uint16_t width);
  /// One-hot decode of sel into n single-bit enables.
  std::vector<NetId> decode(NetId sel, std::size_t n);
  /// Extracts bit `bit` of a bus as a 1-bit net (LUT pass + truth table).
  NetId bit(NetId bus, int bit_index);

  NetId add(NetId a, NetId b, std::uint16_t width, std::string name = {});
  NetId sub(NetId a, NetId b, std::uint16_t width);
  NetId smax(NetId a, NetId b, std::uint16_t width);
  NetId relu(NetId a, std::uint16_t width);
  /// Balanced adder tree; empty input returns constant 0.
  NetId adder_tree(std::vector<NetId> terms, std::uint16_t width);

  /// Multiply by a non-negative compile-time constant using the shift-add
  /// decomposition on the carry chain (no DSP); returns a + k*b staged as
  /// LUT/carry logic. Used for address arithmetic in control-dominated
  /// components like max-pool.
  NetId mul_const_add(NetId b_net, std::uint64_t k, NetId addend, std::uint16_t width);

  /// DSP48 multiply-add: out = clamp(clamp((a*b)>>shift) + c). stages>0
  /// inserts that many internal pipeline registers (sequential output).
  NetId dsp(NetId a, NetId b, NetId c, int shift, int stages, std::uint16_t width,
            std::string name = {});

  // -- sequential -----------------------------------------------------------
  NetId ff(NetId d, NetId ce, std::uint16_t width, std::string name = {});
  /// FF chain of length n (n == 0 returns d unchanged).
  NetId delay(NetId d, int n, std::uint16_t width);
  NetId srl(NetId d, NetId ce, std::uint16_t depth, std::uint16_t width);

  /// Feedback register: declared before the logic that feeds it (state
  /// registers, accumulators, done latches). reg() creates the cell and its
  /// q net; drive() connects d and the clock enable once they exist.
  struct Reg {
    CellId cell = kInvalidCell;
    NetId q = kInvalidNet;
  };
  Reg reg(std::uint16_t width, std::string name, std::string net_name = {});
  void drive(const Reg& r, NetId d, NetId ce);

  /// Synchronous-read memory. Pass kInvalidNet for wdata/we to build a ROM.
  /// When raddr is given the BRAM is dual-port: reads use raddr, writes
  /// use addr; otherwise both share addr.
  NetId bram(NetId addr, NetId wdata, NetId we, std::uint32_t depth, std::uint16_t width,
             std::int32_t rom_id = -1, std::string name = {}, NetId raddr = kInvalidNet);
  std::int32_t rom(std::vector<std::uint64_t> words) {
    return netlist_.add_rom(std::move(words));
  }

  /// Modulo counter: value in [0, modulus), incremented when enable is
  /// high; `wrap` pulses (combinationally) on the cycle the counter is at
  /// modulus-1 with enable high.
  struct Counter {
    NetId value = kInvalidNet;
    NetId wrap = kInvalidNet;
  };
  Counter counter(std::uint32_t modulus, NetId enable, std::uint16_t width,
                  std::string name = {});

  /// Accumulating register: value += step when enable; cleared to 0 when
  /// clear is high (clear wins).
  NetId accum(NetId step, NetId enable, NetId clear, std::uint16_t width,
              std::string name = {});

 private:
  NetId new_net(std::uint16_t width, std::string name = {}) {
    return netlist_.add_net(width, std::move(name));
  }

  Netlist netlist_;
};

/// Number of address bits needed for `depth` entries (>=1).
std::uint16_t addr_bits(std::uint32_t depth);

}  // namespace fpgasim
