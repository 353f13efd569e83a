// The simulation semantics contract: one definition of "what does this
// cell compute", shared by the interpreter (sim/simulator.cpp), the
// compiled bit-parallel simulator (sim/compiled.cpp) and the lint constant
// folder (lint/analyze_values.cpp). Combinational cells are evaluated by
// eval_comb_cell(); sequential cells keep their state in the caller, but
// the *shape* of that state (pipeline depth, pin roles, update order) is
// pinned down here so the two simulators stay bit-identical oracles of
// each other:
//
//   kFf   pins: [0]=d, [1]=clock enable (optional). 1-deep pipe; on step()
//         the pipe captures mask_width(d) when enabled, output = pipe tail.
//   kSrl  pins: [0]=d, [1]=clock enable (optional). `depth`-deep pipe,
//         shifts as one unit when enabled (output = d delayed by depth
//         enabled cycles).
//   kDsp  (stages > 0) pins as eval_comb_cell; `stages`-deep pipe always
//         enabled, capturing the combinational MAC value.
//   kBram pins: [0]=write address (also read address when pin 3 absent),
//         [1]=wdata, [2]=we, [3]=read address. Read-first: the 1-deep
//         output pipe captures mem[raddr] *before* the write lands; both
//         happen on step(). Out-of-range reads return 0, out-of-range
//         writes are dropped. rom_id >= 0 preloads the memory.
//
// step() is a two-phase edge: every sequential cell's next value is
// captured from the settled fabric first, then all pipes commit, then the
// combinational fabric re-settles. Multi-output cells fan the single
// evaluated value out to every connected output pin.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"
#include "sim/fixed.h"

namespace fpgasim {

/// Maximum number of input pins any combinational primitive reads
/// (LutOp::kTruth6 consumes up to six single-bit operands).
inline constexpr std::size_t kMaxCombPins = 6;

/// Depth of a sequential cell's output pipeline (always >= 1; the BRAM
/// pipe is the registered read value).
inline std::size_t seq_pipe_depth(const Cell& cell) {
  std::size_t depth = 1;
  if (cell.type == CellType::kSrl) depth = cell.depth;
  if (cell.type == CellType::kDsp) depth = cell.stages;
  return depth < 1 ? 1 : depth;
}

namespace sim_detail {

inline std::int64_t clamp_signed(std::int64_t v, int width) {
  // Width >= 64 buses already saturate at the int64 range; shifting by
  // width-1 == 63 would overflow (UB), so pass the value through.
  if (width >= 64) return v;
  const std::int64_t hi = (1LL << (width - 1)) - 1;
  const std::int64_t lo = -hi - 1;
  if (v > hi) return hi;
  if (v < lo) return lo;
  return v;
}

}  // namespace sim_detail

/// Evaluates one combinational cell given the settled values of its input
/// pins. `pins[i]` is the value on input pin i; missing/unconnected pins
/// must be passed as 0 (the interpreter's in_val convention). `n` is the
/// number of valid entries in `pins` (>= the pins the cell actually reads,
/// extra entries are ignored). Sequential cells return 0.
inline std::uint64_t eval_comb_cell(const Cell& cell, const std::uint64_t* pins,
                                    std::size_t n) {
  const int w = cell.width;
  const auto pin = [&](std::size_t i) -> std::uint64_t { return i < n ? pins[i] : 0; };
  const std::uint64_t a = pin(0);
  const std::uint64_t b = pin(1);
  switch (cell.type) {
    case CellType::kConst:
      return mask_width(cell.init, w);
    case CellType::kLut:
      switch (cell.op) {
        case LutOp::kAnd: return mask_width(a & b, w);
        case LutOp::kOr: return mask_width(a | b, w);
        case LutOp::kXor: return mask_width(a ^ b, w);
        case LutOp::kNot: return mask_width(~a, w);
        case LutOp::kMux2: return mask_width((pin(2) & 1) ? b : a, w);
        case LutOp::kEq: return a == b ? 1 : 0;
        case LutOp::kLtU: return a < b ? 1 : 0;
        case LutOp::kPass: return mask_width(a, w);
        case LutOp::kTruth6: {
          std::uint64_t index = 0;
          for (std::size_t i = 0; i < cell.inputs.size() && i < kMaxCombPins; ++i) {
            index |= (pin(i) & 1) << i;
          }
          return (cell.init >> index) & 1;
        }
      }
      return 0;
    case CellType::kAdd: {
      const bool sub = (cell.init & 1) != 0;
      return mask_width(sub ? a - b : a + b, w);
    }
    case CellType::kMax: {
      const std::int64_t sa = sext(a, w);
      const std::int64_t sb = sext(b, w);
      return mask_width(static_cast<std::uint64_t>(sa >= sb ? sa : sb), w);
    }
    case CellType::kRelu: {
      const std::int64_t sa = sext(a, w);
      return mask_width(static_cast<std::uint64_t>(sa > 0 ? sa : 0), w);
    }
    case CellType::kDsp: {
      const int shift = static_cast<int>(cell.init & 0x3f);
      // Multiply and accumulate wrap in the unsigned domain: for wide
      // operands the mathematical product exceeds int64, and signed
      // overflow is UB — two's-complement wrap is the defined (and
      // hardware-accurate) semantics both simulators share.
      const std::int64_t raw = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(sext(a, w)) *
          static_cast<std::uint64_t>(sext(b, w)));
      const std::int64_t prod = sim_detail::clamp_signed(raw >> shift, w);
      const std::int64_t sum = sim_detail::clamp_signed(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(prod) +
                                    static_cast<std::uint64_t>(sext(pin(2), w))),
          w);
      return mask_width(static_cast<std::uint64_t>(sum), w);
    }
    case CellType::kFf:
    case CellType::kSrl:
    case CellType::kBram:
      return 0;  // sequential cells are not evaluated here
  }
  return 0;
}

}  // namespace fpgasim
