// Forward 3-valued (0/1/X) constant- and X-propagation. Every net carries
// an abstract value from the lattice
//
//       Bot  <  Const(c)  <  Ext  <  X
//
// where Bot = not yet computed (dead/loop-only logic keeps it), Const(c) =
// provably the full-bus constant c on every cycle, Ext = driven and
// well-defined but input-dependent, X = may expose uninitialized state.
// join(Const(a), Const(b!=a)) = Ext; everything else is rank-max. The
// transfer functions are monotone and the lattice has height 3, so the
// chaotic iteration below terminates even on netlists with combinational
// loops (their nets simply stay Bot).
//
// Seeds: input ports are Ext (unknown but driven), kConst cells their
// value, a BRAM with neither ROM contents nor a write port is the X
// source (its power-up contents are never defined), and floating inputs
// are X. Registers model reset: an FF/SRL output is join(Const(0), input)
// — the reset state dominates only until the first load, so an X on the
// data input escapes into state and propagates (the paper-flow risk this
// pass exists to catch).
//
// Findings: lint-stuck-net (net constant at fixpoint without a kConst
// driver), lint-const-lut (the constant net's driver is a foldable LUT)
// and lint-x-escape (an output port's net is X; the message names the
// originating source).
#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "lint/lint.h"
#include "sim/eval.h"

namespace fpgasim {
namespace lint {
namespace detail {
namespace {

enum class Kind : std::uint8_t { kBot = 0, kConst = 1, kExt = 2, kX = 3 };

struct AbsVal {
  Kind kind = Kind::kBot;
  std::uint64_t value = 0;        // kConst only
  NetId origin = kInvalidNet;     // kX only: net that introduced the X

  friend bool operator==(const AbsVal& a, const AbsVal& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == Kind::kConst) return a.value == b.value;
    if (a.kind == Kind::kX) return a.origin == b.origin;
    return true;
  }
};

AbsVal bot() { return {}; }
AbsVal constant(std::uint64_t v, int width) {
  return {Kind::kConst, mask_width(v, width), kInvalidNet};
}
AbsVal ext() { return {Kind::kExt, 0, kInvalidNet}; }
AbsVal unknown(NetId origin) { return {Kind::kX, 0, origin}; }

AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == b.kind) {
    if (a.kind == Kind::kConst && a.value != b.value) return ext();
    if (a.kind == Kind::kX) return a;  // first origin wins (deterministic)
    return a;
  }
  const AbsVal& hi = a.kind > b.kind ? a : b;
  return hi;
}

/// The abstract evaluator for one cell. `pin(i)` is the abstract value on
/// input pin i; missing optional pins read as Const(0) (the interpreter's
/// convention), missing required pins as X.
class CellEval {
 public:
  CellEval(const Netlist& nl, const std::vector<AbsVal>& values) : nl_(nl), values_(values) {}

  AbsVal output(CellId id) const {
    const Cell& cell = nl_.cell(id);
    switch (cell.type) {
      case CellType::kConst:
        return constant(cell.init, cell.width);
      case CellType::kFf:
      case CellType::kSrl: {
        const AbsVal in = pin(cell, 0, id);
        const AbsVal en = pin(cell, 1, id);
        // Clock-enable stuck low: the register never leaves reset.
        if (connected(cell, 1) && en.kind == Kind::kConst && (en.value & 1) == 0) {
          return constant(0, cell.width);
        }
        if (in.kind == Kind::kBot) return bot();
        return join(constant(0, cell.width), in);
      }
      case CellType::kBram:
        return bram_read(cell, id);
      case CellType::kDsp:
        if (cell.stages > 0) {
          const AbsVal mac = comb(cell, id);
          if (mac.kind == Kind::kBot) return bot();
          return join(constant(0, cell.width), mac);
        }
        return comb(cell, id);
      default:
        return comb(cell, id);
    }
  }

 private:
  bool connected(const Cell& cell, std::size_t i) const {
    return i < cell.inputs.size() && cell.inputs[i] != kInvalidNet &&
           cell.inputs[i] < nl_.net_count();
  }

  /// Abstract value on input pin i. Required-but-missing pins are X, with
  /// the cell's own output net as origin (there is no source net to name).
  AbsVal pin(const Cell& cell, std::size_t i, CellId id) const {
    if (connected(cell, i)) return values_[cell.inputs[i]];
    for (const std::uint16_t req : required_input_pins(cell)) {
      if (req == i) {
        const NetId self = !cell.outputs.empty() && cell.outputs[0] != kInvalidNet &&
                                   cell.outputs[0] < nl_.net_count()
                               ? cell.outputs[0]
                               : kInvalidNet;
        (void)id;
        return unknown(self);
      }
    }
    return constant(0, 64);
  }

  AbsVal bram_read(const Cell& cell, CellId id) const {
    const bool writable = connected(cell, 2);
    if (cell.rom_id >= 0 && cell.rom_id < static_cast<std::int32_t>(nl_.rom_count())) {
      // ROM contents are defined; uninitialized words and out-of-range
      // reads return 0 (read-first model). Constant only if every word is.
      const auto& rom = nl_.rom(cell.rom_id);
      std::uint64_t first = 0;
      bool all_equal = true;
      for (std::size_t i = 0; i < rom.size() && i < cell.bram_depth; ++i) {
        const std::uint64_t w = mask_width(rom[i], cell.width);
        if (i == 0) {
          first = w;
        } else if (w != first) {
          all_equal = false;
          break;
        }
      }
      if (rom.size() < cell.bram_depth && first != 0) all_equal = false;
      AbsVal value = all_equal && !rom.empty() ? constant(first, cell.width) : ext();
      if (writable) value = join(value, pin(cell, 1, id));
      return value;
    }
    if (writable) {
      // RAM written at runtime: contents are the initial zeros or data that
      // went through the write port.
      const AbsVal wdata = pin(cell, 1, id);
      if (wdata.kind == Kind::kBot) return bot();
      return join(constant(0, cell.width), wdata);
    }
    // Neither ROM contents nor a write port: reads expose whatever the
    // memory powered up with. This is the uninitialized-state source.
    const NetId self = !cell.outputs.empty() && cell.outputs[0] != kInvalidNet &&
                               cell.outputs[0] < nl_.net_count()
                           ? cell.outputs[0]
                           : kInvalidNet;
    return unknown(self);
  }

  AbsVal comb(const Cell& cell, CellId id) const {
    const std::size_t read = cell.type == CellType::kLut && cell.op == LutOp::kTruth6
                                 ? std::min(cell.inputs.size(), kMaxCombPins)
                                 : (cell.type == CellType::kDsp ? 3
                                    : cell.type == CellType::kLut && cell.op == LutOp::kMux2
                                        ? 3
                                        : 2);
    AbsVal in[kMaxCombPins];
    bool any_bot = false;
    bool all_const = true;
    for (std::size_t i = 0; i < read; ++i) {
      in[i] = pin(cell, i, id);
      if (in[i].kind == Kind::kBot) any_bot = true;
      if (in[i].kind != Kind::kConst) all_const = false;
    }
    if (all_const) {
      std::uint64_t pins[kMaxCombPins] = {};
      for (std::size_t i = 0; i < read; ++i) pins[i] = in[i].value;
      return constant(eval_comb_cell(cell, pins, read),
                      expected_output_width(cell));
    }
    if (cell.type == CellType::kLut) {
      const AbsVal folded = lut_masks(cell, in, read);
      if (folded.kind != Kind::kBot) return folded;
    }
    if (any_bot) return bot();
    // No masking applies: the output is as unknown as the worst input.
    AbsVal acc = in[0];
    for (std::size_t i = 1; i < read; ++i) acc = taint_join(acc, in[i]);
    return acc;
  }

  /// Rank-max join that never produces Const (used when a cell combines
  /// non-constant operands: the result is Ext or X, never provably const).
  static AbsVal taint_join(const AbsVal& a, const AbsVal& b) {
    const AbsVal j = join(a, b);
    if (j.kind == Kind::kConst) return ext();
    return j;
  }

  /// Constant masking on partially-known LUT operands: AND with 0, OR with
  /// all-ones, a constant MUX select, and Truth6 tables insensitive to
  /// their unknown bits all fold to a definite value. Returns Bot when no
  /// mask applies.
  AbsVal lut_masks(const Cell& cell, const AbsVal* in, std::size_t read) const {
    const int w = cell.width;
    const std::uint64_t ones = mask_width(~0ULL, w);
    const auto is_const = [&](std::size_t i, std::uint64_t v) {
      return in[i].kind == Kind::kConst && in[i].value == v;
    };
    switch (cell.op) {
      case LutOp::kAnd:
        if (is_const(0, 0) || is_const(1, 0)) return constant(0, w);
        if (is_const(0, ones)) return in[1];
        if (is_const(1, ones)) return in[0];
        return bot();
      case LutOp::kOr:
        if (is_const(0, ones) || is_const(1, ones)) return constant(ones, w);
        if (is_const(0, 0)) return in[1];
        if (is_const(1, 0)) return in[0];
        return bot();
      case LutOp::kMux2:
        if (in[2].kind == Kind::kConst) return (in[2].value & 1) ? in[1] : in[0];
        if (in[0].kind == Kind::kConst && in[1].kind == Kind::kConst &&
            in[0].value == in[1].value) {
          return in[0];  // both arms equal: the select cannot matter
        }
        return bot();
      case LutOp::kPass:
        return in[0];
      case LutOp::kNot:
        return in[0].kind == Kind::kConst ? constant(~in[0].value, w) : in[0];
      case LutOp::kTruth6: {
        // Enumerate the unknown single-bit inputs; if the table's output is
        // the same under every assignment, the cell folds to a constant.
        std::uint64_t base = 0;
        std::vector<std::size_t> free_bits;
        for (std::size_t i = 0; i < read; ++i) {
          if (in[i].kind == Kind::kConst) {
            base |= (in[i].value & 1) << i;
          } else if (in[i].kind == Kind::kBot) {
            return bot();
          } else {
            free_bits.push_back(i);
          }
        }
        if (free_bits.size() >= 16) return bot();  // cannot happen (<= 6 pins)
        std::uint64_t first = 0;
        for (std::uint64_t m = 0; m < (1ULL << free_bits.size()); ++m) {
          std::uint64_t index = base;
          for (std::size_t b = 0; b < free_bits.size(); ++b) {
            if ((m >> b) & 1) index |= 1ULL << free_bits[b];
          }
          const std::uint64_t bit = (cell.init >> index) & 1;
          if (m == 0) {
            first = bit;
          } else if (bit != first) {
            return bot();
          }
        }
        return constant(first, 1);
      }
      default:
        return bot();
    }
  }

  const Netlist& nl_;
  const std::vector<AbsVal>& values_;
};

std::string origin_ref(const Netlist& nl, const AbsVal& v) {
  if (v.origin == kInvalidNet || v.origin >= nl.net_count()) {
    return "an unconnected required input";
  }
  const Net& net = nl.net(v.origin);
  std::string s = net_ref(nl, v.origin);
  if (net.driver != kInvalidCell && net.driver < nl.cell_count()) {
    const Cell& drv = nl.cell(net.driver);
    if (drv.type == CellType::kBram) {
      s = "uninitialized " + cell_ref(nl, net.driver) + " (no ROM contents, no write port) via " + s;
    } else {
      s = cell_ref(nl, net.driver) + " via " + s;
    }
  } else {
    s = "floating " + s;
  }
  return s;
}

}  // namespace

void analyze_values(const Netlist& nl, Emitter& out) {
  std::vector<AbsVal> values(nl.net_count());

  // Seeds: input ports are externally driven; driverless nets with readers
  // float (X); everything else starts Bot and is computed below.
  const std::vector<bool> is_input_port = port_nets(nl, PortDir::kInput);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (is_input_port[n]) {
      values[n] = ext();
    } else if (net.driver >= nl.cell_count() && !net.sinks.empty()) {
      values[n] = unknown(n);  // floating net read by real sinks
    }
  }

  // Chaotic iteration to the fixpoint. Deterministic: the worklist is a
  // FIFO seeded in cell-id order, and every transfer is a pure function of
  // the current values.
  CellEval eval(nl, values);
  std::deque<CellId> worklist;
  std::vector<bool> queued(nl.cell_count(), false);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    worklist.push_back(c);
    queued[c] = true;
  }
  while (!worklist.empty()) {
    const CellId c = worklist.front();
    worklist.pop_front();
    queued[c] = false;
    const Cell& cell = nl.cell(c);
    if (cell.outputs.empty()) continue;
    const AbsVal next = eval.output(c);
    // Secondary outputs (rare) are conservatively external.
    for (std::size_t pin = 1; pin < cell.outputs.size(); ++pin) {
      const NetId o = cell.outputs[pin];
      if (o != kInvalidNet && o < nl.net_count() && values[o].kind == Kind::kBot) {
        values[o] = ext();
      }
    }
    const NetId o = cell.outputs[0];
    if (o == kInvalidNet || o >= nl.net_count()) continue;
    const AbsVal merged = join(values[o], next);
    if (merged == values[o]) continue;
    values[o] = merged;
    for (const auto& [sink, sink_pin] : nl.net(o).sinks) {
      (void)sink_pin;
      if (sink < nl.cell_count() && !queued[sink]) {
        worklist.push_back(sink);
        queued[sink] = true;
      }
    }
  }

  // Output-port bindings count as readers for the stuck-at report.
  const std::vector<bool> output_bound = port_nets(nl, PortDir::kOutput);

  // A constant net is only a *finding* when the constancy comes from
  // masking — the driver reads at least one genuinely input-dependent (Ext
  // or X) operand yet always produces the same value. Constants that are
  // merely propagated from kConst cells (delayed, added, concatenated) are
  // the normal way generators materialize derived parameters; flagging
  // them would fail every clean design (false-positive contract).
  const auto masks_real_signal = [&](const Cell& driver) {
    for (const NetId in : driver.inputs) {
      if (in == kInvalidNet || in >= nl.net_count()) continue;
      if (values[in].kind == Kind::kExt || values[in].kind == Kind::kX) return true;
    }
    return false;
  };

  begin_rule(out, "lint-stuck-net");
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (values[n].kind != Kind::kConst) continue;
    if (net.sinks.empty() && !output_bound[n]) continue;
    if (net.driver == kInvalidCell || net.driver >= nl.cell_count()) continue;
    const Cell& driver = nl.cell(net.driver);
    if (driver.type == CellType::kConst || driver.type == CellType::kLut) continue;
    if (!masks_real_signal(driver)) continue;
    out.emit(net_ref(nl, n) + " is stuck at constant " + std::to_string(values[n].value) +
                 " (driver " + cell_ref(nl, net.driver) + " masks a live signal)",
             net.driver, n);
  }

  begin_rule(out, "lint-const-lut");
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (values[n].kind != Kind::kConst) continue;
    if (net.sinks.empty() && !output_bound[n]) continue;
    if (net.driver == kInvalidCell || net.driver >= nl.cell_count()) continue;
    const Cell& driver = nl.cell(net.driver);
    if (driver.type != CellType::kLut) continue;
    if (!masks_real_signal(driver)) continue;
    out.emit(cell_ref(nl, net.driver) + " always evaluates to " +
                 std::to_string(values[n].value) + "; foldable to a constant (drives " +
                 net_ref(nl, n) + ")",
             net.driver, n);
  }

  begin_rule(out, "lint-x-escape");
  for (const Port& port : nl.ports()) {
    if (port.dir != PortDir::kOutput || port.net >= nl.net_count()) continue;
    const AbsVal& v = values[port.net];
    if (v.kind != Kind::kX) continue;
    out.emit("output port '" + port.name +
                 "' can expose uninitialized state (X) originating at " + origin_ref(nl, v),
             kInvalidCell, port.net);
  }
}

}  // namespace detail
}  // namespace lint
}  // namespace fpgasim
