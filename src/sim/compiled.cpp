#include "sim/compiled.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>

#include "netlist/comb_graph.h"
#include "sim/eval.h"
#include "sim/fixed.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

constexpr std::size_t kLanes = SimPlan::kLanes;

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

std::atomic<std::uint64_t> g_plans_compiled{0};

}  // namespace

std::uint64_t SimPlan::plans_compiled() {
  return g_plans_compiled.load(std::memory_order_relaxed);
}

SimPlan::SimPlan(const Netlist& netlist) : name_(netlist.name()) {
  net_count_ = netlist.net_count();
  const auto slot_of = [](NetId n) { return static_cast<std::uint32_t>(n * kLanes); };

  // Hidden slot groups: one per pipelined DSP (its combinational MAC value,
  // computed during settle, captured by the pipe on step), plus a single
  // always-zero group that unconnected input pins resolve to.
  std::vector<std::uint32_t> dsp_hidden(netlist.cell_count(), 0);
  std::size_t hidden = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type == CellType::kDsp && cell.stages > 0) {
      dsp_hidden[c] = static_cast<std::uint32_t>((net_count_ + hidden) * kLanes);
      ++hidden;
    }
  }
  const auto zero_slot = static_cast<std::uint32_t>((net_count_ + hidden) * kLanes);
  const std::size_t state_elems = (net_count_ + hidden + 1) * kLanes;

  const auto pin_slot = [&](const Cell& cell, std::size_t pin) -> std::uint32_t {
    if (pin >= cell.inputs.size() || cell.inputs[pin] == kInvalidNet) return zero_slot;
    return slot_of(cell.inputs[pin]);
  };

  // Schedule: the CombGraph nodes (combinational cells minus constants) in
  // stable (level, cell-id) order — deterministic and levelized; levels
  // are the longest-path depth, so cells within a level are independent.
  // (Pipelined-DSP MAC captures are NOT part of the settle schedule: they
  // are only needed once per clock edge, so they evaluate in step()
  // phase 1 against the already-settled fabric — the interpreter likewise
  // computes each MAC once per cycle.)
  const CombGraph graph(netlist);
  if (graph.has_cycle()) {
    throw std::runtime_error("compiled sim: combinational loop in netlist '" + name_ + "'");
  }
  std::vector<CellId> order = graph.order();
  std::sort(order.begin(), order.end(), [&](CellId x, CellId y) {
    return std::pair(graph.level(x), x) < std::pair(graph.level(y), y);
  });

  level_begin_.assign(graph.depth() + 1, 0);
  for (const CellId c : order) {
    const Cell& cell = netlist.cell(c);

    CombOp op;
    op.width = cell.width;
    op.mask = width_mask(cell.width);
    op.init = cell.init;
    op.a = pin_slot(cell, 0);
    op.b = pin_slot(cell, 1);
    op.c = pin_slot(cell, 2);

    switch (cell.type) {
      case CellType::kLut:
        switch (cell.op) {
          case LutOp::kAnd: op.op = Op::kAnd; break;
          case LutOp::kOr: op.op = Op::kOr; break;
          case LutOp::kXor: op.op = Op::kXor; break;
          case LutOp::kNot: op.op = Op::kNot; break;
          case LutOp::kMux2: op.op = Op::kMux2; break;
          case LutOp::kEq: op.op = Op::kEq; break;
          case LutOp::kLtU: op.op = Op::kLtU; break;
          case LutOp::kPass: op.op = Op::kPass; break;
          case LutOp::kTruth6: {
            op.op = Op::kTruth6;
            op.in_begin = static_cast<std::uint32_t>(truth_inputs_.size());
            const std::size_t n = std::min(cell.inputs.size(), kMaxCombPins);
            for (std::size_t p = 0; p < n; ++p) truth_inputs_.push_back(pin_slot(cell, p));
            op.in_count = static_cast<std::uint32_t>(n);
            break;
          }
        }
        break;
      case CellType::kAdd:
        op.op = (cell.init & 1) != 0 ? Op::kSub : Op::kAdd;
        break;
      case CellType::kMax: op.op = Op::kMax; break;
      case CellType::kRelu: op.op = Op::kRelu; break;
      case CellType::kDsp: op.op = Op::kDsp; break;  // stages == 0
      default:
        continue;  // unreachable: consts folded, sequentials below
    }
    // Primary output plus explicit fan-out of any further output pins.
    bool have_primary = false;
    for (NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      if (!have_primary) {
        op.out = slot_of(out);
        have_primary = true;
        continue;
      }
      if (op.fan_count == 0) op.fan_begin = static_cast<std::uint32_t>(fanout_.size());
      fanout_.push_back(slot_of(out));
      ++op.fan_count;
    }
    if (!have_primary) continue;  // nothing observable
    level_begin_[graph.level(c) + 1] += 1;
    ops_.push_back(op);
  }
  // Prefix-sum the per-level counts into [begin, end) offsets.
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }

  // One MAC-capture op per pipelined DSP, evaluated once per clock edge in
  // step() phase 1 (the fabric is settled there, so no levelization
  // needed); the result lands in the DSP's hidden slot.
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type != CellType::kDsp || cell.stages == 0) continue;
    CombOp op;
    op.op = Op::kDsp;
    op.width = cell.width;
    op.mask = width_mask(cell.width);
    op.init = cell.init;
    op.a = pin_slot(cell, 0);
    op.b = pin_slot(cell, 1);
    op.c = pin_slot(cell, 2);
    op.out = dsp_hidden[c];
    dsp_capture_.push_back(op);
  }

  // Sequential plan, in cell order (deterministic; order is semantically
  // irrelevant thanks to the two-phase edge). The memory address space is
  // split at compile time: read-only BRAMs (no write port) hold
  // lane-invariant contents, so one copy lives in the PLAN and is shared
  // by every context (a VGG coefficient set would otherwise cost 64x per
  // context); writable memories get a lane-major copy in each context's
  // arena.
  std::size_t pipe_words = 0;
  std::size_t rom_words = 0;
  std::size_t wmem_words = 0;
  std::uint32_t capture_index = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (!is_sequential(cell)) continue;

    SeqOp sq;
    sq.type = cell.type;
    sq.width = cell.width;
    sq.mask = width_mask(cell.width);
    sq.depth = static_cast<std::uint32_t>(seq_pipe_depth(cell));
    sq.pipe_base = static_cast<std::uint32_t>(pipe_words);
    pipe_words += sq.depth * kLanes;

    switch (cell.type) {
      case CellType::kFf:
      case CellType::kSrl:
        sq.d = pin_slot(cell, 0);
        sq.has_ce = cell.inputs.size() > 1 && cell.inputs[1] != kInvalidNet;
        if (sq.has_ce) sq.ce = slot_of(cell.inputs[1]);
        break;
      case CellType::kDsp:
        sq.d = dsp_hidden[c];  // MAC value computed by the capture op
        sq.capture = capture_index++;
        break;
      case CellType::kBram: {
        sq.waddr = pin_slot(cell, 0);
        sq.wdata = pin_slot(cell, 1);
        sq.has_we = cell.inputs.size() > 2 && cell.inputs[2] != kInvalidNet;
        if (sq.has_we) sq.we = slot_of(cell.inputs[2]);
        const bool has_raddr = cell.inputs.size() > 3 && cell.inputs[3] != kInvalidNet;
        sq.raddr = has_raddr ? slot_of(cell.inputs[3]) : sq.waddr;
        sq.mem_depth = cell.bram_depth;
        sq.mem_shared = !sq.has_we;
        if (sq.mem_shared) {
          sq.mem_base = static_cast<std::uint32_t>(rom_words);
          rom_words += sq.mem_depth;
        } else {
          sq.mem_base = static_cast<std::uint32_t>(wmem_words);
          wmem_words += static_cast<std::size_t>(sq.mem_depth) * kLanes;
        }
        break;
      }
      default:
        break;
    }

    for (NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      if (sq.fan_count == 0) sq.fan_begin = static_cast<std::uint32_t>(fanout_.size());
      fanout_.push_back(slot_of(out));
      ++sq.fan_count;
    }
    seq_.push_back(sq);
  }
  std::uint32_t max_depth = 1;
  for (const SeqOp& sq : seq_) max_depth = std::max(max_depth, sq.depth);

  // Port tables (name -> slot, resolved once).
  for (const Port& port : netlist.ports()) {
    PortPlan plan{port.name, slot_of(port.net), port.width};
    (port.dir == PortDir::kInput ? inputs_ : outputs_).push_back(plan);
  }

  // Input cone: the subset of comb ops transitively downstream of input
  // ports. After a clock edge the whole fabric is settled, and only
  // set_inputs() can invalidate it — so the lazy pre-edge re-settle runs
  // just these ops instead of the full schedule (the bulk of a datapath
  // hangs off registers and memories, not directly off input pins).
  {
    std::vector<char> in_cone(state_elems / kLanes, 0);
    for (const PortPlan& in : inputs_) in_cone[in.slot / kLanes] = 1;
    for (const CombOp& op : ops_) {
      bool hit = in_cone[op.a / kLanes] || in_cone[op.b / kLanes] ||
                 in_cone[op.c / kLanes];
      for (std::uint32_t j = 0; !hit && j < op.in_count; ++j) {
        hit = in_cone[truth_inputs_[op.in_begin + j] / kLanes] != 0;
      }
      if (!hit) continue;
      cone_ops_.push_back(op);
      in_cone[op.out / kLanes] = 1;
      for (std::uint32_t f = 0; f < op.fan_count; ++f) {
        in_cone[fanout_[op.fan_begin + f] / kLanes] = 1;
      }
    }
  }

  // Lane word selection: 32-bit lanes when every value in the design fits
  // (DSP MACs use 64-bit intermediates either way, so any shift is safe),
  // else the general 64-bit engine.
  narrow_ = true;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    if (netlist.cell(c).width > 32) narrow_ = false;
  }
  for (const Port& port : netlist.ports()) {
    if (port.width > 32) narrow_ = false;
  }

  // Per-context arena layout. Every section is a whole number of 64-wide
  // lane groups, so each starts cache-line aligned regardless of lane
  // width; align_elems guards the invariant if a section ever stops being
  // group-granular.
  const std::size_t elem_bytes = narrow_ ? 4 : 8;
  layout_.state_elems = state_elems;
  layout_.pipe_elems = pipe_words;
  layout_.next_elems = seq_.size() * kLanes;
  layout_.ring_elems = static_cast<std::size_t>(max_depth) * kLanes;
  layout_.wmem_elems = wmem_words;
  layout_.state = 0;
  layout_.pipe = layout_.state + align_elems(layout_.state_elems, elem_bytes);
  layout_.next = layout_.pipe + align_elems(layout_.pipe_elems, elem_bytes);
  layout_.ring = layout_.next + align_elems(layout_.next_elems, elem_bytes);
  layout_.wmem = layout_.ring + align_elems(layout_.ring_elems, elem_bytes);
  layout_.total = layout_.wmem + align_elems(layout_.wmem_elems, elem_bytes);

  if (narrow_) {
    build_init_images<std::uint32_t>(netlist);
  } else {
    build_init_images<std::uint64_t>(netlist);
  }
  g_plans_compiled.fetch_add(1, std::memory_order_relaxed);
}

template <typename W>
void SimPlan::build_init_images(const Netlist& netlist) {
  constexpr bool kNarrowW = sizeof(W) == 4;
  auto& init_state = [this]() -> std::vector<W>& {
    if constexpr (kNarrowW) return init_state32_; else return init_state64_;
  }();
  auto& rom = [this]() -> std::vector<W>& {
    if constexpr (kNarrowW) return rom32_; else return rom64_;
  }();
  auto& init_wmem = [this]() -> std::vector<W>& {
    if constexpr (kNarrowW) return init_wmem32_; else return init_wmem64_;
  }();
  init_state.assign(layout_.state_elems, 0);
  init_wmem.assign(layout_.wmem_elems / kLanes, 0);

  // Fold constants into the initial state image; they never change, so
  // contexts inherit them on construction and reset.
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type != CellType::kConst) continue;
    const W v = static_cast<W>(mask_width(cell.init, cell.width));
    for (NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      std::fill_n(&init_state[out * kLanes], kLanes, v);
    }
  }

  // ROM preloads: read-only memories into the shared plan image, writable
  // ROM-initialized memories into the per-row initial image.
  std::size_t rom_total = 0;
  for (const SeqOp& sq : seq_) {
    if (sq.mem_shared) rom_total += sq.mem_depth;
  }
  rom.assign(rom_total, 0);
  std::size_t si = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (!is_sequential(cell)) continue;
    SeqOp& sq = seq_[si++];
    if (cell.type != CellType::kBram || cell.rom_id < 0) continue;
    const auto& image = netlist.rom(cell.rom_id);
    for (std::size_t i = 0; i < sq.mem_depth && i < image.size(); ++i) {
      const W v = static_cast<W>(mask_width(image[i], cell.width));
      if (sq.mem_shared) {
        rom[sq.mem_base + i] = v;
      } else {
        init_wmem[sq.mem_base / kLanes + i] = v;
      }
    }
  }
}

int SimPlan::input_index(const std::string& name) const {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("compiled sim: no input port '" + name + "'");
}

int SimPlan::output_index(const std::string& name) const {
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("compiled sim: no output port '" + name + "'");
}

SimContext::SimContext(std::shared_ptr<const SimPlan> plan) : plan_(std::move(plan)) {
  const SimPlan& p = *plan_;
  // The arena arrives zero-filled, so only rows whose initial image is
  // non-zero need writing: mark them dirty and let reset_impl write them.
  // Writable memory this context never writes stays untouched zero pages.
  wmem_dirty_.assign((p.layout_.wmem_elems / kLanes + 63) / 64, 0);
  const auto mark_nonzero_rows = [this](const auto& image) {
    for (std::size_t row = 0; row < image.size(); ++row) {
      if (image[row] != 0) wmem_dirty_[row / 64] |= 1ULL << (row % 64);
    }
  };
  if (p.narrow_) {
    arena32_ = ZeroedBuffer<std::uint32_t>(p.layout_.total);
    mark_nonzero_rows(p.init_wmem32_);
    reset_impl<std::uint32_t>();
  } else {
    arena64_ = ZeroedBuffer<std::uint64_t>(p.layout_.total);
    mark_nonzero_rows(p.init_wmem64_);
    reset_impl<std::uint64_t>();
  }
}

void SimContext::reset() {
  ++resets_;
  if (plan_->narrow_) reset_impl<std::uint32_t>();
  else reset_impl<std::uint64_t>();
}

template <typename W>
void SimContext::reset_impl() {
  const SimPlan& p = *plan_;
  // Re-image state, flush pipes and scratch — all into the existing arena,
  // no reallocation (the serving engine resets a context per batch). These
  // sections are small; the writable memories are not, and a batch writes
  // few of their rows, so only the rows marked dirty by a BRAM write
  // commit are re-imaged.
  const auto& init_state = p.init_state_vec<W>();
  std::copy(init_state.begin(), init_state.end(), state_base<W>());
  std::fill_n(pipe_base<W>(), p.layout_.pipe_elems, W{0});
  std::fill_n(next_base<W>(), p.layout_.next_elems, W{0});
  std::fill_n(ring_base<W>(), p.layout_.ring_elems, W{0});
  const auto& init_wmem = p.init_wmem_vec<W>();
  W* wmem = wmem_base<W>();
  for (std::size_t i = 0; i < wmem_dirty_.size(); ++i) {
    for (std::uint64_t bits = wmem_dirty_[i]; bits != 0; bits &= bits - 1) {
      const std::size_t row = i * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      std::fill_n(wmem + row * kLanes, kLanes, init_wmem[row]);
    }
    wmem_dirty_[i] = 0;
  }
  seq_head_.assign(p.seq_.size(), 0);
  seq_en_.assign(p.seq_.size(), 0);
  cycle_ = 0;
  settle();
}

void SimContext::set_inputs(int input, std::span<const std::uint64_t> lanes) {
  const SimPlan::PortPlan& port = plan_->inputs_[static_cast<std::size_t>(input)];
  const std::uint64_t m = width_mask(port.width);
  const std::size_t n = std::min(lanes.size(), kLanes);
  if (plan_->narrow_) {
    std::uint32_t* v = state_base<std::uint32_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) v[l] = static_cast<std::uint32_t>(lanes[l] & m);
  } else {
    std::uint64_t* v = state_base<std::uint64_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) v[l] = lanes[l] & m;
  }
  dirty_ = true;
}

void SimContext::set_inputs(int input, std::uint64_t value_all_lanes) {
  const SimPlan::PortPlan& port = plan_->inputs_[static_cast<std::size_t>(input)];
  const std::uint64_t v = value_all_lanes & width_mask(port.width);
  if (plan_->narrow_) {
    std::fill_n(state_base<std::uint32_t>() + port.slot, kLanes,
                static_cast<std::uint32_t>(v));
  } else {
    std::fill_n(state_base<std::uint64_t>() + port.slot, kLanes, v);
  }
  dirty_ = true;
}

void SimContext::set_input_frame(std::span<const std::uint64_t> frame) {
  const auto& inputs = plan_->inputs_;
  if (plan_->narrow_) {
    std::uint32_t* state = state_base<std::uint32_t>();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t m = width_mask(inputs[i].width);
      const std::uint64_t* src = frame.data() + i * kLanes;
      std::uint32_t* v = state + inputs[i].slot;
      for (std::size_t l = 0; l < kLanes; ++l) v[l] = static_cast<std::uint32_t>(src[l] & m);
    }
  } else {
    std::uint64_t* state = state_base<std::uint64_t>();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t m = width_mask(inputs[i].width);
      const std::uint64_t* src = frame.data() + i * kLanes;
      std::uint64_t* v = state + inputs[i].slot;
      for (std::size_t l = 0; l < kLanes; ++l) v[l] = src[l] & m;
    }
  }
  dirty_ = true;
}

void SimContext::get_output_frame(std::span<std::uint64_t> frame) const {
  settle_if_dirty();
  const auto& outputs = plan_->outputs_;
  if (plan_->narrow_) {
    const std::uint32_t* state = state_base<std::uint32_t>();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      const std::uint32_t* v = state + outputs[o].slot;
      std::uint64_t* dst = frame.data() + o * kLanes;
      for (std::size_t l = 0; l < kLanes; ++l) dst[l] = v[l];
    }
  } else {
    const std::uint64_t* state = state_base<std::uint64_t>();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      std::copy_n(state + outputs[o].slot, kLanes, frame.data() + o * kLanes);
    }
  }
}

void SimContext::get_outputs(int output, std::span<std::uint64_t> lanes) const {
  settle_if_dirty();
  const SimPlan::PortPlan& port = plan_->outputs_[static_cast<std::size_t>(output)];
  const std::size_t n = std::min(lanes.size(), kLanes);
  if (plan_->narrow_) {
    const std::uint32_t* v = state_base<std::uint32_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) lanes[l] = v[l];
  } else {
    const std::uint64_t* v = state_base<std::uint64_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) lanes[l] = v[l];
  }
}

std::uint64_t SimContext::get_output(int output, std::size_t lane) const {
  settle_if_dirty();
  const std::uint32_t slot = plan_->outputs_[static_cast<std::size_t>(output)].slot;
  return plan_->narrow_ ? state_base<std::uint32_t>()[slot + lane]
                        : state_base<std::uint64_t>()[slot + lane];
}

std::uint64_t SimContext::peek_net(NetId net, std::size_t lane) const {
  settle_if_dirty();
  return plan_->narrow_ ? state_base<std::uint32_t>()[net * kLanes + lane]
                        : state_base<std::uint64_t>()[net * kLanes + lane];
}

std::uint64_t SimContext::state_digest() const {
  settle_if_dirty();
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a 64
  const std::size_t words = plan_->net_count_ * kLanes;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (plan_->narrow_) {
    const std::uint32_t* s = state_base<std::uint32_t>();
    for (std::size_t i = 0; i < words; ++i) h = (h ^ s[i]) * kPrime;
  } else {
    const std::uint64_t* s = state_base<std::uint64_t>();
    for (std::size_t i = 0; i < words; ++i) h = (h ^ s[i]) * kPrime;
  }
  return h;
}

template <typename W>
void SimContext::eval_op(const SimPlan::CombOp& op) const {
  // Signed intermediates for compare/relu: 32-bit suffices for 32-bit
  // lanes (values are masked to <= 32 bits), 64-bit otherwise. The DSP
  // MAC always widens to 64-bit (see Op::kDsp below).
  using SW = std::conditional_t<sizeof(W) == 4, std::int32_t, std::int64_t>;
  using UW = std::make_unsigned_t<SW>;
  constexpr int kSWBits = sizeof(SW) * 8;
  using Op = SimPlan::Op;
  // Sign-extend a w-bit lane value: shift left in the unsigned domain
  // (never overflows), arithmetic shift back.
  const auto sx = [](W v, int k) {
    return static_cast<SW>(static_cast<UW>(v) << k) >> k;
  };
  W* state = state_base<W>();
  const W* a = state + op.a;
  const W* b = state + op.b;
  const W* c = state + op.c;
  W* o = state + op.out;
  const W m = static_cast<W>(op.mask);
  const int w = op.width;
  switch (op.op) {
    case Op::kAnd:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = static_cast<W>(a[l] & b[l] & m);
      break;
    case Op::kOr:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = static_cast<W>((a[l] | b[l]) & m);
      break;
    case Op::kXor:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = static_cast<W>((a[l] ^ b[l]) & m);
      break;
    case Op::kNot:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = static_cast<W>(~a[l] & m);
      break;
    case Op::kMux2:
      for (std::size_t l = 0; l < kLanes; ++l) {
        o[l] = static_cast<W>(((c[l] & 1) != 0 ? b[l] : a[l]) & m);
      }
      break;
    case Op::kEq:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = a[l] == b[l] ? 1 : 0;
      break;
    case Op::kLtU:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = a[l] < b[l] ? 1 : 0;
      break;
    case Op::kPass:
      for (std::size_t l = 0; l < kLanes; ++l) o[l] = static_cast<W>(a[l] & m);
      break;
    case Op::kTruth6: {
      const std::uint32_t* tin = &plan_->truth_inputs_[op.in_begin];
      const std::uint64_t table = op.init;
      for (std::size_t l = 0; l < kLanes; ++l) {
        std::uint64_t index = 0;
        for (std::uint32_t j = 0; j < op.in_count; ++j) {
          index |= static_cast<std::uint64_t>(state[tin[j] + l] & 1) << j;
        }
        o[l] = static_cast<W>((table >> index) & 1);
      }
      break;
    }
    case Op::kAdd:
      for (std::size_t l = 0; l < kLanes; ++l) {
        o[l] = static_cast<W>((a[l] + b[l]) & m);
      }
      break;
    case Op::kSub:
      for (std::size_t l = 0; l < kLanes; ++l) {
        o[l] = static_cast<W>((a[l] - b[l]) & m);
      }
      break;
    case Op::kMax: {
      const int k = kSWBits - w;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const SW sa = sx(a[l], k);
        const SW sb = sx(b[l], k);
        o[l] = static_cast<W>(static_cast<W>(sa >= sb ? sa : sb) & m);
      }
      break;
    }
    case Op::kRelu: {
      const int k = kSWBits - w;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const SW sa = sx(a[l], k);
        o[l] = static_cast<W>(static_cast<W>(sa > 0 ? sa : 0) & m);
      }
      break;
    }
    case Op::kDsp: {
      const int shift = static_cast<int>(op.init & 0x3f);
      if (w >= 64) {  // sext and clamp are identities at full width
        for (std::size_t l = 0; l < kLanes; ++l) {
          // Unsigned-domain wrap multiply/add, matching eval_comb_cell.
          const std::int64_t prod =
              static_cast<std::int64_t>(static_cast<std::uint64_t>(a[l]) *
                                        static_cast<std::uint64_t>(b[l])) >> shift;
          o[l] = static_cast<W>(static_cast<std::uint64_t>(prod) +
                                static_cast<std::uint64_t>(c[l]));
        }
        break;
      }
      // Fast path: a 16x16 MAC fits int32 exactly (|product| <= 2^30)
      // when the post-multiply shift keeps the int32 shift defined; int32
      // lanes vectorize ~4x denser than the general int64 path below.
      if (w <= 16 && shift <= 30) {
        const int k32 = 32 - w;
        const auto sx32 = [](W v, int kk) {
          return static_cast<std::int32_t>(static_cast<std::uint32_t>(v) << kk) >> kk;
        };
        const std::int32_t hi32 = (std::int32_t{1} << (w - 1)) - 1;
        const std::int32_t lo32 = -hi32 - 1;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int32_t sa = sx32(static_cast<W>(a[l] & m), k32);
          const std::int32_t sb = sx32(static_cast<W>(b[l] & m), k32);
          const std::int32_t sc = sx32(static_cast<W>(c[l] & m), k32);
          std::int32_t prod = (sa * sb) >> shift;
          prod = prod > hi32 ? hi32 : prod < lo32 ? lo32 : prod;
          std::int32_t sum = prod + sc;
          sum = sum > hi32 ? hi32 : sum < lo32 ? lo32 : sum;
          o[l] = static_cast<W>(static_cast<std::uint32_t>(sum) & op.mask);
        }
        break;
      }
      // General: 64-bit intermediates (a 32x32 MAC overflows int32), with
      // hoisted sign-extension shift and branchless clamps so the 64-lane
      // loop vectorizes; semantics identical to eval_comb_cell.
      const int k = 64 - w;
      const auto sx64 = [](W v, int kk) {
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << kk) >> kk;
      };
      const std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
      const std::int64_t lo = -hi - 1;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::int64_t sa = sx64(a[l], k);
        const std::int64_t sb = sx64(b[l], k);
        const std::int64_t sc = sx64(c[l], k);
        // Wrap multiply in the unsigned domain (w up to 63 overflows int64).
        std::int64_t prod = static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(sa) *
                                static_cast<std::uint64_t>(sb)) >> shift;
        prod = prod > hi ? hi : prod < lo ? lo : prod;
        std::int64_t sum = prod + sc;
        sum = sum > hi ? hi : sum < lo ? lo : sum;
        o[l] = static_cast<W>(static_cast<std::uint64_t>(sum) & op.mask);
      }
      break;
    }
  }
  for (std::uint32_t f = 0; f < op.fan_count; ++f) {
    std::copy_n(o, kLanes, state + plan_->fanout_[op.fan_begin + f]);
  }
}

void SimContext::settle() const {
  if (plan_->narrow_) settle_impl<std::uint32_t>(plan_->ops_);
  else settle_impl<std::uint64_t>(plan_->ops_);
}

void SimContext::settle_if_dirty() const {
  if (!dirty_) return;
  if (plan_->narrow_) settle_impl<std::uint32_t>(plan_->cone_ops_);
  else settle_impl<std::uint64_t>(plan_->cone_ops_);
}

template <typename W>
void SimContext::settle_impl(const std::vector<SimPlan::CombOp>& ops) const {
  for (const SimPlan::CombOp& op : ops) eval_op<W>(op);
  dirty_ = false;
}

void SimContext::step() {
  if (plan_->narrow_) step_impl<std::uint32_t>();
  else step_impl<std::uint64_t>();
}

template <typename W>
void SimContext::step_impl() {
  settle_if_dirty();  // phase 1 must read a settled fabric
  const SimPlan& p = *plan_;
  W* state = state_base<W>();
  W* pipe_state = pipe_base<W>();
  W* seq_next = next_base<W>();
  W* ring_scratch = ring_base<W>();
  W* wmem_state = wmem_base<W>();
  std::uint64_t* wmem_dirty = wmem_dirty_.data();
  const W* rom_state = p.rom_vec<W>().data();

  // Phase 1: capture next values and enables for every sequential op.
  for (std::size_t i = 0; i < p.seq_.size(); ++i) {
    const SimPlan::SeqOp& sq = p.seq_[i];
    W* next = &seq_next[i * kLanes];
    std::uint64_t en = ~0ULL;
    if (sq.has_ce) {
      const W* ce = state + sq.ce;
      en = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        en |= static_cast<std::uint64_t>(ce[l] & 1) << l;
      }
    }
    seq_en_[i] = en;

    switch (sq.type) {
      case CellType::kFf:
      case CellType::kSrl: {
        const W* d = state + sq.d;
        const W mask = static_cast<W>(sq.mask);
        for (std::size_t l = 0; l < kLanes; ++l) next[l] = static_cast<W>(d[l] & mask);
        break;
      }
      case CellType::kDsp: {
        // Compute the MAC once per edge against the settled fabric (the
        // capture is not part of the settle schedule).
        eval_op<W>(p.dsp_capture_[sq.capture]);
        std::copy_n(state + sq.d, kLanes, next);
        break;
      }
      case CellType::kBram: {
        const W* raddr = state + sq.raddr;
        if (sq.mem_shared) {
          const W* mem = sq.mem_depth > 0 ? rom_state + sq.mem_base : nullptr;
          for (std::size_t l = 0; l < kLanes; ++l) {
            next[l] = raddr[l] < sq.mem_depth ? mem[raddr[l]] : 0;
          }
        } else {
          for (std::size_t l = 0; l < kLanes; ++l) {
            next[l] = raddr[l] < sq.mem_depth
                          ? wmem_state[sq.mem_base + raddr[l] * kLanes + l]
                          : 0;
          }
          // Read-first within the cell: the write lands after the capture.
          // Each write marks its row dirty for reset(); lanes usually share
          // the write address, so a row is marked once per run of lanes
          // rather than with a read-modify-write per lane.
          const W* we = state + sq.we;
          const W* waddr = state + sq.waddr;
          const W* wdata = state + sq.wdata;
          const W mask = static_cast<W>(sq.mask);
          const std::size_t row_base = sq.mem_base / kLanes;
          std::size_t marked = SIZE_MAX;
          for (std::size_t l = 0; l < kLanes; ++l) {
            if ((we[l] & 1) != 0 && waddr[l] < sq.mem_depth) {
              wmem_state[sq.mem_base + waddr[l] * kLanes + l] =
                  static_cast<W>(wdata[l] & mask);
              const std::size_t row = row_base + waddr[l];
              if (row != marked) {
                wmem_dirty[row / 64] |= 1ULL << (row % 64);
                marked = row;
              }
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Phase 2: commit pipes and drive every connected output pin. The pipe
  // is a ring (logical slot s at physical (head + s) % depth): the common
  // all-lanes-enabled commit retreats the head and writes one group —
  // O(1) in depth, matching the interpreter's deque rotate.
  for (std::size_t i = 0; i < p.seq_.size(); ++i) {
    const SimPlan::SeqOp& sq = p.seq_[i];
    const W* next = &seq_next[i * kLanes];
    const std::uint64_t en = seq_en_[i];
    if (sq.depth == 1) {
      // Depth-1 pipes (plain FFs, BRAM output registers): the driven state
      // slots themselves are the storage — commit straight from the
      // capture, skipping the pipe write + tail read round-trip.
      if (en == ~0ULL) {
        for (std::uint32_t f = 0; f < sq.fan_count; ++f) {
          std::copy_n(next, kLanes, state + p.fanout_[sq.fan_begin + f]);
        }
      } else if (en != 0) {
        for (std::uint32_t f = 0; f < sq.fan_count; ++f) {
          W* dst = state + p.fanout_[sq.fan_begin + f];
          for (std::size_t l = 0; l < kLanes; ++l) {
            if ((en >> l) & 1) dst[l] = next[l];
          }
        }
      }
      continue;
    }
    W* pipe = &pipe_state[sq.pipe_base];
    std::uint32_t& head = seq_head_[i];
    if (en == ~0ULL) {
      head = head == 0 ? sq.depth - 1 : head - 1;
      std::copy_n(next, kLanes, &pipe[head * kLanes]);
    } else if (en != 0) {
      // Lanes diverge on CE: normalize the ring to head = 0, then shift
      // with an enable blend (a shared head cannot represent per-lane
      // rotation). Rare — only CE-gated pipes with divergent lane inputs.
      if (head != 0) {
        for (std::uint32_t s = 0; s < sq.depth; ++s) {
          const std::uint32_t phys = head + s < sq.depth ? head + s : head + s - sq.depth;
          std::copy_n(&pipe[phys * kLanes], kLanes, &ring_scratch[s * kLanes]);
        }
        std::copy_n(ring_scratch, static_cast<std::size_t>(sq.depth) * kLanes, pipe);
        head = 0;
      }
      for (std::uint32_t s = sq.depth - 1; s > 0; --s) {
        W* dst = &pipe[s * kLanes];
        const W* src = &pipe[(s - 1) * kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          if ((en >> l) & 1) dst[l] = src[l];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        if ((en >> l) & 1) pipe[l] = next[l];
      }
    }
    const std::uint32_t tail =
        head + sq.depth - 1 < sq.depth ? head + sq.depth - 1 : head - 1;
    const W* tail_group = &pipe[tail * kLanes];
    for (std::uint32_t f = 0; f < sq.fan_count; ++f) {
      std::copy_n(tail_group, kLanes, state + p.fanout_[sq.fan_begin + f]);
    }
  }

  // Phase 3: re-settle the combinational fabric on the new state.
  settle();
  ++cycle_;
}

std::string replay_lane(const Netlist& netlist, const SimPlan& plan, const LaneTrace& trace) {
  if (trace.cycles < 1) {
    throw std::invalid_argument("interpreter replay: cycles must be >= 1, got " +
                                std::to_string(trace.cycles));
  }
  const std::size_t ins = plan.input_count();
  const std::size_t outs = plan.output_count();
  const auto diverged = [](const std::string& what, std::uint64_t want, std::uint64_t have) {
    return what + ": interpreter " + std::to_string(want) + ", compiled " +
           std::to_string(have);
  };
  Simulator sim(netlist);
  for (int cycle = 0; cycle < trace.cycles; ++cycle) {
    const auto row = static_cast<std::size_t>(cycle);
    for (std::size_t i = 0; i < ins; ++i) {
      sim.set_input(plan.input_name(i), trace.inputs[row * ins + i]);
    }
    for (const bool post : {false, true}) {
      const std::vector<std::uint64_t>& recorded = post ? trace.outputs : trace.pre_edge;
      if (post) sim.step();
      if (recorded.empty()) continue;
      for (std::size_t o = 0; o < outs; ++o) {
        const std::uint64_t want = sim.get_output(plan.output_name(o));
        if (want != recorded[row * outs + o]) {
          return diverged("cycle " + std::to_string(cycle) + (post ? " post-edge" : " pre-edge") +
                              " port '" + plan.output_name(o) + "'",
                          want, recorded[row * outs + o]);
        }
      }
    }
  }
  // Deep check: every net after the last cycle, so the A/B bites even
  // while a design's outputs are still in their pipeline latency shadow.
  for (std::size_t n = 0; n < trace.nets.size(); ++n) {
    const std::uint64_t want = sim.peek_net(static_cast<NetId>(n));
    if (want != trace.nets[n]) {
      return diverged("net " + std::to_string(n) + " (end of run)", want, trace.nets[n]);
    }
  }
  return {};
}

std::string compare_compiled_vs_interpreter(const Netlist& netlist, int cycles,
                                            std::uint64_t seed,
                                            std::span<const int> lanes_to_check,
                                            std::shared_ptr<const SimPlan> plan) {
  if (!plan) plan = SimPlan::compile(netlist);
  const std::size_t ins = plan->input_count();
  const std::size_t outs = plan->output_count();

  std::vector<int> check(lanes_to_check.begin(), lanes_to_check.end());
  if (check.empty()) {
    for (std::size_t l = 0; l < kLanes; ++l) check.push_back(static_cast<int>(l));
  }
  std::vector<LaneTrace> traces(check.size());

  // Compiled pass over seeded stimulus: every input port of every lane
  // re-randomized each cycle (values masked by the port width on both
  // sides) as one port-major frame. Record each checked lane's inputs and
  // every output, pre-edge (after inputs settle) and post-edge (after
  // step). cycles < 1 records nothing and reaches replay_lane, which throws.
  Rng rng(seed);
  std::vector<std::uint64_t> frame(ins * kLanes);
  SimContext cs(plan);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint64_t& v : frame) v = rng();
    cs.set_input_frame(frame);
    for (const bool post : {false, true}) {
      if (post) cs.step();
      for (std::size_t t = 0; t < check.size(); ++t) {
        const auto lane = static_cast<std::size_t>(check[t]);
        for (std::size_t i = 0; i < ins && !post; ++i) {
          traces[t].inputs.push_back(frame[i * kLanes + lane]);
        }
        for (std::size_t o = 0; o < outs; ++o) {
          (post ? traces[t].outputs : traces[t].pre_edge)
              .push_back(cs.get_output(static_cast<int>(o), lane));
        }
      }
    }
  }

  for (std::size_t t = 0; t < check.size(); ++t) {
    traces[t].cycles = cycles;
    const std::string diff = replay_lane(netlist, *plan, traces[t]);
    if (!diff.empty()) {
      return "divergence in '" + netlist.name() + "': lane " + std::to_string(check[t]) +
             " " + diff;
    }
  }
  return {};
}

}  // namespace fpgasim
