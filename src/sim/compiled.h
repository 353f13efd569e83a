// Compiled levelized bit-parallel simulator, split into an immutable
// shared *plan* and cheap per-worker *contexts*.
//
// Where sim/simulator.h interprets the netlist cell-by-cell (one test
// vector at a time, per-eval pin resolution, std::deque sequential state),
// SimPlan compiles a Netlist ONCE into a flat execution plan and a
// SimContext evaluates kLanes (64) independent test vectors per pass:
//
//   - the combinational fabric becomes a topologically *levelized*
//     schedule of fixed-size ops with pre-resolved input/output state
//     slots (no per-eval std::min, no branching on inputs.size(), no
//     name lookups);
//   - every net's value lives in one contiguous 64-wide word group of a
//     single flat arena (lane-major: slot = net * kLanes + lane), so each
//     op kernel is a tight 64-iteration loop the compiler vectorizes;
//   - sequential state (FF/SRL pipes, DSP pipeline stages, BRAM
//     memories) is packed into the same arena, laid out at compile time —
//     read-only BRAMs (ROMs) keep a single copy in the PLAN, shared by
//     every context (a VGG weight set is ~hundreds of MB; contexts stay
//     a few MB each);
//   - constant cells are folded into the plan's initial state image and
//     dropped from the schedule.
//
// The plan/state split is what makes traffic-scale serving cheap: compile
// once, then instantiate N contexts whose construction cost is one lazily
// zeroed arena allocation plus the non-zero part of the initial image — no
// re-levelization. Contexts are fully independent (the plan is immutable
// after compile), so N of them can run on N threads with no
// synchronization; each context's arena is cache-line aligned so parallel
// contexts never false-share. reset() returns a context to the plan's
// initial state *reusing* its arena allocation — the per-batch path of
// src/sim/engine allocates nothing — and re-images only the writable-
// memory rows written since the last reset, so its cost follows the rows
// a batch touched, not the size of the memories.
//
// Semantics are pinned by the sim/eval.h contract; the interpreter stays
// the A/B oracle (see compare_compiled_vs_interpreter and
// tests/test_sim_compiled.cpp). Evaluation of one context is
// single-threaded and deterministic: identical results at any
// FPGASIM_THREADS width.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "util/aligned.h"

namespace fpgasim {

/// Immutable compiled execution plan: levelized schedule, slot layout,
/// port tables, shared ROM images and the initial state image. Thread-safe
/// to share (const after construction); one plan serves any number of
/// concurrent SimContexts.
class SimPlan {
 public:
  /// Number of independent test vectors evaluated per pass.
  static constexpr std::size_t kLanes = 64;

  /// Compiles the netlist. Throws std::runtime_error on combinational
  /// loops (same contract as the interpreter).
  explicit SimPlan(const Netlist& netlist);

  /// Convenience: compile into the shared-ownership form every multi-
  /// context consumer wants.
  static std::shared_ptr<const SimPlan> compile(const Netlist& netlist) {
    return std::make_shared<const SimPlan>(netlist);
  }

  /// Process-wide count of plan compilations — the reuse oracle: benches
  /// and tests assert a measurement loop compiled exactly one plan.
  static std::uint64_t plans_compiled();

  const std::string& name() const { return name_; }

  // -- port resolution (do once, drive by index) ----------------------------
  /// Index for set_inputs(); throws when `name` is not an input port.
  int input_index(const std::string& name) const;
  /// Index for get_outputs(); throws when `name` is not an output port.
  int output_index(const std::string& name) const;
  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }
  const std::string& input_name(std::size_t i) const { return inputs_[i].name; }
  const std::string& output_name(std::size_t i) const { return outputs_[i].name; }

  // -- compiled-plan statistics ----------------------------------------------
  std::size_t comb_ops() const { return ops_.size(); }
  std::size_t seq_ops() const { return seq_.size(); }
  /// Number of levels in the levelized schedule (independent cells share
  /// a level; the schedule runs levels in order).
  std::size_t levels() const { return level_begin_.empty() ? 0 : level_begin_.size() - 1; }
  /// Bytes per lane element: 4 when the whole design fits 32-bit lanes.
  std::size_t lane_bytes() const { return narrow_ ? 4 : 8; }
  /// Elements held once in the plan and shared by all contexts (ROMs).
  std::size_t shared_words() const { return rom32_.size() + rom64_.size(); }
  /// Arena elements each context reserves privately (nets + pipes +
  /// writable memories + scratch). Reserved, not resident: writable-memory
  /// rows only become resident once written (or preloaded non-zero).
  std::size_t context_words() const { return layout_.total; }
  /// Nets in the compiled design (slot = net * kLanes + lane).
  std::size_t net_count() const { return net_count_; }

 private:
  friend class SimContext;

  // Compiled combinational opcode: CellType x LutOp flattened, constants
  // folded out.
  enum class Op : std::uint8_t {
    kAnd, kOr, kXor, kNot, kMux2, kEq, kLtU, kPass, kTruth6,
    kAdd, kSub, kMax, kRelu, kDsp,
  };

  struct CombOp {
    Op op = Op::kPass;
    std::uint16_t width = 1;
    std::uint32_t a = 0, b = 0, c = 0;  // input slot bases (kZeroSlot when absent)
    std::uint32_t out = 0;              // output slot base
    std::uint64_t mask = ~0ULL;         // precomputed mask_width(., width)
    std::uint64_t init = 0;             // truth table / DSP shift
    std::uint32_t fan_begin = 0, fan_count = 0;  // extra output slot bases
    std::uint32_t in_begin = 0, in_count = 0;    // kTruth6 input slot bases
  };

  // Sequential plan entry. Every kind owns a pipe of `depth` 64-wide
  // groups in the context's pipe section, addressed as a ring: logical
  // slot s (0 = newest, depth-1 = the visible tail) lives at physical slot
  // (seq_head_[i] + s) % depth, so an all-lanes-enabled commit is O(1)
  // like the interpreter's deque rotate instead of an O(depth) shift.
  // kBram additionally owns a memory region: lane-shared ROMs live in the
  // plan (rom32_/rom64_), writable memories in the context arena.
  struct SeqOp {
    CellType type = CellType::kFf;
    bool has_ce = false;
    bool has_we = false;
    bool mem_shared = false;  // ROM without write port: one plan-shared copy
    std::uint16_t width = 1;
    std::uint32_t d = 0;      // capture slot base (FF/SRL d, DSP hidden MAC slot)
    std::uint32_t ce = 0;
    std::uint32_t capture = 0;  // kDsp: index into dsp_capture_
    std::uint32_t waddr = 0, wdata = 0, we = 0, raddr = 0;  // kBram
    std::uint32_t pipe_base = 0, depth = 1;
    std::uint32_t mem_base = 0, mem_depth = 0;  // into rom (shared) or wmem
    std::uint64_t mask = ~0ULL;
    std::uint32_t fan_begin = 0, fan_count = 0;  // ALL connected output slot bases
  };

  struct PortPlan {
    std::string name;
    std::uint32_t slot = 0;  // net slot base
    std::uint16_t width = 1;
  };

  // Per-context arena layout, element offsets (lane words). Every section
  // starts on a cache-line boundary so two contexts — and the hot state /
  // pipe sections within one — never straddle a shared line.
  struct ArenaLayout {
    std::size_t state = 0;  // net values + hidden DSP slots + zero group
    std::size_t pipe = 0;   // ring-buffer pipes
    std::size_t next = 0;   // phase-1 capture scratch
    std::size_t ring = 0;   // CE-divergence normalize scratch
    std::size_t wmem = 0;   // writable BRAM contents
    std::size_t total = 0;
    std::size_t state_elems = 0, pipe_elems = 0, next_elems = 0, ring_elems = 0,
                wmem_elems = 0;
  };

  template <typename W> void build_init_images(const Netlist& netlist);
  template <typename W> const std::vector<W>& rom_vec() const {
    if constexpr (sizeof(W) == 4) return rom32_; else return rom64_;
  }
  template <typename W> const std::vector<W>& init_state_vec() const {
    if constexpr (sizeof(W) == 4) return init_state32_; else return init_state64_;
  }
  template <typename W> const std::vector<W>& init_wmem_vec() const {
    if constexpr (sizeof(W) == 4) return init_wmem32_; else return init_wmem64_;
  }

  std::vector<CombOp> ops_;            // levelized order
  std::vector<std::size_t> level_begin_;  // ops_ index of each level + end sentinel
  std::vector<CombOp> cone_ops_;       // ops downstream of input ports, in ops_ order
  std::vector<CombOp> dsp_capture_;    // per-edge MAC captures (not in settle)
  std::vector<SeqOp> seq_;
  std::vector<std::uint32_t> fanout_;  // extra/all output slot bases
  std::vector<std::uint32_t> truth_inputs_;

  // Initial state image: zeros with constants folded in. Contexts copy it
  // on construction and on reset().
  std::vector<std::uint32_t> init_state32_;
  std::vector<std::uint64_t> init_state64_;
  // Shared read-only memories (ROMs), one copy for every context.
  std::vector<std::uint32_t> rom32_;
  std::vector<std::uint64_t> rom64_;
  // Initial contents of writable memories (ROM-preloaded, else zero), one
  // word per row: row mem_base / kLanes + addr holds every lane's initial
  // value at that address, since a ROM preload is the same in all lanes.
  std::vector<std::uint32_t> init_wmem32_;
  std::vector<std::uint64_t> init_wmem64_;

  std::vector<PortPlan> inputs_;
  std::vector<PortPlan> outputs_;

  ArenaLayout layout_;
  std::size_t net_count_ = 0;
  bool narrow_ = false;
  std::string name_;
};

/// One evaluation context over a shared plan: the mutable lane state. The
/// construction cost is state-only (one lazily zeroed, cache-aligned arena
/// allocation + the non-zero words of the plan's initial image); reset()
/// reuses the allocation. Not thread-safe per instance — use one context
/// per worker.
class SimContext {
 public:
  static constexpr std::size_t kLanes = SimPlan::kLanes;

  explicit SimContext(std::shared_ptr<const SimPlan> plan);

  const SimPlan& plan() const { return *plan_; }

  /// Returns to the plan's initial state (cycle 0, pipes flushed, written
  /// writable-memory rows re-imaged) without reallocating the arena.
  void reset();
  /// Number of reset() calls since construction (engine telemetry).
  std::size_t resets() const { return resets_; }

  // -- batch driver API -----------------------------------------------------
  /// Drives an input port: lanes[l] becomes the port value of test vector
  /// l (masked to the port width). Fewer than kLanes entries leave the
  /// remaining lanes unchanged.
  void set_inputs(int input, std::span<const std::uint64_t> lanes);
  /// Broadcasts one value to every lane of an input port.
  void set_inputs(int input, std::uint64_t value_all_lanes);

  /// Batch-amortized frame path: drives EVERY input port from one
  /// port-major buffer (frame[i * kLanes + l] = port i, lane l) with a
  /// single dirty transition — the serving engine's hot path.
  void set_input_frame(std::span<const std::uint64_t> frame);
  /// Reads every output port into one port-major buffer.
  void get_output_frame(std::span<std::uint64_t> frame) const;

  /// Advances one clock cycle for all lanes: settle -> capture -> commit
  /// -> settle, the same two-phase edge as Simulator::step().
  void step();
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }

  /// Reads an output port into lanes[0..min(size, kLanes)).
  void get_outputs(int output, std::span<std::uint64_t> lanes) const;
  std::uint64_t get_output(int output, std::size_t lane) const;

  /// Raw net value of one lane (debug / white-box tests).
  std::uint64_t peek_net(NetId net, std::size_t lane) const;

  /// FNV-style fold over every net's value in every lane (settles pending
  /// inputs first). A long-latency accelerator may not raise an output
  /// port for thousands of cycles, so serving checksums fold this full
  /// datapath digest at batch end — any diverging net anywhere in the
  /// fabric changes it.
  std::uint64_t state_digest() const;

  std::uint64_t cycle() const { return cycle_; }

 private:
  void settle() const;  // one levelized sweep over all 64 lanes
  // Outside of step(), state only goes stale through set_inputs(), and the
  // post-edge settle keeps everything else current — so the lazy re-settle
  // only has to run the ops downstream of input ports (cone_ops_), not the
  // whole fabric.
  void settle_if_dirty() const;
  template <typename W> void reset_impl();
  template <typename W> void settle_impl(const std::vector<SimPlan::CombOp>& ops) const;
  template <typename W> void step_impl();
  template <typename W> void eval_op(const SimPlan::CombOp& op) const;
  // Arena section bases. The evaluation core is templated on the lane
  // word: when every cell and port fits 32 bits (the CNN accelerators do —
  // Q8.8 datapaths with 24-bit accumulators), lanes are stored as
  // uint32_t, halving the memory traffic of the lane-major arrays and
  // doubling the lanes per vector register. Wide or unknown designs use
  // the general uint64_t engine. The choice was made at plan compile time;
  // the public API always speaks uint64_t and converts at the port
  // boundary. DSP MACs always use 64-bit intermediates.
  template <typename W> W* arena() const {
    if constexpr (sizeof(W) == 4) return arena32_.data();
    else return arena64_.data();
  }
  template <typename W> W* state_base() const { return arena<W>() + plan_->layout_.state; }
  template <typename W> W* pipe_base() const { return arena<W>() + plan_->layout_.pipe; }
  template <typename W> W* next_base() const { return arena<W>() + plan_->layout_.next; }
  template <typename W> W* ring_base() const { return arena<W>() + plan_->layout_.ring; }
  template <typename W> W* wmem_base() const { return arena<W>() + plan_->layout_.wmem; }

  std::shared_ptr<const SimPlan> plan_;
  // One cache-aligned, lazily zeroed allocation per context: net state,
  // pipes, capture scratch, ring scratch and writable memories, each
  // section itself cache-line aligned (exactly one of the two is
  // allocated, by lane width). Writable-memory rows nobody writes stay
  // untouched zero pages, so resident bytes follow the rows written, not
  // context_words(). Logically const-observable: reads settle pending
  // inputs first.
  ZeroedBuffer<std::uint32_t> arena32_;
  ZeroedBuffer<std::uint64_t> arena64_;
  // One bit per writable-memory row (all kLanes words of one address),
  // set by the BRAM write commit; reset() re-images only these rows.
  std::vector<std::uint64_t> wmem_dirty_;
  std::vector<std::uint32_t> seq_head_;  // ring head (physical slot of logical 0)
  std::vector<std::uint64_t> seq_en_;    // phase-1 enable bitmasks (bit = lane)
  mutable bool dirty_ = false;
  std::uint64_t cycle_ = 0;
  std::size_t resets_ = 0;
};

/// One lane's recorded compiled trajectory. pre_edge (outputs once the
/// inputs settle) and nets (every net after the last cycle) are optional:
/// left empty, they are not compared.
struct LaneTrace {
  int cycles = 0;
  std::vector<std::uint64_t> inputs;    // [cycle * input_count + i], plan order
  std::vector<std::uint64_t> outputs;   // [cycle * output_count + o], post-edge
  std::vector<std::uint64_t> pre_edge;  // empty, or shaped like outputs
  std::vector<std::uint64_t> nets;      // empty, or [net]
};

/// The interpreter oracle: replays `trace` through a fresh Simulator of
/// `netlist` (the design `plan` was compiled from). Returns "" when every
/// recorded value matches, else the first divergence ("cycle C post-edge
/// port 'P': ..." or "net N (end of run): ..."). Throws
/// std::invalid_argument when trace.cycles < 1.
std::string replay_lane(const Netlist& netlist, const SimPlan& plan, const LaneTrace& trace);

/// A/B oracle check. Drives `netlist` through the compiled simulator with
/// `cycles` cycles of seeded random stimulus (kLanes independent vectors,
/// every input port re-randomized each cycle), then replay_lane()s a
/// trace with pre-edge outputs of each lane in `lanes_to_check` (empty =
/// all lanes). Returns the empty string when bit-identical, else a
/// description of the first divergence. When `plan` is given it is reused
/// (no recompilation); it must have been compiled from `netlist`.
std::string compare_compiled_vs_interpreter(const Netlist& netlist, int cycles,
                                            std::uint64_t seed,
                                            std::span<const int> lanes_to_check = {},
                                            std::shared_ptr<const SimPlan> plan = nullptr);

}  // namespace fpgasim
