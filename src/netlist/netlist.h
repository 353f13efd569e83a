// Bus-level technology-mapped netlist.
//
// Cells are primitive macro-cells (w-bit LUT logic, registers, SRL shift
// registers, carry-chain adders/comparators, DSP48 multiply-accumulate,
// BRAM) with calibrated fabric footprints (see DESIGN.md #6). Nets are
// multi-bit buses with one driver and many sinks. This is the layer that
// plays the role of a post-synthesis Vivado netlist: placement locks,
// routing locks and checkpoint serialization all operate on it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "fabric/resources.h"

namespace fpgasim {

using CellId = std::uint32_t;
using NetId = std::uint32_t;
inline constexpr CellId kInvalidCell = std::numeric_limits<CellId>::max();
inline constexpr NetId kInvalidNet = std::numeric_limits<NetId>::max();

/// Primitive macro-cell kinds. Each maps onto fabric resources via
/// cell_footprint().
enum class CellType : std::uint8_t {
  kConst,   // constant driver, no fabric cost
  kLut,     // w-bit combinational logic (op from LutOp)
  kFf,      // w-bit register with clock enable
  kSrl,     // w-bit shift register, `depth` stages (LUT-based SRL16)
  kAdd,     // w-bit add/sub on the carry chain
  kMax,     // w-bit signed max (comparator + mux), max-pool primitive
  kRelu,    // w-bit ReLU (sign-select mux)
  kDsp,     // DSP48: P = A*B (+ C), `stages` internal pipeline registers
  kBram,    // sync-read memory, `depth` x w bits, optional ROM init
};

const char* to_string(CellType type);

/// Combinational operation of a kLut cell.
enum class LutOp : std::uint8_t {
  kAnd,
  kOr,
  kXor,
  kNot,
  kMux2,     // inputs: a, b, sel(1 bit) -> sel ? b : a
  kEq,       // 1-bit output: a == b
  kLtU,      // 1-bit output: a < b (unsigned)
  kPass,     // buffer
  kTruth6,   // <=6 single-bit inputs, 64-bit truth table in `init`
};

const char* to_string(LutOp op);

struct Cell {
  CellType type = CellType::kLut;
  LutOp op = LutOp::kPass;
  std::uint16_t width = 1;     // bus width of the primary output
  std::uint16_t depth = 0;     // kSrl: stages; kBram: log not needed, raw depth
  std::uint8_t stages = 0;     // kDsp: internal pipeline registers (0..3)
  bool placement_locked = false;
  std::uint32_t bram_depth = 0;  // kBram only (depth may exceed 16 bits)
  std::uint64_t init = 0;        // kConst value / kTruth6 table
  std::int32_t rom_id = -1;      // kBram: index into Netlist::rom_contents
  std::vector<NetId> inputs;     // semantics depend on type (see generators)
  std::vector<NetId> outputs;    // almost always exactly one
  std::string name;
};

struct Net {
  CellId driver = kInvalidCell;        // kInvalidCell: driven by a module input port
  std::uint16_t driver_pin = 0;        // output index on the driver
  std::uint16_t width = 1;
  bool routing_locked = false;         // pre-implemented (locked) route
  std::vector<std::pair<CellId, std::uint16_t>> sinks;  // (cell, input pin)
  std::string name;
};

enum class PortDir : std::uint8_t { kInput, kOutput };

/// Module boundary connection; OOC components expose stream-style
/// source/sink interfaces through these.
struct Port {
  std::string name;
  PortDir dir = PortDir::kInput;
  std::uint16_t width = 1;
  NetId net = kInvalidNet;
};

/// Expected width of `cell`'s output pin (kEq/kLtU LUTs are 1-bit flags,
/// everything else drives a cell.width-wide bus).
std::uint16_t expected_output_width(const Cell& cell);

/// True when the cell computes combinationally from its inputs (its output
/// can participate in a combinational loop).
bool is_combinational(const Cell& cell);

/// True when the cell holds clocked state (updates on the clock edge, not
/// during settle): FF, SRL, BRAM, and DSPs with internal pipeline
/// registers. kConst is neither combinational nor sequential.
bool is_sequential(const Cell& cell);

/// Input pins that must be connected for the cell to be well-formed.
std::span<const std::uint16_t> required_input_pins(const Cell& cell);

/// Data operand pins that must not be driven by a *wider* net (silent
/// truncation): registers, shift registers, adders, max and ReLU cells.
/// Narrower nets are fine: the fabric zero-extends implicitly, which the
/// synthesized address arithmetic relies on.
std::span<const std::uint16_t> data_pins(const Cell& cell);

/// Aggregate statistics used by the resource-utilization experiments.
struct NetlistStats {
  std::size_t cells = 0;
  std::size_t nets = 0;
  std::size_t ports = 0;
  ResourceVec resources;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction ---------------------------------------------------------
  NetId add_net(std::uint16_t width, std::string name = {});
  CellId add_cell(Cell cell);
  std::size_t add_port(Port port);
  /// Registers BRAM ROM contents; returns rom_id for Cell::rom_id.
  std::int32_t add_rom(std::vector<std::uint64_t> words);

  /// Connects `net` as input pin `pin` of `cell` (appends sink).
  void connect_input(CellId cell, std::uint16_t pin, NetId net);
  /// Declares `cell`'s output pin `pin` as the driver of `net`.
  void connect_output(CellId cell, std::uint16_t pin, NetId net);

  // -- access ---------------------------------------------------------------
  std::size_t cell_count() const { return cells_.size(); }
  std::size_t net_count() const { return nets_.size(); }
  Cell& cell(CellId id) { return cells_[id]; }
  const Cell& cell(CellId id) const { return cells_[id]; }
  Net& net(NetId id) { return nets_[id]; }
  const Net& net(NetId id) const { return nets_[id]; }
  std::vector<Port>& ports() { return ports_; }
  const std::vector<Port>& ports() const { return ports_; }
  const Port* find_port(const std::string& name) const;
  const std::vector<std::uint64_t>& rom(std::int32_t rom_id) const {
    return roms_[static_cast<std::size_t>(rom_id)];
  }
  std::size_t rom_count() const { return roms_.size(); }

  /// Fabric footprint of one cell.
  static ResourceVec cell_footprint(const Cell& cell);

  /// Whole-netlist statistics.
  NetlistStats stats() const;

  /// Locks placement of every cell and routing of every net
  /// ("logic locking" in the paper's performance-exploration step).
  void lock_all();

  /// Structural validation: every net has a driver or is a module input,
  /// pin indices are consistent, port nets exist, widths at ports agree.
  /// Returns a list of human-readable problems (empty == valid). The
  /// checkpoint loader's gate on outside input; a subset of the
  /// properties in netlist/structure.h.
  std::vector<std::string> validate() const;

  /// Removes every cell that is unreachable backward from an output port
  /// and every net left with neither reader nor port binding, compacting
  /// ids in stable (ascending) order. Behaviour-preserving: only logic
  /// with no observable effect is dropped. Returns the number of cells
  /// removed. Must run before placement/routing state exists — PhysState
  /// vectors indexed by the old ids are not remapped.
  std::size_t prune_dead();

  /// Appends a deep copy of `other` into this netlist.
  /// Returns the (cell, net) index offsets assigned to the copied design.
  /// Ports of `other` are NOT copied; the caller binds them explicitly
  /// (this is the checkpoint "black-box fill" primitive).
  std::pair<CellId, NetId> merge(const Netlist& other);

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<Port> ports_;
  std::vector<std::vector<std::uint64_t>> roms_;
};

/// "net #3 ('name')": how every report names a net.
std::string net_ref(const Netlist& nl, NetId n);
/// "LUT cell #7 ('name')": how every report names a cell.
std::string cell_ref(const Netlist& nl, CellId c);

}  // namespace fpgasim
