// Structural properties of a netlist, each checked by exactly one
// function: drivers, sink hookup and required pins, widths, orphan nets
// and combinational loops, plus output-port liveness. DRC's structural
// rules run them whole, lint's connectivity and loop rules pick the
// faults they own, and Netlist::validate() keeps the faults that make
// a loaded checkpoint unsafe to index. Every check tolerates out-of-range
// ids (lint runs over fuzzed checkpoints) and reports in ascending id
// order, so reports are deterministic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace fpgasim {

enum class StructuralFault : std::uint8_t {
  // check_drivers
  kMultiDriver,        // more than one cell output pin claims the net
  kUnrecordedDriver,   // one cell output pin claims the net, the net records no driver
  kDriverRange,        // the recorded driver cell is out of range
  kDriverPin,          // the recorded driver pin does not drive the net
  kInputPortDriven,    // an input-port net is also driven by a cell
  // check_sinks
  kUndrivenSinks,      // sinks but no driver, and not an input port
  kSinkRange,          // a sink cell is out of range
  kSinkPin,            // a listed sink pin is not connected to the net
  kInputRange,         // a cell input references an out-of-range net
  kRequiredPin,        // a required input pin is unconnected
  // check_widths
  kPortNet,            // a port is bound to an out-of-range net
  kPortWidth,          // a port and its net disagree on width
  kDriverWidth,        // a net and its driver's output disagree on width
  kDataPinWidth,       // a data pin reads a wider net (truncation)
  // check_orphans
  kOrphanNet,          // no driver, sinks or port binding
  // check_comb_loops
  kCombLoop,           // a combinational cycle, as a cell path
};

struct StructuralIssue {
  StructuralFault fault;
  std::string message;
  CellId cell = kInvalidCell;  // offending cell when applicable
  NetId net = kInvalidNet;     // offending net when applicable
};

using StructuralCheck = std::vector<StructuralIssue> (*)(const Netlist&);

/// The issues whose fault is one of `faults`, in their original order.
std::vector<StructuralIssue> select_faults(std::vector<StructuralIssue> issues,
                                           std::initializer_list<StructuralFault> faults);

std::vector<StructuralIssue> check_drivers(const Netlist& nl);
std::vector<StructuralIssue> check_sinks(const Netlist& nl);
std::vector<StructuralIssue> check_widths(const Netlist& nl);
std::vector<StructuralIssue> check_orphans(const Netlist& nl);
/// One issue per cycle of the netlist's CombGraph, anchored on its first
/// cell: "combinational loop of 2 cells: A -> B -> A".
std::vector<StructuralIssue> check_comb_loops(const Netlist& nl);

/// Flags the nets bound to ports of direction `dir`, or to any port when
/// `dir` is empty. Input-port nets may legally be driverless; any port
/// binding counts as a reader.
std::vector<bool> port_nets(const Netlist& nl, std::optional<PortDir> dir = std::nullopt);

/// Backward reachability from the output ports: a cell is live when it
/// drives a net that an output port exposes or a live cell reads. Clocked
/// cells are traversed like any other, so liveness flows through register
/// state (BRAM write and enable pins included) into the logic that feeds
/// it. A net is live when a port binds it or a live cell reads or drives
/// it: everything else can go without changing observable behaviour.
struct Liveness {
  std::vector<bool> cells;
  std::vector<bool> nets;
};
Liveness output_liveness(const Netlist& nl);

}  // namespace fpgasim
