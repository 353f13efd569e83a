// Structural analyses, each a thin rule over the netlist/structure.h
// property checks the DRC and prune_dead() also run:
//
//   - combinational loops (Tarjan SCC over the shared CombGraph — registers
//     break edges);
//   - dead logic (backward reachability from the primary outputs);
//   - connectivity hygiene: driver/fanout conflicts, floating required
//     inputs and bus-width agreement at cell ports — and, when the caller
//     passes the composed design's instance ranges, width agreement across
//     the stitch boundaries between pre-implemented components (where a
//     silent mismatch would corrupt every network built from the database).
#include <string>
#include <vector>

#include "lint/lint.h"

namespace fpgasim {
namespace lint {
namespace detail {
// -- lint-comb-loop ---------------------------------------------------------
//
// Every non-trivial SCC (size > 1, or a self-loop) is one finding whose
// message spells the cycle as a named cell path. Deterministic: roots are
// visited in ascending cell id, successor order follows net sink order.
void analyze_loops(const Netlist& nl, Emitter& out) {
  begin_rule(out, "lint-comb-loop");
  out.emit(check_comb_loops(nl));
}

// -- lint-dead-cell / lint-unread-net ---------------------------------------
//
// Anything output_liveness() leaves unmarked is a dead cone the composed
// design can never observe.
void analyze_dead_logic(const Netlist& nl, Emitter& out) {
  const Liveness live = output_liveness(nl);

  begin_rule(out, "lint-dead-cell");
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!live.cells[c]) {
      out.emit(cell_ref(nl, c) + " is unreachable backward from every primary output",
               c, kInvalidNet);
    }
  }

  // Input-port nets with no live reader are reported as unread, not dead.
  const std::vector<bool> port_bound = port_nets(nl);
  begin_rule(out, "lint-unread-net");
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    // A driven net nobody reads: no sinks and no output port exposing it.
    // (Nets with sinks that are merely dead are covered by lint-dead-cell
    // on their cone; driverless orphans are the DRC's net-dead.)
    if (net.driver != kInvalidCell && net.sinks.empty() && !port_bound[n]) {
      out.emit(net_ref(nl, n) + " is driven but read by no sink or port",
               net.driver < nl.cell_count() ? net.driver : kInvalidCell, n);
    }
  }
}

// -- lint-multi-driver / lint-floating-input / lint-width-mismatch ---------
void analyze_connectivity(const Netlist& nl, const std::vector<InstanceRange>& instances,
                          Emitter& out) {
  using enum StructuralFault;
  begin_rule(out, "lint-multi-driver");
  out.emit(select_faults(check_drivers(nl), {kMultiDriver, kInputPortDriven}));
  begin_rule(out, "lint-floating-input");
  out.emit(select_faults(check_sinks(nl), {kUndrivenSinks, kInputRange, kRequiredPin}));
  begin_rule(out, "lint-width-mismatch");
  out.emit(check_widths(nl));
  // At a stitch boundary between two composed components even a
  // legal-inside-a-component narrower operand is reported: the stream
  // buses of matched components must agree exactly.
  if (instances.empty()) return;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    for (const std::uint16_t pin : data_pins(cell)) {
      if (pin >= cell.inputs.size() || cell.inputs[pin] >= nl.net_count()) continue;
      const NetId in = cell.inputs[pin];
      const Net& net = nl.net(in);
      if (net.width >= cell.width || net.driver >= nl.cell_count()) continue;
      const int from = instance_of_cell(instances, net.driver);
      const int to = instance_of_cell(instances, c);
      if (from >= 0 && to >= 0 && from != to) {
        out.emit("stitch boundary '" + instances[static_cast<std::size_t>(from)].name +
                     "' -> '" + instances[static_cast<std::size_t>(to)].name + "': " +
                     net_ref(nl, in) + " is " + std::to_string(net.width) + " bits but " +
                     cell_ref(nl, c) + " data pin " + std::to_string(pin) + " expects " +
                     std::to_string(cell.width),
                 c, in);
      }
    }
  }
}

}  // namespace detail
}  // namespace lint
}  // namespace fpgasim
