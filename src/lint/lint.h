// fpgalint: whole-netlist static analyzer. Goes beyond the DRC's
// well-formedness rules with real dataflow reasoning over fpgasim::Netlist:
//
//   - combinational-loop detection (Tarjan SCC over the shared CombGraph;
//     registers break edges), each cycle reported as a named cell path;
//   - dead-logic detection (backward reachability from primary outputs),
//     flagging unreachable cells and unread nets;
//   - a forward 3-valued (0/1/X) constant- and X-propagation fixpoint that
//     finds stuck-at nets, LUTs foldable to constants, and uninitialized
//     state (X) escaping to primary outputs through registers whose reset
//     value never dominates;
//   - connectivity hygiene: driver/fanout conflicts, floating inputs and
//     bus-width mismatches at cell ports and stitch boundaries.
//
// The loop, liveness and connectivity rules run the netlist/structure.h
// property checks the DRC also runs; only the stitch-boundary width check
// and the value analysis are lint's own. Findings are recorded, waived,
// capped and rendered by the netlist/findings.h report the DRC shares.
//
// All analyses are deterministic: single-threaded, iteration in index
// order, findings emitted in (rule registration, cell/net id) order — the
// report (and its JSON rendering) is byte-identical for any FPGASIM_THREADS
// width. Callers run it directly (lint::run) on the netlists they want
// checked: tools/fpgalint, fpgadb verify and the zoo_accelerator example;
// neither flow nor the checkpoint store lints on its own.
#pragma once

#include <string>
#include <vector>

#include "netlist/findings.h"
#include "netlist/netlist.h"

namespace fpgasim {
namespace lint {

/// Static description of one lint rule (for --rules, docs and tests).
struct RuleInfo {
  const char* id;
  const char* what;
  Severity severity;
};

/// The rule table, in the order findings are emitted.
const std::vector<RuleInfo>& rules();

/// Runs every analysis over `netlist` and returns the "lint" findings.
/// `instances` are the component ranges of a composed design; they let the
/// connectivity analysis attribute findings to the stitch boundaries
/// between components. Optional — lint runs fine without.
FindingsReport run(const Netlist& netlist, const CheckOptions& opt = {},
                   const std::vector<InstanceRange>& instances = {});

// -- analysis passes (each appends findings for its rules) ------------------
namespace detail {

/// Enters the scope of lint rule `id` with its severity from rules().
void begin_rule(Emitter& out, const char* id);

void analyze_loops(const Netlist& nl, Emitter& out);
void analyze_dead_logic(const Netlist& nl, Emitter& out);
void analyze_values(const Netlist& nl, Emitter& out);
void analyze_connectivity(const Netlist& nl, const std::vector<InstanceRange>& instances,
                          Emitter& out);

}  // namespace detail

}  // namespace lint
}  // namespace fpgasim
