// Architecture optimization (paper Sec. IV-B): the fully automated stage
// that turns a DAG of pre-implemented checkpoints into a working
// accelerator — component extraction/matching against the checkpoint store,
// black-box stitching, relocation placement (Alg. 1) and inter-component
// routing. Stage wall times feed Fig. 6 (and the 5%/9% stitching share).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "fabric/device.h"
#include "flow/compose.h"
#include "lint/lint.h"
#include "place/macro_placer.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

struct PreImplOptions {
  std::uint64_t seed = 1;
  MacroPlaceOptions macro;
  RouteOptions route;
  bool drc = true;         // run the DRC gate after compose/place/route
  DrcOptions drc_options;  // waivers forwarded to every gate
  /// Opt-in fpgalint gate: dataflow static analysis (comb loops, dead
  /// logic, const/X propagation, stitch-boundary widths) over the final
  /// composed netlist. Throws on error findings.
  bool lint = false;
  lint::LintOptions lint_options;  // waivers; instances filled by the flow
  /// Opt-in compiled-verify gate: A/B the final composed netlist through
  /// the compiled bit-parallel simulator against the interpreter oracle
  /// (sampled lanes of a 64-wide batch, seeded random stimulus). Throws
  /// on any bit divergence.
  bool compiled_verify = false;
  int compiled_verify_cycles = 24;
};

struct PreImplReport {
  // Architecture-optimization stage times (online).
  double stitch_seconds = 0.0;  // extraction + matching + composition
  double place_seconds = 0.0;   // component relocation placement
  double route_seconds = 0.0;   // inter-component routing
  double sta_seconds = 0.0;
  double total_seconds = 0.0;      // wall time of the online stage
  double total_cpu_seconds = 0.0;  // process CPU time over the same span
  // Offline function-optimization time recorded in the checkpoints used
  // (performed exactly once per unique component; reported separately).
  double function_opt_seconds = 0.0;

  NetlistStats stats;
  TimingResult timing;
  RouteResult route;
  MacroPlaceResult macro;

  // DRC gate results (all empty when PreImplOptions::drc is false).
  double drc_seconds = 0.0;
  DrcReport drc_compose;  // structural subset, after stitching
  DrcReport drc_place;    // + placement legality, after relocation
  DrcReport drc;          // full check, after inter-component routing

  // fpgalint gate result over the final composed netlist (empty when
  // PreImplOptions::lint is false); lint_seconds also counts inside
  // total_seconds like the DRC gate.
  double lint_seconds = 0.0;
  lint::LintReport lint;

  // Compiled-verify gate (false/0 when PreImplOptions::compiled_verify is
  // off; the gate throws on divergence, so a finished flow implies ok).
  double compiled_verify_seconds = 0.0;
  bool compiled_verify_ok = false;

  double slowest_component_mhz = 0.0;
  std::string slowest_component;

  /// The paper's observation: stitching is a small share of the flow.
  double stitch_fraction() const {
    return total_seconds > 0.0 ? stitch_seconds / total_seconds : 0.0;
  }
};

/// A component DAG of pre-implemented checkpoints, ready to stitch:
/// node i is instantiated as `names[i]` (falls back to "inst<i>" when the
/// name list is short), `edges` are the stream edges, `input_node` /
/// `output_node` expose the design boundary (`output_node == -1` means the
/// last node). Checkpoints must stay alive through the flow.
struct ComponentGraph {
  std::vector<const Checkpoint*> nodes;
  std::vector<std::string> names;
  std::vector<StreamEdge> edges;
  int input_node = 0;
  int output_node = -1;
};

/// Runs the pre-implemented flow over a component DAG: black-box stitching
/// along the stream edges, relocation placement over the real DFG
/// macro-nets, inter-component routing, STA — each stage DRC-gated. The
/// composed design is returned through `out` for further use (simulation,
/// inspection).
PreImplReport run_preimpl_flow(const Device& device, const ComponentGraph& graph,
                               ComposedDesign& out, const PreImplOptions& opt = {});

/// Component source for run_preimpl_cnn: resolves a store key
/// (group_signature / fork_signature) to a pre-implemented checkpoint, or
/// nullptr when no match exists. Returned pointers must stay alive through
/// the flow (CompileService pins the store's shared_ptrs for the session).
using ComponentLookup = std::function<const Checkpoint*(const std::string& key)>;

/// CNN front end: matches each group (and the stream forks of branching
/// models) against `lookup` (component matching, BFS over the DFG) and runs
/// the flow over the resulting component graph. CompileService::compile
/// resolves the components into the store and calls this.
PreImplReport run_preimpl_cnn(const Device& device, const CnnModel& model,
                              const ModelImpl& impl,
                              const std::vector<std::vector<int>>& groups,
                              const ComponentLookup& lookup, ComposedDesign& out,
                              const PreImplOptions& opt = {},
                              std::uint64_t seed_base = 1000);

}  // namespace fpgasim
