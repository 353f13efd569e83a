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
#include "place/macro_placer.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

/// The DRC gates after compose, placement and routing always run.
struct PreImplOptions {
  std::uint64_t seed = 1;
  MacroPlaceOptions macro;
  RouteOptions route;
};

struct PreImplReport {
  // Architecture-optimization stage times (online).
  double stitch_seconds = 0.0;  // extraction + matching + composition
  double place_seconds = 0.0;   // component relocation placement
  double route_seconds = 0.0;   // inter-component routing
  double sta_seconds = 0.0;
  double drc_seconds = 0.0;  // every DRC gate of the flow together
  double total_seconds = 0.0;  // wall time of the online stage

  NetlistStats stats;
  TimingResult timing;
  RouteResult route;
  MacroPlaceResult macro;

  // DRC gate results.
  FindingsReport drc_compose{"DRC"};  // structural subset, after stitching
  FindingsReport drc_place{"DRC"};    // + placement legality, after relocation
  FindingsReport drc{"DRC"};          // full check, after inter-component routing

  double slowest_component_mhz = 0.0;
  std::string slowest_component;  // its instance name

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
