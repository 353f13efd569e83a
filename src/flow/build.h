// Bridges CNN models to the synthesis generators: builds per-group
// component netlists (granularity exploration output) and computes the
// component signatures the checkpoint store is keyed by. The offline
// function-optimization stage that fills the store is CompileService
// (flow/service.h).
#pragma once

#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "flow/compose.h"
#include "netlist/netlist.h"

namespace fpgasim {

/// The component DAG the flows instantiate: group nodes plus stream-fork
/// nodes inserted wherever a group output fans out (each output stream
/// drives exactly one consumer after expansion). Node indices below the
/// group count are groups, appended nodes are forks.
struct ComponentDfg {
  struct Node {
    int group_index = -1;  // index into the grouping, or -1 for a fork
    int branches = 0;      // fork nodes: number of output streams
  };
  std::vector<Node> nodes;
  std::vector<StreamEdge> edges;
  int input_node = 0;
  int output_node = 0;
};

/// Expands a validated GroupGraph into the instantiable DFG by inserting
/// 1-to-N stream forks on every multi-consumer group output. Deterministic:
/// fork nodes are appended in ascending source-group order.
ComponentDfg expand_group_graph(const GroupGraph& graph);

/// Store key of a 1-to-N stream fork (forks are model- and
/// weight-independent, so all designs share them).
std::string fork_signature(int branches);

/// Name of a component group: its layer names joined by "+", each with
/// "_relu" when a ReLU is fused into it. Layer names are unique within a
/// model, so this also names the group's instance in a composed design.
std::string group_name(const CnnModel& model, const std::vector<int>& group);

/// Synthesizes the netlist of one component group (conv/pool/fc layers,
/// relus fused). Weights come from layer_params, as in reference_inference,
/// so functional simulation of the composed accelerator matches the golden
/// model.
Netlist build_group_netlist(const CnnModel& model, const ModelImpl& impl,
                            const std::vector<int>& group);

/// Signature used as the checkpoint-store key. Identical layer
/// configurations (e.g. VGG's replicated 3x3 convolutions) share one
/// signature and therefore one pre-implemented checkpoint.
std::string group_signature(const CnnModel& model, const ModelImpl& impl,
                            const std::vector<int>& group);

/// One component a grouping needs from the checkpoint store: either a layer
/// group (`group` non-null, pointing into the caller's grouping — which
/// must outlive the request) or a model-independent 1-to-N stream fork.
/// `key` is the store signature (group_signature/fork_signature).
struct ComponentRequest {
  std::string key;
  const std::vector<int>* group = nullptr;
  int fork_branches = 0;  // > 0 for stream forks
};

/// Enumerates the unique components `groups` needs, in deterministic
/// order: group components in grouping order (first occurrence of a
/// signature wins; replicated layers collapse to one request), then — for
/// branching models — the stream forks of the group DAG in ascending
/// source-group order. This is the single source of truth for "what must
/// exist before the pre-implemented flow can stitch": the CompileService
/// plans from it.
std::vector<ComponentRequest> component_requests(const CnnModel& model, const ModelImpl& impl,
                                                 const std::vector<std::vector<int>>& groups);

/// Synthesizes the netlist of one request (group or stream fork).
Netlist build_component_netlist(const CnnModel& model, const ModelImpl& impl,
                                const ComponentRequest& request);

/// Synthesizes the whole model as one flat netlist (the baseline flow's
/// input): all group netlists (plus stream forks for branching models)
/// stitched along the component DAG.
Netlist build_flat_netlist(const CnnModel& model, const ModelImpl& impl,
                           const std::vector<std::vector<int>>& groups);

}  // namespace fpgasim
