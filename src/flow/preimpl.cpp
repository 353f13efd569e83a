#include "flow/preimpl.h"

#include <iterator>
#include <stdexcept>

#include "drc/drc.h"
#include "flow/build.h"
#include "flow/gate.h"
#include "util/timer.h"

namespace fpgasim {

const InstanceRow* PreImplReport::slowest() const {
  const InstanceRow* slowest = nullptr;
  for (const InstanceRow& row : instances) {
    if (row.fmax_mhz > 0.0 && (slowest == nullptr || row.fmax_mhz < slowest->fmax_mhz)) {
      slowest = &row;
    }
  }
  return slowest;
}

PreImplReport run_preimpl_flow(const Device& device, const ComponentGraph& graph,
                               ComposedDesign& out) {
  if (graph.nodes.empty()) throw std::invalid_argument("run_preimpl_flow: empty graph");
  if (graph.names.size() != graph.nodes.size()) {
    throw std::invalid_argument("run_preimpl_flow: one instance name per node required");
  }
  const int output_node =
      graph.output_node >= 0 ? graph.output_node : static_cast<int>(graph.nodes.size()) - 1;
  PreImplReport report;
  Stopwatch total;

  const GateSubject gate{"preimpl", device, out.netlist, out.phys, out.instances};

  // Architecture composition: fill black boxes, insert the stream nets.
  Stopwatch stage;
  Composer composer("preimpl_top");
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const Checkpoint& node = *graph.nodes[i];
    composer.add_instance(node, graph.names[i]);
    report.instances.push_back({graph.names[i], node.netlist.name(), node.meta.fmax_mhz,
                                node.netlist.stats().resources, {}});
  }
  composer.stitch(graph.edges, graph.input_node, output_node);
  out = std::move(composer).finish();
  report.stitch_seconds = stage.seconds();
  run_gate(gate, kDrcStructural, "compose", report.drc_compose, report.drc_seconds);

  // Component placement: relocation of locked pblocks (Algorithm 1).
  stage.restart();
  report.macro = place_macros(device, out.macro_items(), out.macro_nets, MacroPlaceOptions{});
  if (!report.macro.success) {
    throw std::runtime_error("pre-implemented flow: " + report.macro.error);
  }
  for (std::size_t i = 0; i < out.instances.size(); ++i) {
    out.translate_instance(i, report.macro.offsets[i].first,
                           report.macro.offsets[i].second);
    report.instances[i].pblock = out.instances[i].footprint;
  }
  report.place_seconds = stage.seconds();
  run_gate(gate, kDrcStructural | kDrcPlacement, "placement", report.drc_place,
           report.drc_seconds);

  // Inter-component routing: only the stitched nets are open; everything
  // inside the components is locked and merely charges wire usage.
  stage.restart();
  report.route = route_design(device, out.netlist, out.phys, RouteOptions{});
  if (!report.route.success) {
    throw std::runtime_error("pre-implemented flow: routing failed: " + report.route.error);
  }
  report.route_seconds = stage.seconds();
  run_gate(gate, kDrcStructural | kDrcPlacement | kDrcRouting, "routing", report.drc,
           report.drc_seconds);

  stage.restart();
  report.timing = run_sta(out.netlist, out.phys, device);
  report.sta_seconds = stage.seconds();

  report.stats = out.netlist.stats();
  report.total_seconds = total.seconds();
  return report;
}

PreImplReport run_preimpl_cnn(const Device& device, const CnnModel& model,
                              const ModelImpl& impl,
                              const std::vector<std::vector<int>>& groups,
                              const ComponentLookup& lookup, ComposedDesign& out) {
  // Component extraction + matching (BFS over the DFG): every group and
  // every required stream fork must resolve to a pre-built checkpoint.
  const GroupGraph group_graph = build_group_graph(model, groups);
  const ComponentDfg dfg = expand_group_graph(group_graph);
  ComponentGraph graph;
  for (std::size_t n = 0; n < dfg.nodes.size(); ++n) {
    const ComponentDfg::Node& node = dfg.nodes[n];
    if (node.group_index >= 0) {
      const std::vector<int>& group = groups[static_cast<std::size_t>(node.group_index)];
      const std::string key = group_signature(model, impl, group);
      const Checkpoint* checkpoint = lookup(key);
      if (checkpoint == nullptr) {
        // Spell out which layers the unmatched group contains: the
        // signature alone is too opaque to act on.
        std::string layers;
        for (int idx : group) {
          const Layer& layer = model.layers()[static_cast<std::size_t>(idx)];
          if (!layers.empty()) layers += ", ";
          layers += layer.name;
          layers += " (";
          layers += to_string(layer.kind);
          layers += ")";
        }
        throw std::runtime_error("component matching failed for group [" + layers +
                                 "]: no checkpoint for '" + key +
                                 "' (resolve components with CompileService::compile)");
      }
      graph.nodes.push_back(checkpoint);
      // Deduplicated groups share a checkpoint (and its netlist name), so
      // the instance takes its own group's name.
      graph.names.push_back(group_name(model, group));
    } else {
      const std::string key = fork_signature(node.branches);
      const Checkpoint* checkpoint = lookup(key);
      if (checkpoint == nullptr) {
        throw std::runtime_error("component matching failed: no checkpoint for the " +
                                 std::to_string(node.branches) + "-way stream fork '" +
                                 key + "' (resolve components with CompileService::compile)");
      }
      graph.nodes.push_back(checkpoint);
      // Fork checkpoints are shared across fan-out sites; suffix the node
      // index so instance names stay unique.
      graph.names.push_back(checkpoint->netlist.name() + "_" + std::to_string(n));
    }
  }
  graph.edges = dfg.edges;
  graph.input_node = dfg.input_node;
  graph.output_node = dfg.output_node;
  return run_preimpl_flow(device, graph, out);
}

}  // namespace fpgasim
