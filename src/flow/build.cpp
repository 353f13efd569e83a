#include "flow/build.h"

#include <sstream>
#include <stdexcept>

#include "cnn/registry.h"
#include "flow/compose.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

/// True if group[pos + 1] is an activation layer to fuse into group[pos].
bool fused_relu_follows(const CnnModel& model, const std::vector<int>& group,
                        std::size_t pos) {
  if (pos + 1 >= group.size()) return false;
  const Layer& next = model.layers()[static_cast<std::size_t>(group[pos + 1])];
  return layer_traits(next.kind).activation;
}

Netlist build_layer(const CnnModel& model, const ModelImpl& impl, int layer_idx, bool fuse_relu) {
  const Layer& layer = model.layers()[static_cast<std::size_t>(layer_idx)];
  const auto synth = layer_traits(layer.kind).synth;
  if (synth == nullptr) {
    throw std::runtime_error("build_layer: layer '" + layer.name + "' is not synthesizable");
  }
  return synth(model, impl, layer_idx, fuse_relu);
}

}  // namespace

ComponentDfg expand_group_graph(const GroupGraph& graph) {
  ComponentDfg dfg;
  const std::size_t group_count = graph.fanout.size();
  dfg.nodes.resize(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    dfg.nodes[g].group_index = static_cast<int>(g);
  }
  for (std::size_t g = 0; g < group_count; ++g) {
    // Outgoing edges of g in stored (to, to_port) order.
    std::vector<GroupEdge> out;
    for (const GroupEdge& e : graph.edges) {
      if (e.from == static_cast<int>(g)) out.push_back(e);
    }
    if (out.size() <= 1) {
      for (const GroupEdge& e : out) {
        dfg.edges.push_back(StreamEdge{e.from, e.to, 0, e.to_port});
      }
      continue;
    }
    const int fork = static_cast<int>(dfg.nodes.size());
    ComponentDfg::Node node;
    node.branches = static_cast<int>(out.size());
    dfg.nodes.push_back(node);
    dfg.edges.push_back(StreamEdge{static_cast<int>(g), fork, 0, 0});
    for (std::size_t b = 0; b < out.size(); ++b) {
      dfg.edges.push_back(
          StreamEdge{fork, out[b].to, static_cast<int>(b), out[b].to_port});
    }
  }
  dfg.input_node = graph.input_group;
  dfg.output_node = graph.output_group;
  return dfg;
}

std::string fork_signature(int branches) {
  return "fork_x" + std::to_string(branches) + "_w" + std::to_string(kDataW);
}

std::string group_name(const CnnModel& model, const std::vector<int>& group) {
  std::string name;
  for (std::size_t pos = 0; pos < group.size(); ++pos) {
    const Layer& layer = model.layers()[static_cast<std::size_t>(group[pos])];
    if (layer_traits(layer.kind).activation && pos > 0) continue;  // fused into predecessor
    if (!name.empty()) name += "+";
    name += layer.name;
    if (fused_relu_follows(model, group, pos)) name += "_relu";
  }
  return name;
}

Netlist build_group_netlist(const CnnModel& model, const ModelImpl& impl,
                            const std::vector<int>& group) {
  std::vector<Netlist> stages;
  for (std::size_t pos = 0; pos < group.size(); ++pos) {
    const Layer& layer = model.layers()[static_cast<std::size_t>(group[pos])];
    if (layer_traits(layer.kind).activation && pos > 0) continue;  // fused into predecessor
    stages.push_back(build_layer(model, impl, group[pos], fused_relu_follows(model, group, pos)));
  }
  const std::string name = group_name(model, group);
  if (stages.size() == 1) {
    stages[0].set_name(name);
    return std::move(stages[0]);
  }
  std::vector<const Netlist*> pointers;
  pointers.reserve(stages.size());
  for (const Netlist& stage : stages) pointers.push_back(&stage);
  return stitch_chain(pointers, name);
}

std::string group_signature(const CnnModel& model, const ModelImpl& impl,
                            const std::vector<int>& group) {
  std::ostringstream os;
  for (std::size_t pos = 0; pos < group.size(); ++pos) {
    const Layer& layer = model.layers()[static_cast<std::size_t>(group[pos])];
    const LayerImpl& li = impl.layers[static_cast<std::size_t>(group[pos])];
    const LayerTraits& traits = layer_traits(layer.kind);
    if (pos > 0) os << "__";
    if (traits.join) {
      // Joins are weight-free; their identity is the kind plus every input
      // shape (port order matters for concat) and the output channels.
      os << to_string(layer.kind);
      for (int in : layer.inputs) {
        const Shape& s = model.layers()[static_cast<std::size_t>(in)].out_shape;
        os << "_i" << s.c << "x" << s.h << "x" << s.w;
      }
      os << "_o" << layer.out_shape.c;
      if (layer.fuse_relu || fused_relu_follows(model, group, pos)) os << "_r";
      continue;
    }
    os << to_string(layer.kind) << "_i" << layer.in_shape.c << "x" << layer.in_shape.h << "x"
       << layer.in_shape.w << "_o" << layer.out_c << "_k" << layer.kernel << "s"
       << layer.stride << "_p" << li.ic_par << "x" << li.oc_par;
    if (li.tile_h > 0) os << "_t" << li.tile_h << "x" << li.tile_w;
    if (layer.fuse_relu || fused_relu_follows(model, group, pos)) os << "_r";
    // Materialized ROMs bake layer-specific weights into the checkpoint,
    // so the seed becomes part of the identity.
    if (traits.params != nullptr && li.materialize) {
      os << "_w" << layer_seed(static_cast<std::size_t>(group[pos]));
    }
  }
  return os.str();
}

std::vector<ComponentRequest> component_requests(const CnnModel& model, const ModelImpl& impl,
                                                 const std::vector<std::vector<int>>& groups) {
  // Deduplicate signatures: replicated layers collapse to one request.
  std::vector<ComponentRequest> requests;
  const auto queued = [&requests](const std::string& key) {
    for (const ComponentRequest& other : requests) {
      if (other.key == key) return true;
    }
    return false;
  };
  for (const auto& group : groups) {
    std::string key = group_signature(model, impl, group);
    if (queued(key)) continue;
    requests.push_back(ComponentRequest{std::move(key), &group, 0});
  }
  // The stream forks of the group DAG follow the group keys.
  for (int fanout : build_group_graph(model, groups).fanout) {
    if (fanout <= 1) continue;
    std::string key = fork_signature(fanout);
    if (queued(key)) continue;
    requests.push_back(ComponentRequest{std::move(key), nullptr, fanout});
  }
  return requests;
}

Netlist build_component_netlist(const CnnModel& model, const ModelImpl& impl,
                                const ComponentRequest& request) {
  if (request.fork_branches > 0) {
    return make_stream_fork(request.key, request.fork_branches);
  }
  if (request.group == nullptr) {
    throw std::invalid_argument("build_component_netlist: request '" + request.key +
                                "' has neither a group nor fork branches");
  }
  return build_group_netlist(model, impl, *request.group);
}

Netlist build_flat_netlist(const CnnModel& model, const ModelImpl& impl,
                           const std::vector<std::vector<int>>& groups) {
  const ComponentDfg dfg = expand_group_graph(build_group_graph(model, groups));
  Composer composer(model.name() + "_flat");
  for (const ComponentDfg::Node& node : dfg.nodes) {
    const Netlist component =
        node.group_index >= 0
            ? build_group_netlist(model, impl, groups[static_cast<std::size_t>(node.group_index)])
            : make_stream_fork(fork_signature(node.branches), node.branches);
    composer.add_instance(component, component.name());
  }
  composer.stitch(dfg.edges, dfg.input_node, dfg.output_node);
  return std::move(composer).finish().netlist;
}

}  // namespace fpgasim
