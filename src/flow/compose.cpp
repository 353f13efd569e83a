#include "flow/compose.h"

#include "drc/drc.h"
#include "synth/layers.h"

#include <stdexcept>
#include <utility>

namespace fpgasim {

void alias_net(Netlist& netlist, NetId driverless, NetId driven) {
  if (driverless == driven) return;
  Net& dead = netlist.net(driverless);
  if (dead.driver != kInvalidCell) {
    throw std::runtime_error("alias_net: net '" + dead.name + "' has a driver");
  }
  Net& live = netlist.net(driven);
  for (const auto& [cell, pin] : dead.sinks) {
    netlist.cell(cell).inputs[pin] = driven;
    live.sinks.emplace_back(cell, pin);
  }
  dead.sinks.clear();
}

void alias_net(Netlist& netlist, PhysState& phys, NetId driverless, NetId driven) {
  alias_net(netlist, driverless, driven);
  if (driverless != driven && driverless < phys.routes.size()) {
    phys.routes[driverless] = RouteInfo{};
  }
}

void ComposedDesign::translate_instance(std::size_t index, int dx, int dy) {
  const InstanceRange& inst = instances[index];
  for (CellId c = inst.cell_begin; c < inst.cell_end; ++c) {
    TileCoord& loc = phys.cell_loc[c];
    if (loc == kUnplaced) continue;
    loc.x += dx;
    loc.y += dy;
  }
  for (NetId n = inst.net_begin; n < inst.net_end; ++n) {
    for (auto& [a, b] : phys.routes[n].edges) {
      a.x += dx;
      a.y += dy;
      b.x += dx;
      b.y += dy;
    }
  }
  instances[index].footprint = inst.footprint.translated(dx, dy);
}

std::vector<MacroItem> ComposedDesign::macro_items() const {
  std::vector<MacroItem> items;
  items.reserve(instances.size());
  for (const InstanceRange& inst : instances) {
    items.push_back(MacroItem{inst.name, inst.footprint});
  }
  return items;
}

Composer::Composer(std::string top_name) { design_.netlist.set_name(std::move(top_name)); }

int Composer::add_instance(const Checkpoint& checkpoint, const std::string& instance_name) {
  const auto [cell_offset, net_offset] = design_.netlist.merge(checkpoint.netlist);
  design_.phys.append(checkpoint.phys);
  design_.instances.push_back({instance_name, checkpoint.pblock, cell_offset,
                               static_cast<CellId>(design_.netlist.cell_count()), net_offset,
                               static_cast<NetId>(design_.netlist.net_count())});

  std::vector<Port> ports = checkpoint.netlist.ports();
  for (Port& port : ports) port.net += net_offset;
  instance_ports_.push_back(std::move(ports));
  return static_cast<int>(design_.instances.size()) - 1;
}

NetId Composer::port_net(int instance, const std::string& port_name) const {
  for (const Port& port : instance_ports_[static_cast<std::size_t>(instance)]) {
    if (port.name == port_name) return port.net;
  }
  throw std::runtime_error("composer: instance '" +
                           design_.instances[static_cast<std::size_t>(instance)].name +
                           "' has no port '" + port_name + "'");
}

bool Composer::has_port(int instance, const std::string& port_name) const {
  for (const Port& port : instance_ports_[static_cast<std::size_t>(instance)]) {
    if (port.name == port_name) return true;
  }
  return false;
}

void Composer::connect(int from, int to, int to_port, int from_port) {
  const auto out_key = std::make_pair(from, from_port);
  const auto in_key = std::make_pair(to, to_port);
  for (const auto& used : used_outputs_) {
    if (used == out_key) {
      throw std::runtime_error(
          "composer: output stream " + std::to_string(from_port) + " of instance '" +
          design_.instances[static_cast<std::size_t>(from)].name +
          "' already drives a consumer; stream fan-out needs an explicit fork "
          "component (make_stream_fork)");
    }
  }
  for (const auto& used : used_inputs_) {
    if (used == in_key) {
      throw std::runtime_error(
          "composer: input stream " + std::to_string(to_port) + " of instance '" +
          design_.instances[static_cast<std::size_t>(to)].name + "' already has a producer");
    }
  }
  used_outputs_.push_back(out_key);
  used_inputs_.push_back(in_key);
  // Data/valid flow downstream; ready flows back upstream.
  alias_net(design_.netlist, design_.phys,
            port_net(to, stream_port_name("in", to_port, "data")),
            port_net(from, stream_port_name("out", from_port, "data")));
  alias_net(design_.netlist, design_.phys,
            port_net(to, stream_port_name("in", to_port, "valid")),
            port_net(from, stream_port_name("out", from_port, "valid")));
  alias_net(design_.netlist, design_.phys,
            port_net(from, stream_port_name("out", from_port, "ready")),
            port_net(to, stream_port_name("in", to_port, "ready")));
  design_.macro_nets.push_back(MacroNet{{from, to}, 1.0});
}

void Composer::expose_input(int instance) {
  Netlist& nl = design_.netlist;
  if (!has_port(instance, "in_data")) port_net(instance, "in_data");  // throws
  for (int k = 0; has_port(instance, stream_port_name("in", k, "data")); ++k) {
    bool used = false;
    for (const auto& key : used_inputs_) used |= key == std::make_pair(instance, k);
    if (used) continue;
    nl.add_port(Port{stream_port_name("in", k, "data"), PortDir::kInput, kDataW,
                     port_net(instance, stream_port_name("in", k, "data"))});
    nl.add_port(Port{stream_port_name("in", k, "valid"), PortDir::kInput, 1,
                     port_net(instance, stream_port_name("in", k, "valid"))});
    nl.add_port(Port{stream_port_name("in", k, "ready"), PortDir::kOutput, 1,
                     port_net(instance, stream_port_name("in", k, "ready"))});
  }
}

void Composer::expose_output(int instance) {
  Netlist& nl = design_.netlist;
  if (!has_port(instance, "out_data")) port_net(instance, "out_data");  // throws
  for (int k = 0; has_port(instance, stream_port_name("out", k, "data")); ++k) {
    bool used = false;
    for (const auto& key : used_outputs_) used |= key == std::make_pair(instance, k);
    if (used) continue;
    nl.add_port(Port{stream_port_name("out", k, "data"), PortDir::kOutput, kDataW,
                     port_net(instance, stream_port_name("out", k, "data"))});
    nl.add_port(Port{stream_port_name("out", k, "valid"), PortDir::kOutput, 1,
                     port_net(instance, stream_port_name("out", k, "valid"))});
    nl.add_port(Port{stream_port_name("out", k, "ready"), PortDir::kInput, 1,
                     port_net(instance, stream_port_name("out", k, "ready"))});
  }
}

ComposedDesign Composer::finish() && {
  // Gate the stitched netlist on the structural DRC subset before handing
  // it to placement. Unexposed stream inputs are legally driverless until
  // expose_input()/expose_output(), so net-dangling is waived here; the
  // flow-level gates re-run it unwaived after the boundary is exposed.
  enforce(run_structural_drc(design_.netlist, {.waived_rules = {"net-dangling"}}), "compose");
  return std::move(design_);
}

Netlist stitch_chain(const std::vector<const Netlist*>& stages, const std::string& name) {
  std::vector<StreamEdge> edges;
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    edges.push_back(StreamEdge{static_cast<int>(s), static_cast<int>(s + 1), 0, 0});
  }
  return stitch_graph(stages, edges, 0, static_cast<int>(stages.size()) - 1, name);
}

Netlist stitch_graph(const std::vector<const Netlist*>& stages,
                     const std::vector<StreamEdge>& edges, int input_stage,
                     int output_stage, const std::string& name) {
  Netlist top(name);
  std::vector<std::vector<Port>> ports;
  for (const Netlist* stage : stages) {
    const auto [cell_offset, net_offset] = top.merge(*stage);
    (void)cell_offset;
    std::vector<Port> adjusted = stage->ports();
    for (Port& port : adjusted) port.net += net_offset;
    ports.push_back(std::move(adjusted));
  }
  auto maybe_find = [&](int stage, const std::string& port_name) -> NetId {
    for (const Port& port : ports[static_cast<std::size_t>(stage)]) {
      if (port.name == port_name) return port.net;
    }
    return kInvalidNet;
  };
  auto find = [&](int stage, const std::string& port_name) -> NetId {
    const NetId net = maybe_find(stage, port_name);
    if (net == kInvalidNet) {
      throw std::runtime_error("stitch_graph: stage missing port '" + port_name + "'");
    }
    return net;
  };
  for (const StreamEdge& e : edges) {
    alias_net(top, find(e.to, stream_port_name("in", e.to_port, "data")),
              find(e.from, stream_port_name("out", e.from_port, "data")));
    alias_net(top, find(e.to, stream_port_name("in", e.to_port, "valid")),
              find(e.from, stream_port_name("out", e.from_port, "valid")));
    alias_net(top, find(e.from, stream_port_name("out", e.from_port, "ready")),
              find(e.to, stream_port_name("in", e.to_port, "ready")));
  }
  auto is_connected_input = [&](int stage, int port) {
    for (const StreamEdge& e : edges) {
      if (e.to == stage && e.to_port == port) return true;
    }
    return false;
  };
  auto is_connected_output = [&](int stage, int port) {
    for (const StreamEdge& e : edges) {
      if (e.from == stage && e.from_port == port) return true;
    }
    return false;
  };
  for (int k = 0; maybe_find(input_stage, stream_port_name("in", k, "data")) != kInvalidNet;
       ++k) {
    if (is_connected_input(input_stage, k)) continue;
    top.add_port(Port{stream_port_name("in", k, "data"), PortDir::kInput, kDataW,
                      find(input_stage, stream_port_name("in", k, "data"))});
    top.add_port(Port{stream_port_name("in", k, "valid"), PortDir::kInput, 1,
                      find(input_stage, stream_port_name("in", k, "valid"))});
    top.add_port(Port{stream_port_name("in", k, "ready"), PortDir::kOutput, 1,
                      find(input_stage, stream_port_name("in", k, "ready"))});
  }
  for (int k = 0;
       maybe_find(output_stage, stream_port_name("out", k, "data")) != kInvalidNet; ++k) {
    if (is_connected_output(output_stage, k)) continue;
    top.add_port(Port{stream_port_name("out", k, "data"), PortDir::kOutput, kDataW,
                      find(output_stage, stream_port_name("out", k, "data"))});
    top.add_port(Port{stream_port_name("out", k, "valid"), PortDir::kOutput, 1,
                      find(output_stage, stream_port_name("out", k, "valid"))});
    top.add_port(Port{stream_port_name("out", k, "ready"), PortDir::kInput, 1,
                      find(output_stage, stream_port_name("out", k, "ready"))});
  }
  return top;
}

}  // namespace fpgasim
