#include "flow/compose.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "synth/layers.h"

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

int Composer::add_instance(const Netlist& netlist, const std::string& instance_name,
                           const PhysState* phys, const Pblock& pblock) {
  const auto [cell_offset, net_offset] = design_.netlist.merge(netlist);
  if (phys != nullptr) {
    design_.phys.append(*phys);
  } else {
    design_.phys.resize_for(design_.netlist);
  }
  design_.instances.push_back({instance_name, pblock, cell_offset,
                               static_cast<CellId>(design_.netlist.cell_count()), net_offset,
                               static_cast<NetId>(design_.netlist.net_count())});

  std::vector<Port> ports = netlist.ports();
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

void Composer::expose_streams(int instance, bool input) {
  const char* side = input ? "in" : "out";
  const PortDir along = input ? PortDir::kInput : PortDir::kOutput;
  const PortDir against = input ? PortDir::kOutput : PortDir::kInput;
  const auto& used = input ? used_inputs_ : used_outputs_;
  port_net(instance, stream_port_name(side, 0, "data"));  // throws when absent
  for (int k = 0; has_port(instance, stream_port_name(side, k, "data")); ++k) {
    if (std::find(used.begin(), used.end(), std::make_pair(instance, k)) != used.end()) {
      continue;
    }
    const auto add = [&](const char* field, PortDir dir, std::uint16_t width) {
      const std::string name = stream_port_name(side, k, field);
      design_.netlist.add_port(Port{name, dir, width, port_net(instance, name)});
    };
    add("data", along, kDataW);
    add("valid", along, 1);
    add("ready", against, 1);
  }
}

void Composer::stitch(const std::vector<StreamEdge>& edges, int input, int output) {
  for (const StreamEdge& e : edges) connect(e.from, e.to, e.to_port, e.from_port);
  expose_input(input);
  expose_output(output);
}

ComposedDesign Composer::finish() && { return std::move(design_); }

Netlist stitch_graph(const std::vector<const Netlist*>& stages,
                     const std::vector<StreamEdge>& edges, int input_stage,
                     int output_stage, const std::string& name) {
  Composer composer(name);
  for (const Netlist* stage : stages) composer.add_instance(*stage, stage->name());
  composer.stitch(edges, input_stage, output_stage);
  return std::move(composer).finish().netlist;
}

std::vector<StreamEdge> chain_edges(int stages) {
  std::vector<StreamEdge> edges;
  for (int s = 0; s + 1 < stages; ++s) edges.push_back(StreamEdge{s, s + 1, 0, 0});
  return edges;
}

Netlist stitch_chain(const std::vector<const Netlist*>& stages, const std::string& name) {
  const int n = static_cast<int>(stages.size());
  return stitch_graph(stages, chain_edges(n), 0, n - 1, name);
}

}  // namespace fpgasim
