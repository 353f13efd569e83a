// Routing legality rules: channel-capacity overuse, locked-route conflicts
// between pre-implemented instances, pblock containment of locked routes,
// and route-tree coverage of every net terminal.
#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "drc/drc.h"

namespace fpgasim {
namespace drc_detail {
namespace {

std::string edge_str(const std::pair<TileCoord, TileCoord>& e) {
  return to_string(e.first) + "-" + to_string(e.second);
}

/// Canonical 64-bit key of an undirected channel edge.
std::uint64_t edge_key(TileCoord a, TileCoord b) {
  if (b.x < a.x || (b.x == a.x && b.y < a.y)) std::swap(a, b);
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a.x)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a.y)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(b.x)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(b.y));
}

/// The edge_str() of an edge_key().
std::string key_str(std::uint64_t key) {
  const int ax = static_cast<std::int16_t>(key >> 48);
  const int ay = static_cast<std::int16_t>((key >> 32) & 0xFFFF);
  const int bx = static_cast<std::int16_t>((key >> 16) & 0xFFFF);
  const int by = static_cast<std::int16_t>(key & 0xFFFF);
  return edge_str({TileCoord{ax, ay}, TileCoord{bx, by}});
}

}  // namespace

void route_overuse(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr) return;
  std::unordered_map<std::uint64_t, int> usage;
  for (const RouteInfo& route : ctx.phys->routes) {
    if (!route.routed) continue;
    for (const auto& [a, b] : route.edges) usage[edge_key(a, b)] += 1;
  }
  for (const auto& [key, count] : usage) {
    if (count > ctx.channel_capacity) {
      out.emit("channel edge " + key_str(key) + " carries " + std::to_string(count) +
               " nets (capacity " + std::to_string(ctx.channel_capacity) + ")");
    }
  }
}

void route_locked_conflict(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr || ctx.instances.size() < 2) return;
  const Netlist& nl = *ctx.netlist;
  struct EdgeUse {
    int count = 0;
    int first_instance = -1;
    bool multi_instance = false;
  };
  std::unordered_map<std::uint64_t, EdgeUse> usage;
  const std::size_t n_routes =
      std::min(ctx.phys->routes.size(), static_cast<std::size_t>(nl.net_count()));
  for (NetId n = 0; n < n_routes; ++n) {
    if (!nl.net(n).routing_locked) continue;
    const RouteInfo& route = ctx.phys->routes[n];
    if (!route.routed) continue;
    const int owner = instance_of_net(ctx.instances, n);
    if (owner < 0) continue;
    for (const auto& [a, b] : route.edges) {
      EdgeUse& use = usage[edge_key(a, b)];
      use.count += 1;
      if (use.first_instance < 0) {
        use.first_instance = owner;
      } else if (use.first_instance != owner) {
        use.multi_instance = true;
      }
    }
  }
  for (const auto& [key, use] : usage) {
    if (use.multi_instance && use.count > ctx.channel_capacity) {
      out.emit("locked routes from multiple instances oversubscribe edge " + key_str(key) +
               " (" + std::to_string(use.count) + " > capacity " +
               std::to_string(ctx.channel_capacity) + ")");
    }
  }
}

void route_escape(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr || ctx.instances.empty()) return;
  const Netlist& nl = *ctx.netlist;
  for (const InstanceRange& inst : ctx.instances) {
    const NetId end = std::min(inst.net_end, static_cast<NetId>(ctx.phys->routes.size()));
    for (NetId n = inst.net_begin; n < end; ++n) {
      const Net& net = nl.net(n);
      if (!net.routing_locked) continue;
      const RouteInfo& route = ctx.phys->routes[n];
      if (!route.routed || route.edges.empty()) continue;
      // Only nets whose every terminal lives inside this instance must be
      // confined: stitched stream nets legitimately leave the pblock to
      // reach the neighbouring component.
      bool internal = net.driver == kInvalidCell ||
                      (net.driver >= inst.cell_begin && net.driver < inst.cell_end);
      for (const auto& [cell, pin] : net.sinks) {
        internal = internal && cell >= inst.cell_begin && cell < inst.cell_end;
      }
      if (!internal || (net.driver == kInvalidCell && net.sinks.empty())) continue;
      for (const auto& edge : route.edges) {
        if (!inst.footprint.contains(edge.first.x, edge.first.y) ||
            !inst.footprint.contains(edge.second.x, edge.second.y)) {
          out.emit(net_ref(nl, n) + " of instance '" + inst.name + "' has locked route edge " +
                       edge_str(edge) + " outside its pblock " + inst.footprint.to_string(),
                   kInvalidCell, n);
          break;  // one finding per net is enough
        }
      }
    }
  }
}

void route_endpoints(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const PhysState& phys = *ctx.phys;
  if (phys.cell_loc.size() != nl.cell_count() || phys.routes.size() != nl.net_count()) {
    return;  // reported by place-bounds
  }
  auto tile_key = [](TileCoord t) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.x)) << 32) |
           static_cast<std::uint32_t>(t.y);
  };
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    const RouteInfo& route = phys.routes[n];

    // Placed terminals of the net.
    std::vector<TileCoord> terminals;
    if (net.driver != kInvalidCell && phys.is_placed(net.driver)) {
      terminals.push_back(phys.cell_loc[net.driver]);
    }
    for (const auto& [cell, pin] : net.sinks) {
      if (cell < nl.cell_count() && phys.is_placed(cell)) {
        terminals.push_back(phys.cell_loc[cell]);
      }
    }

    if (!route.routed) {
      if (!net.sinks.empty() &&
          terminals.size() == net.sinks.size() + (net.driver != kInvalidCell ? 1u : 0u) &&
          net.driver != kInvalidCell) {
        out.emit(net_ref(nl, n) + " has placed terminals but was left unrouted", kInvalidCell,
                 n);
      }
      continue;
    }

    if (route.sink_delays_ns.size() != net.sinks.size()) {
      out.emit(net_ref(nl, n) + " records " + std::to_string(route.sink_delays_ns.size()) +
                   " sink delays for " + std::to_string(net.sinks.size()) + " sinks",
               kInvalidCell, n);
    }

    bool malformed = false;
    std::unordered_set<std::uint64_t> nodes;
    for (const auto& edge : route.edges) {
      const int dx = std::abs(edge.first.x - edge.second.x);
      const int dy = std::abs(edge.first.y - edge.second.y);
      const bool adjacent = dx + dy == 1;
      const bool in_bounds = ctx.device == nullptr ||
                             (ctx.device->in_bounds(edge.first.x, edge.first.y) &&
                              ctx.device->in_bounds(edge.second.x, edge.second.y));
      if (!adjacent || !in_bounds) {
        out.emit(net_ref(nl, n) + " has a malformed route edge " + edge_str(edge), kInvalidCell,
                 n);
        malformed = true;
        break;
      }
      nodes.insert(tile_key(edge.first));
      nodes.insert(tile_key(edge.second));
    }
    if (malformed) continue;

    if (route.edges.empty()) {
      // A zero-wire route is only legal when all terminals share a tile.
      for (std::size_t t = 1; t < terminals.size(); ++t) {
        if (!(terminals[t] == terminals[0])) {
          out.emit(net_ref(nl, n) + " is marked routed with no edges but its terminals " +
                       "span multiple tiles",
                   kInvalidCell, n);
          break;
        }
      }
      continue;
    }
    for (const TileCoord& t : terminals) {
      if (nodes.find(tile_key(t)) == nodes.end()) {
        out.emit(net_ref(nl, n) + " route tree does not reach its terminal at (" +
                     std::to_string(t.x) + "," + std::to_string(t.y) + ")",
                 kInvalidCell, n);
        break;  // one finding per net is enough
      }
    }
  }
}

}  // namespace drc_detail
}  // namespace fpgasim
