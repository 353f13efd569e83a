#include "timing/sta.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "netlist/comb_graph.h"

namespace fpgasim {

double estimate_wire_delay(const Device& device, TileCoord from, TileCoord to,
                           const DelayModel& dm) {
  if (from == kUnplaced || to == kUnplaced) return dm.wire_unplaced;
  const int manhattan = std::abs(from.x - to.x) + std::abs(from.y - to.y);
  const int crossings = device.discontinuities_between(from.x, to.x);
  return dm.wire_base + dm.wire_per_tile * manhattan + dm.wire_discontinuity * crossings;
}

TimingResult run_sta(const Netlist& netlist, const PhysState& phys, const Device& device,
                     const DelayModel& dm) {
  const std::size_t num_nets = netlist.net_count();
  const bool have_phys = phys.cell_loc.size() == netlist.cell_count();

  // Wire delay of one (net, sink index) connection.
  auto wire_delay = [&](NetId n, std::size_t sink_idx, CellId sink_cell) -> double {
    if (have_phys && n < phys.routes.size()) {
      const RouteInfo& route = phys.routes[n];
      if (route.routed && sink_idx < route.sink_delays_ns.size()) {
        return route.sink_delays_ns[sink_idx];
      }
    }
    const Net& net = netlist.net(n);
    TileCoord from = kUnplaced, to = kUnplaced;
    if (have_phys) {
      if (net.driver != kInvalidCell) from = phys.cell_loc[net.driver];
      to = phys.cell_loc[sink_cell];
    }
    const double fanout_term = dm.wire_per_fanout * (net.sinks.size() > 1
                                                         ? static_cast<double>(net.sinks.size() - 1)
                                                         : 0.0);
    return estimate_wire_delay(device, from, to, dm) + fanout_term;
  };

  // Arrival times propagate in topological order of the combinational
  // cells; constants launch at 0 like input ports.
  const CombGraph graph(netlist);
  if (graph.has_cycle()) {
    throw std::runtime_error("sta: combinational loop in netlist '" + netlist.name() + "'");
  }

  // Arrival time at each net, with the input net (and its wire delay)
  // its driver's arrival came through, for the path report.
  std::vector<double> arrival(num_nets, 0.0);
  std::vector<NetId> pred_net(num_nets, kInvalidNet);
  std::vector<double> pred_wire(num_nets, 0.0);
  for (NetId n = 0; n < num_nets; ++n) {
    const Net& net = netlist.net(n);
    if (net.driver != kInvalidCell && is_sequential(netlist.cell(net.driver))) {
      arrival[n] = dm.clk_to_q(netlist.cell(net.driver));
    }
  }
  for (const CellId c : graph.order()) {
    const Cell& cell = netlist.cell(c);
    if (cell.outputs.empty()) continue;
    double best = 0.0;
    double best_wire = 0.0;
    NetId best_in = kInvalidNet;
    for (NetId in : cell.inputs) {
      if (in == kInvalidNet) continue;
      // Wire delay from the input net to this cell: find our sink index.
      const Net& net = netlist.net(in);
      double wd = dm.wire_unplaced;
      for (std::size_t s = 0; s < net.sinks.size(); ++s) {
        if (net.sinks[s].first == c) {
          wd = wire_delay(in, s, c);
          break;
        }
      }
      const double t = arrival[in] + wd;
      if (t > best) {
        best = t;
        best_wire = wd;
        best_in = in;
      }
    }
    // Every output net launches at the cell's arrival time, not just the
    // first: a multi-output cell would otherwise leave arrival 0 on its
    // remaining nets and silently shorten all paths through them.
    for (const NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      arrival[out] = best + dm.comb_delay(cell);
      pred_net[out] = best_in;
      pred_wire[out] = best_wire;
    }
  }

  // Endpoints: sequential-cell inputs (+ output ports).
  TimingResult result;
  NetId worst_net = kInvalidNet;
  CellId worst_cell = kInvalidCell;
  double worst_wire = 0.0;
  for (NetId n = 0; n < num_nets; ++n) {
    const Net& net = netlist.net(n);
    for (std::size_t s = 0; s < net.sinks.size(); ++s) {
      const auto [sink, pin] = net.sinks[s];
      const Cell& cell = netlist.cell(sink);
      if (!is_sequential(cell)) continue;
      ++result.endpoints;
      const double wd = wire_delay(n, s, sink);
      const double t = arrival[n] + wd + dm.setup(cell);
      if (t > result.critical_path_ns) {
        result.critical_path_ns = t;
        worst_net = n;
        worst_cell = sink;
        worst_wire = wd;
      }
    }
  }
  for (const Port& port : netlist.ports()) {
    if (port.dir != PortDir::kOutput || port.net == kInvalidNet) continue;
    ++result.endpoints;
    const double t = arrival[port.net];
    if (t > result.critical_path_ns) {
      result.critical_path_ns = t;
      worst_net = port.net;
      worst_cell = kInvalidCell;
    }
  }

  if (result.critical_path_ns > 0.0) {
    result.fmax_mhz = 1000.0 / result.critical_path_ns;
    // Walk back from the endpoint to the launch, then put the launch first.
    std::vector<TimingHop>& path = result.critical_path;
    if (worst_cell != kInvalidCell) {
      path.push_back({worst_cell, worst_net, worst_wire, dm.setup(netlist.cell(worst_cell))});
    }
    for (NetId n = worst_net; n != kInvalidNet;) {
      const CellId driver = netlist.net(n).driver;
      if (driver == kInvalidCell) break;  // an input port launched the path
      const Cell& cell = netlist.cell(driver);
      if (is_sequential(cell)) {
        path.push_back({driver, kInvalidNet, 0.0, dm.clk_to_q(cell)});
        break;
      }
      path.push_back({driver, pred_net[n], pred_wire[n], dm.comb_delay(cell)});
      n = pred_net[n];
    }
    std::reverse(path.begin(), path.end());
  }
  return result;
}

std::string format_critical_path(const TimingResult& timing, const Netlist& netlist,
                                 const std::vector<InstanceRange>& instances) {
  const auto owner = [&](CellId cell) -> std::string {
    const int i = instance_of_cell(instances, cell);
    return i < 0 ? "top" : instances[static_cast<std::size_t>(i)].name;
  };
  char line[160];
  std::snprintf(line, sizeof line, "critical path %.3f ns (%.1f MHz), launch first:\n",
                timing.critical_path_ns, timing.fmax_mhz);
  std::string text = line;
  for (const TimingHop& hop : timing.critical_path) {
    const std::string instance = owner(hop.cell);
    text += "  ";
    text += instance;
    text += ": ";
    text += cell_ref(netlist, hop.cell);
    if (hop.net != kInvalidNet) {
      text += " <- ";
      text += net_ref(netlist, hop.net);
      const CellId driver = netlist.net(hop.net).driver;
      if (driver == kInvalidCell) {
        text += " from an input port";
      } else if (owner(driver) != instance) {
        text += " from ";
        text += owner(driver);
      }
    }
    std::snprintf(line, sizeof line, ": wire %.3f + logic %.3f ns\n", hop.wire_ns,
                  hop.logic_ns);
    text += line;
  }
  return text;
}

}  // namespace fpgasim
