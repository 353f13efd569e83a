#include "flow/monolithic.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "drc/drc.h"
#include "flow/gate.h"
#include "place/place.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

constexpr double kMovesPerItem = 160.0;  // SA effort (per cluster)
constexpr std::size_t kReplicationFanout = 48;  // duplicate drivers above this fanout
// Placement and the full route run at their default seed (1).
constexpr std::uint64_t kRerouteSeed = 2;  // incremental reroute after phys-opt

TileCoord midpoint(TileCoord a, TileCoord b) {
  return TileCoord{(a.x + b.x) / 2, (a.y + b.y) / 2};
}

}  // namespace

MonoReport run_monolithic_flow(const Device& device, Netlist& netlist, PhysState& phys,
                               const MonoOptions& opt) {
  MonoReport report;
  Stopwatch total;

  const std::vector<InstanceRange> flat;  // one flat design, no instances
  const GateSubject gate{"monolithic", device, netlist, phys, flat};

  // Clustering + placement over the whole device.
  const Clustering clustering = cluster_netlist(netlist, opt.cluster_size);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(netlist, clustering, items, nets);

  SaOptions sa;
  // Like a commercial placer, pack the design into a region sized to its
  // demand instead of scattering it across the die.
  const ResourceVec demand = netlist.stats().resources;
  const ResourceVec padded{demand.lut * 3 / 2 + 64, demand.ff * 3 / 2 + 64,
                           demand.carry * 3 / 2 + 8, demand.dsp * 5 / 4 + 1,
                           demand.bram * 5 / 4 + 1};
  const auto region = find_min_pblock(device, padded);
  sa.region = region.has_value() ? *region
                                 : Pblock{0, 0, device.width() - 1, device.height() - 1};
  sa.bin_tiles = 4;
  sa.moves_per_item = kMovesPerItem;
  const SaResult placement = place_sa(device, items, nets, sa);
  assign_cells_to_tiles(device, netlist, clustering, placement, sa, phys);
  run_gate(gate, kDrcStructural | kDrcPlacement, "placement", report.drc_place);

  // Full routing.
  report.route = route_design(device, netlist, phys, RouteOptions{});
  report.timing = run_sta(netlist, phys, device);

  if (opt.phys_opt) {
    // Pass 1: register insertion on wire-dominated connections. The
    // threshold keys off the achieved critical path: connections whose
    // wire delay alone eats most of the clock period get a pipeline FF at
    // the route midpoint (increases registers and latency, recovers Fmax;
    // Sec. V-E of the paper observes exactly this trade).
    const double threshold = std::max(0.8, 0.40 * report.timing.critical_path_ns);
    const std::size_t insert_cap = std::max<std::size_t>(64, netlist.net_count() / 50);
    struct Insertion {
      NetId net;
      std::size_t sink_index;
    };
    std::vector<Insertion> insertions;
    for (NetId n = 0; n < netlist.net_count() && insertions.size() < insert_cap; ++n) {
      const RouteInfo& route = phys.routes[n];
      if (!route.routed) continue;
      for (std::size_t s = 0; s < route.sink_delays_ns.size(); ++s) {
        if (route.sink_delays_ns[s] > threshold) {
          insertions.push_back({n, s});
          break;  // one insertion per net is enough to split the route
        }
      }
    }
    for (const Insertion& ins : insertions) {
      Net& net = netlist.net(ins.net);
      if (ins.sink_index >= net.sinks.size()) continue;
      const auto [sink_cell, sink_pin] = net.sinks[ins.sink_index];
      const TileCoord driver_loc =
          net.driver != kInvalidCell ? phys.cell_loc[net.driver] : kUnplaced;
      const TileCoord sink_loc = phys.cell_loc[sink_cell];

      Cell ff;
      ff.type = CellType::kFf;
      ff.width = net.width;
      ff.name = "physopt_ff";
      const CellId ff_id = netlist.add_cell(std::move(ff));
      const NetId piped = netlist.add_net(net.width, "physopt_net");
      // Rewire: net -> FF -> sink.
      netlist.net(ins.net).sinks.erase(netlist.net(ins.net).sinks.begin() +
                                       static_cast<std::ptrdiff_t>(ins.sink_index));
      netlist.connect_input(ff_id, 0, ins.net);
      netlist.connect_output(ff_id, 0, piped);
      netlist.cell(sink_cell).inputs[sink_pin] = piped;
      netlist.net(piped).sinks.emplace_back(sink_cell, sink_pin);

      phys.resize_for(netlist);
      phys.cell_loc[ff_id] = (driver_loc == kUnplaced || sink_loc == kUnplaced)
                                 ? sink_loc
                                 : midpoint(driver_loc, sink_loc);
      phys.routes[ins.net] = RouteInfo{};  // reroute the modified net
      ++report.inserted_ffs;
    }

    // Pass 2: driver replication on very wide fanout (LUT replication the
    // way commercial phys_opt duplicates registers/LUTs on spread designs).
    const std::size_t cell_count_snapshot = netlist.cell_count();
    for (CellId c = 0; c < cell_count_snapshot; ++c) {
      // Copy up front: add_cell below may reallocate the cell vector.
      const Cell cell = netlist.cell(c);
      if (cell.type != CellType::kLut || cell.outputs.empty() ||
          cell.outputs[0] == kInvalidNet) {
        continue;
      }
      const NetId out = cell.outputs[0];
      if (netlist.net(out).sinks.size() <= kReplicationFanout) {
        continue;
      }
      // Clone the driver; move the second half of the sinks to the clone.
      Cell clone = cell;
      clone.name += "_rep";
      clone.outputs.clear();
      clone.inputs.clear();
      const CellId clone_id = netlist.add_cell(std::move(clone));
      for (std::size_t pin = 0; pin < cell.inputs.size(); ++pin) {
        const NetId in = cell.inputs[pin];
        if (in != kInvalidNet) {
          netlist.connect_input(clone_id, static_cast<std::uint16_t>(pin), in);
          phys.routes[in] = RouteInfo{};  // gained a sink: reroute
        }
      }
      const NetId out2 = netlist.add_net(netlist.net(out).width, cell.name + "_rep");
      netlist.connect_output(clone_id, 0, out2);
      Net& original = netlist.net(out);
      const std::size_t half = original.sinks.size() / 2;
      for (std::size_t s = half; s < original.sinks.size(); ++s) {
        const auto [sink_cell, sink_pin] = original.sinks[s];
        netlist.cell(sink_cell).inputs[sink_pin] = out2;
        netlist.net(out2).sinks.emplace_back(sink_cell, sink_pin);
      }
      original.sinks.resize(half);
      phys.resize_for(netlist);
      phys.cell_loc[clone_id] = phys.cell_loc[c];
      phys.routes[out] = RouteInfo{};
      ++report.replicated_drivers;
    }

    // Incremental reroute of the modified nets + final STA.
    if (report.inserted_ffs > 0 || report.replicated_drivers > 0) {
      RouteOptions reroute;
      reroute.seed = kRerouteSeed;
      report.route = route_design(device, netlist, phys, reroute);
      report.timing = run_sta(netlist, phys, device);
    }
  }

  run_gate(gate, kDrcStructural | kDrcPlacement | kDrcRouting, "routing", report.drc);

  report.stats = netlist.stats();
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace fpgasim
