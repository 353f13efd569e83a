#include "flow/ooc.h"

#include <cmath>
#include <stdexcept>

#include "place/place.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

constexpr int kPblockMaxWidth = 31;      // width cap (columns) for relocatability
constexpr double kMovesPerItem = 220.0;  // SA effort (per cell)

ResourceVec scale(const ResourceVec& res, double factor) {
  auto up = [factor](std::int64_t v) {
    return static_cast<std::int64_t>(std::ceil(static_cast<double>(v) * factor));
  };
  return ResourceVec{up(res.lut), up(res.ff), up(res.carry), up(res.dsp), up(res.bram)};
}

/// Partition-pin planning: spreads input ports along the west edge and
/// output ports along the east edge of the pblock (dataflow direction).
/// With planning disabled, pins land pseudo-randomly inside the pblock
/// (the failure mode Sec. IV-A2 warns about).
std::vector<TileCoord> plan_partition_pins(const Netlist& netlist, const Pblock& pblock,
                                           bool planned, std::uint64_t seed) {
  std::vector<TileCoord> pins(netlist.ports().size());
  Rng rng(seed);
  int in_count = 0, out_count = 0;
  for (const Port& port : netlist.ports()) {
    (port.dir == PortDir::kInput ? in_count : out_count) += 1;
  }
  int in_idx = 0, out_idx = 0;
  for (std::size_t p = 0; p < netlist.ports().size(); ++p) {
    const Port& port = netlist.ports()[p];
    if (!planned) {
      pins[p] = TileCoord{
          pblock.x0 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                          pblock.width()))),
          pblock.y0 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
                          pblock.height())))};
      continue;
    }
    if (port.dir == PortDir::kInput) {
      const int y = pblock.y0 + (pblock.height() * (2 * in_idx + 1)) / (2 * in_count);
      pins[p] = TileCoord{pblock.x0, y};
      ++in_idx;
    } else {
      const int y = pblock.y0 + (pblock.height() * (2 * out_idx + 1)) / (2 * out_count);
      pins[p] = TileCoord{pblock.x1, y};
      ++out_idx;
    }
  }
  return pins;
}

}  // namespace

OocResult implement_ooc(const Device& device, Netlist netlist, const OocOptions& opt) {
  Stopwatch watch;
  const NetlistStats stats = netlist.stats();
  const ResourceVec need = scale(stats.resources, opt.pblock_slack);

  static constexpr double kAspects[] = {1.0, 2.2, 0.45, 3.5, 0.28};
  OocResult best;
  bool have_best = false;

  for (int s = 0; s < opt.strategies; ++s) {
    const double aspect = kAspects[s % (sizeof(kAspects) / sizeof(kAspects[0]))];
    const auto pblock = find_min_pblock(device, need, aspect, kPblockMaxWidth);
    if (!pblock) {
      if (s == 0) {
        throw std::runtime_error("implement_ooc: component '" + netlist.name() +
                                 "' does not fit the device (" + need.to_string() + ")");
      }
      continue;
    }

    const std::vector<TileCoord> pins =
        plan_partition_pins(netlist, *pblock, opt.port_planning, opt.seed + s);

    // Cell-level placement model plus fixed partition-pin terminals.
    const Clustering identity = cluster_netlist(netlist, 1);
    std::vector<PlaceItem> items;
    std::vector<PlaceNet> nets;
    build_place_model(netlist, identity, items, nets);
    for (std::size_t p = 0; p < netlist.ports().size(); ++p) {
      const Port& port = netlist.ports()[p];
      PlaceItem pin_item;
      pin_item.fixed = true;
      pin_item.fixed_x = pins[p].x;
      pin_item.fixed_y = pins[p].y;
      const std::int32_t pin_id = static_cast<std::int32_t>(items.size());
      items.push_back(pin_item);
      // Tie the pin to the cells on the port net.
      PlaceNet tether;
      tether.items.push_back(pin_id);
      const Net& net = netlist.net(port.net);
      if (net.driver != kInvalidCell) tether.items.push_back(static_cast<std::int32_t>(net.driver));
      for (const auto& [cell, pin] : net.sinks) {
        tether.items.push_back(static_cast<std::int32_t>(cell));
      }
      tether.weight = 2.0;
      nets.push_back(std::move(tether));
    }

    SaOptions sa;
    sa.region = *pblock;
    sa.bin_tiles = 1;
    sa.moves_per_item = kMovesPerItem;
    sa.seed = opt.seed * 977 + static_cast<std::uint64_t>(s);
    const SaResult placement = place_sa(device, items, nets, sa);

    PhysState phys;
    assign_cells_to_tiles(device, netlist, identity, placement, sa, phys);

    RouteOptions route_opt = opt.route;
    route_opt.bounded = true;
    route_opt.region = *pblock;
    route_opt.seed = sa.seed;
    for (std::size_t p = 0; p < netlist.ports().size(); ++p) {
      route_opt.fixed_terminals[netlist.ports()[p].net] = pins[p];
    }
    const RouteResult route = route_design(device, netlist, phys, route_opt);
    if (!route.success || route.max_overuse > 0) {
      // Residual channel overuse is no legal implementation either.
      LOG_WARN("ooc '%s' strategy %d: routing failed (%s)", netlist.name().c_str(), s,
               route.success ? "residual channel overuse" : route.error.c_str());
      continue;
    }
    const TimingResult timing = run_sta(netlist, phys, device);

    if (!have_best || timing.fmax_mhz > best.timing.fmax_mhz) {
      have_best = true;
      best.timing = timing;
      best.route = route;
      best.strategy = s;
      best.checkpoint.phys = std::move(phys);
      best.checkpoint.pblock = *pblock;
      best.checkpoint.port_pins = pins;
    }
  }
  if (!have_best) {
    throw std::runtime_error("implement_ooc: no strategy succeeded for '" + netlist.name() +
                             "'");
  }

  netlist.lock_all();
  best.checkpoint.netlist = std::move(netlist);
  best.checkpoint.meta.fmax_mhz = best.timing.fmax_mhz;
  best.checkpoint.meta.critical_path_ns = best.timing.critical_path_ns;
  best.checkpoint.meta.implement_seconds = watch.seconds();
  best.checkpoint.meta.strategy = "aspect_" + std::to_string(best.strategy);
  best.checkpoint.meta.device = device.name();
  return best;
}

}  // namespace fpgasim
