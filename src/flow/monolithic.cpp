#include "flow/monolithic.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "place/place.h"
#include "sim/compiled.h"
#include "util/log.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

TileCoord midpoint(TileCoord a, TileCoord b) {
  return TileCoord{(a.x + b.x) / 2, (a.y + b.y) / 2};
}

}  // namespace

MonoReport run_monolithic_flow(const Device& device, Netlist& netlist, PhysState& phys,
                               const MonoOptions& opt) {
  MonoReport report;
  Stopwatch total;
  CpuStopwatch total_cpu;

  // DRC gate: verifies the design between stages and throws on errors.
  const auto drc_gate = [&](unsigned stages, DrcReport& into, const char* where) {
    if (!opt.drc) return;
    Stopwatch watch;
    DrcContext ctx;
    ctx.netlist = &netlist;
    ctx.phys = &phys;
    ctx.device = &device;
    ctx.channel_capacity = opt.route.channel_capacity;
    into = run_drc(ctx, stages, opt.drc_options);
    report.drc_seconds += watch.seconds();
    enforce_drc(into, where);
  };

  // Clustering + placement over the whole device.
  Stopwatch stage;
  const Clustering clustering = cluster_netlist(netlist, opt.cluster_size);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(netlist, clustering, items, nets);
  report.cluster_seconds = stage.seconds();

  stage.restart();
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
  sa.moves_per_item = opt.moves_per_item;
  sa.seed = opt.seed;
  const SaResult placement = place_sa(device, items, nets, sa);
  assign_cells_to_tiles(device, netlist, clustering, placement, sa, phys);
  report.place_seconds = stage.seconds();
  drc_gate(kDrcStructural | kDrcPlacement, report.drc_place, "monolithic after placement");

  // Full routing.
  stage.restart();
  RouteOptions route_opt = opt.route;
  route_opt.seed = opt.seed;
  report.route = route_design(device, netlist, phys, route_opt);
  report.route_seconds = stage.seconds();
  LOG_DEBUG("monolithic route: %zu nets, %d iterations [%s]", report.route.nets_routed,
            report.route.iterations, report.route.iteration_summary().c_str());

  stage.restart();
  report.timing = run_sta(netlist, phys, device);
  report.sta_seconds = stage.seconds();

  if (opt.phys_opt) {
    stage.restart();
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
      if (netlist.net(out).sinks.size() <= static_cast<std::size_t>(opt.replication_fanout)) {
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
      RouteOptions rr = opt.route;
      rr.seed = opt.seed + 1;
      report.route = route_design(device, netlist, phys, rr);
      report.timing = run_sta(netlist, phys, device);
    }
    report.phys_opt_seconds = stage.seconds();
  }

  drc_gate(kDrcStructural | kDrcPlacement | kDrcRouting, report.drc,
           "monolithic after routing");

  if (opt.lint) {
    stage.restart();
    report.lint = lint::run(netlist, opt.lint_options);
    report.lint_seconds = stage.seconds();
    LOG_DEBUG("monolithic lint: %s (%.3fs wall, %.3fs cpu)", report.lint.summary().c_str(),
              report.lint.wall_seconds, report.lint.cpu_seconds);
    lint::enforce(report.lint, "monolithic after routing");
  }

  if (opt.compiled_verify) {
    // Compiled-verify gate: A/B the final (post-phys-opt) netlist through
    // the compiled bit-parallel simulator against the interpreter oracle.
    stage.restart();
    enforce_compiled_match(netlist, opt.compiled_verify_cycles, opt.seed, "monolithic");
    report.compiled_verify_seconds = stage.seconds();
    report.compiled_verify_ok = true;
  }

  report.stats = netlist.stats();
  report.total_seconds = total.seconds();
  report.total_cpu_seconds = total_cpu.seconds();
  LOG_DEBUG("monolithic '%s': %s, %.2fs total (place %.2f route %.2f physopt %.2f)",
            netlist.name().c_str(), report.timing.summary().c_str(), report.total_seconds,
            report.place_seconds, report.route_seconds, report.phys_opt_seconds);
  return report;
}

}  // namespace fpgasim
