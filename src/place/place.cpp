#include "place/place.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace fpgasim {
namespace {

// Start temperature calibration: the share of sampled uphill moves the
// first stage accepts (loose, so early stages explore).
constexpr double kInitialAccept = 0.35;

/// Scalarizes an overflow vector for the annealer's penalty term. Hard
/// blocks weigh far more than fabric cells: a DSP has nowhere else to go.
double overflow_penalty(const ResourceVec& used, const ResourceVec& cap) {
  auto over = [](std::int64_t u, std::int64_t c) {
    return static_cast<double>(std::max<std::int64_t>(0, u - c));
  };
  return over(used.lut, cap.lut) * 1.0 + over(used.ff, cap.ff) * 0.5 +
         over(used.carry, cap.carry) * 4.0 + over(used.dsp, cap.dsp) * 60.0 +
         over(used.bram, cap.bram) * 40.0;
}

struct BinGrid {
  int bins_x = 0;
  int bins_y = 0;
  std::vector<ResourceVec> capacity;

  int bin_of_tile(const SaOptions& opt, int x, int y) const {
    const int bx = (x - opt.region.x0) / opt.bin_tiles;
    const int by = (y - opt.region.y0) / opt.bin_tiles;
    return by * bins_x + bx;
  }
};

BinGrid make_bins(const Device& device, const SaOptions& opt) {
  BinGrid grid;
  grid.bins_x = (opt.region.width() + opt.bin_tiles - 1) / opt.bin_tiles;
  grid.bins_y = (opt.region.height() + opt.bin_tiles - 1) / opt.bin_tiles;
  grid.capacity.assign(static_cast<std::size_t>(grid.bins_x) * grid.bins_y, ResourceVec{});
  for (int x = opt.region.x0; x <= std::min(opt.region.x1, device.width() - 1); ++x) {
    for (int y = opt.region.y0; y <= std::min(opt.region.y1, device.height() - 1); ++y) {
      ResourceVec cap = device.tile_capacity(x, y);
      grid.capacity[static_cast<std::size_t>(grid.bin_of_tile(opt, x, y))] += cap;
    }
  }
  return grid;
}

}  // namespace

TileCoord SaResult::bin_center(const SaOptions& opt, int bin) const {
  const int bx = bin % bins_x;
  const int by = bin / bins_x;
  return TileCoord{opt.region.x0 + bx * opt.bin_tiles + opt.bin_tiles / 2,
                   opt.region.y0 + by * opt.bin_tiles + opt.bin_tiles / 2};
}

SaResult place_sa(const Device& device, const std::vector<PlaceItem>& items,
                  const std::vector<PlaceNet>& nets, const SaOptions& opt) {
  const BinGrid grid = make_bins(device, opt);
  const int num_bins = grid.bins_x * grid.bins_y;
  if (num_bins <= 0) throw std::runtime_error("place_sa: empty region");

  SaResult result;
  result.bins_x = grid.bins_x;
  result.bins_y = grid.bins_y;
  result.item_bin.assign(items.size(), 0);

  // Sanity: total demand must fit the (underated) region at all.
  ResourceVec total_demand, total_cap;
  for (const PlaceItem& item : items) total_demand += item.res;
  for (const ResourceVec& cap : grid.capacity) total_cap += cap;
  if (!total_demand.fits_in(total_cap)) {
    throw std::runtime_error("place_sa: demand " + total_demand.to_string() +
                             " exceeds region capacity " + total_cap.to_string());
  }

  std::vector<ResourceVec> usage(static_cast<std::size_t>(num_bins));

  // Initial placement: fixed items first, then size-descending greedy scan.
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  auto item_size = [&](std::size_t i) {
    const ResourceVec& r = items[i].res;
    return r.lut + r.ff / 2 + r.carry * 4 + r.dsp * 60 + r.bram * 40;
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return item_size(a) > item_size(b); });

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!items[i].fixed) continue;
    // Coordinates outside the region would map to a negative or
    // out-of-range bin index and corrupt usage/item_bin.
    if (!opt.region.contains(items[i].fixed_x, items[i].fixed_y)) {
      throw std::runtime_error(
          "place_sa: fixed item #" + std::to_string(i) + " pinned at (" +
          std::to_string(items[i].fixed_x) + ", " + std::to_string(items[i].fixed_y) +
          ") outside placement region " + opt.region.to_string());
    }
    const int bin = grid.bin_of_tile(opt, items[i].fixed_x, items[i].fixed_y);
    result.item_bin[i] = bin;
    usage[static_cast<std::size_t>(bin)] += items[i].res;
  }
  int cursor = 0;
  for (std::size_t i : order) {
    if (items[i].fixed) continue;
    int chosen = -1;
    for (int attempt = 0; attempt < num_bins; ++attempt) {
      const int bin = (cursor + attempt) % num_bins;
      const ResourceVec tentative = usage[static_cast<std::size_t>(bin)] + items[i].res;
      if (tentative.fits_in(grid.capacity[static_cast<std::size_t>(bin)])) {
        chosen = bin;
        break;
      }
    }
    if (chosen < 0) chosen = cursor % num_bins;  // overfill; annealer fixes it
    result.item_bin[i] = chosen;
    usage[static_cast<std::size_t>(chosen)] += items[i].res;
    cursor = chosen + 1;
  }

  // Item -> nets index.
  std::vector<std::vector<std::int32_t>> item_nets(items.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (std::int32_t item : nets[n].items) {
      item_nets[static_cast<std::size_t>(item)].push_back(static_cast<std::int32_t>(n));
    }
  }

  auto net_hpwl = [&](const PlaceNet& net) {
    int min_x = 1 << 30, max_x = -(1 << 30), min_y = 1 << 30, max_y = -(1 << 30);
    for (std::int32_t item : net.items) {
      const int bin = result.item_bin[static_cast<std::size_t>(item)];
      const int bx = bin % grid.bins_x;
      const int by = bin / grid.bins_x;
      min_x = std::min(min_x, bx);
      max_x = std::max(max_x, bx);
      min_y = std::min(min_y, by);
      max_y = std::max(max_y, by);
    }
    if (net.items.empty()) return 0.0;
    return net.weight * (max_x - min_x + max_y - min_y) * opt.bin_tiles;
  };

  auto bin_penalty = [&](int bin) {
    return overflow_penalty(usage[static_cast<std::size_t>(bin)],
                            grid.capacity[static_cast<std::size_t>(bin)]);
  };

  double hpwl = 0.0;
  for (const PlaceNet& net : nets) hpwl += net_hpwl(net);
  double penalty = 0.0;
  for (int b = 0; b < num_bins; ++b) penalty += bin_penalty(b);
  constexpr double kLambda = 6.0;

  Rng rng(opt.seed);
  std::vector<std::size_t> movable;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!items[i].fixed) movable.push_back(i);
  }
  if (movable.empty() || num_bins == 1) {
    result.final_hpwl = hpwl;
    result.final_cost = hpwl + kLambda * penalty;
    return result;
  }

  const std::size_t total_moves =
      static_cast<std::size_t>(opt.moves_per_item * static_cast<double>(movable.size())) + 1;
  const int stages = 48;
  const std::size_t moves_per_stage = total_moves / stages + 1;

  auto try_move = [&](std::size_t item, int to_bin, double temperature) {
    const int from_bin = result.item_bin[item];
    if (from_bin == to_bin) return false;
    double before = kLambda * (bin_penalty(from_bin) + bin_penalty(to_bin));
    for (std::int32_t n : item_nets[item]) before += net_hpwl(nets[static_cast<std::size_t>(n)]);

    usage[static_cast<std::size_t>(from_bin)] -= items[item].res;
    usage[static_cast<std::size_t>(to_bin)] += items[item].res;
    result.item_bin[item] = to_bin;

    double after = kLambda * (bin_penalty(from_bin) + bin_penalty(to_bin));
    for (std::int32_t n : item_nets[item]) after += net_hpwl(nets[static_cast<std::size_t>(n)]);

    const double dc = after - before;
    if (dc <= 0.0 || rng.next_double() < std::exp(-dc / temperature)) return true;
    usage[static_cast<std::size_t>(to_bin)] -= items[item].res;
    usage[static_cast<std::size_t>(from_bin)] += items[item].res;
    result.item_bin[item] = from_bin;
    return false;
  };

  // Temperature calibration.
  double avg_dc = 1.0;
  {
    double sum = 0.0;
    int samples = 0;
    for (int s = 0; s < 64; ++s) {
      const std::size_t item = movable[rng.next_below(movable.size())];
      const int to_bin = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_bins)));
      const int from_bin = result.item_bin[item];
      if (from_bin == to_bin) continue;
      double before = kLambda * (bin_penalty(from_bin) + bin_penalty(to_bin));
      for (std::int32_t n : item_nets[item])
        before += net_hpwl(nets[static_cast<std::size_t>(n)]);
      usage[static_cast<std::size_t>(from_bin)] -= items[item].res;
      usage[static_cast<std::size_t>(to_bin)] += items[item].res;
      result.item_bin[item] = to_bin;
      double after = kLambda * (bin_penalty(from_bin) + bin_penalty(to_bin));
      for (std::int32_t n : item_nets[item])
        after += net_hpwl(nets[static_cast<std::size_t>(n)]);
      usage[static_cast<std::size_t>(to_bin)] -= items[item].res;
      usage[static_cast<std::size_t>(from_bin)] += items[item].res;
      result.item_bin[item] = from_bin;
      sum += std::abs(after - before);
      ++samples;
    }
    if (samples > 0) avg_dc = std::max(1e-6, sum / samples);
  }
  double temperature = avg_dc / -std::log(kInitialAccept);
  double window = std::max(grid.bins_x, grid.bins_y);

  for (int stage = 0; stage < stages; ++stage) {
    std::size_t accepted = 0;
    for (std::size_t m = 0; m < moves_per_stage; ++m) {
      const std::size_t item = movable[rng.next_below(movable.size())];
      const int from_bin = result.item_bin[item];
      const int fx = from_bin % grid.bins_x;
      const int fy = from_bin / grid.bins_x;
      const int wi = std::max(1, static_cast<int>(window));
      const int tx = std::clamp(fx + static_cast<int>(rng.next_int(-wi, wi)), 0,
                                grid.bins_x - 1);
      const int ty = std::clamp(fy + static_cast<int>(rng.next_int(-wi, wi)), 0,
                                grid.bins_y - 1);
      if (try_move(item, ty * grid.bins_x + tx, temperature)) ++accepted;
      ++result.moves;
    }
    const double accept_rate =
        static_cast<double>(accepted) / static_cast<double>(moves_per_stage);
    temperature *= (accept_rate > 0.5 ? 0.7 : 0.92);
    window = std::max(1.0, window * 0.93);
  }

  // Final greedy descent (zero temperature) pass.
  for (std::size_t i = 0; i < movable.size(); ++i) {
    const std::size_t item = movable[i];
    const int from_bin = result.item_bin[item];
    const int fx = from_bin % grid.bins_x;
    const int fy = from_bin / grid.bins_x;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int tx = std::clamp(fx + dx, 0, grid.bins_x - 1);
        const int ty = std::clamp(fy + dy, 0, grid.bins_y - 1);
        try_move(item, ty * grid.bins_x + tx, 1e-9);
      }
    }
  }

  hpwl = 0.0;
  for (const PlaceNet& net : nets) hpwl += net_hpwl(net);
  penalty = 0.0;
  for (int b = 0; b < num_bins; ++b) penalty += bin_penalty(b);
  result.final_hpwl = hpwl;
  result.final_cost = hpwl + kLambda * penalty;
  return result;
}

Clustering cluster_netlist(const Netlist& netlist, int target_size) {
  Clustering clustering;
  clustering.cell_cluster.assign(netlist.cell_count(), -1);
  if (target_size <= 1) {
    for (std::size_t c = 0; c < netlist.cell_count(); ++c) {
      clustering.cell_cluster[c] = static_cast<std::int32_t>(c);
    }
    clustering.num_clusters = netlist.cell_count();
    return clustering;
  }

  constexpr std::size_t kFanoutCap = 16;  // skip broadcast nets when walking
  std::int32_t next_cluster = 0;
  std::vector<CellId> frontier;
  for (CellId seed = 0; seed < netlist.cell_count(); ++seed) {
    if (clustering.cell_cluster[seed] != -1) continue;
    int count = 0;
    frontier.clear();
    frontier.push_back(seed);
    clustering.cell_cluster[seed] = next_cluster;
    while (!frontier.empty() && count < target_size) {
      const CellId c = frontier.back();
      frontier.pop_back();
      ++count;
      const Cell& cell = netlist.cell(c);
      auto visit_net = [&](NetId n) {
        if (n == kInvalidNet) return;
        const Net& net = netlist.net(n);
        if (net.sinks.size() > kFanoutCap) return;
        auto visit_cell = [&](CellId other) {
          if (count + static_cast<int>(frontier.size()) >= target_size) return;
          if (clustering.cell_cluster[other] == -1) {
            clustering.cell_cluster[other] = next_cluster;
            frontier.push_back(other);
          }
        };
        if (net.driver != kInvalidCell) visit_cell(net.driver);
        for (const auto& [sink, pin] : net.sinks) visit_cell(sink);
      };
      for (NetId in : cell.inputs) visit_net(in);
      for (NetId out : cell.outputs) visit_net(out);
    }
    // Anything left in the frontier already carries this cluster id.
    ++next_cluster;
  }
  clustering.num_clusters = static_cast<std::size_t>(next_cluster);
  return clustering;
}

void build_place_model(const Netlist& netlist, const Clustering& clustering,
                       std::vector<PlaceItem>& items, std::vector<PlaceNet>& nets) {
  items.assign(clustering.num_clusters, PlaceItem{});
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    items[static_cast<std::size_t>(clustering.cell_cluster[c])].res +=
        Netlist::cell_footprint(netlist.cell(c));
  }
  nets.clear();
  std::vector<std::int32_t> scratch;
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const Net& net = netlist.net(n);
    scratch.clear();
    if (net.driver != kInvalidCell) {
      scratch.push_back(clustering.cell_cluster[net.driver]);
    }
    for (const auto& [sink, pin] : net.sinks) {
      scratch.push_back(clustering.cell_cluster[sink]);
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch.size() < 2) continue;
    PlaceNet pnet;
    pnet.items = scratch;
    // Very wide nets (clock-enable style broadcasts) get damped weight so
    // they do not dominate HPWL.
    pnet.weight = scratch.size() > 8 ? 0.25 : 1.0;
    nets.push_back(std::move(pnet));
  }
}

void assign_cells_to_tiles(const Device& device, const Netlist& netlist,
                           const Clustering& clustering, const SaResult& placement,
                           const SaOptions& opt, PhysState& phys) {
  phys.resize_for(netlist);

  // Remaining capacity per tile in the region.
  const int rw = opt.region.width();
  const int rh = opt.region.height();
  std::vector<ResourceVec> remaining(static_cast<std::size_t>(rw) * rh);
  for (int x = 0; x < rw; ++x) {
    for (int y = 0; y < rh; ++y) {
      const int gx = opt.region.x0 + x;
      const int gy = opt.region.y0 + y;
      if (device.in_bounds(gx, gy)) {
        remaining[static_cast<std::size_t>(y) * rw + x] = device.tile_capacity(gx, gy);
      }
    }
  }
  auto rem_at = [&](int gx, int gy) -> ResourceVec& {
    return remaining[static_cast<std::size_t>(gy - opt.region.y0) * rw + (gx - opt.region.x0)];
  };

  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    const ResourceVec need = Netlist::cell_footprint(cell);
    const int bin = placement.item_bin[static_cast<std::size_t>(
        clustering.cell_cluster[c])];
    const TileCoord center = placement.bin_center(opt, bin);
    if (need.is_zero()) {
      phys.cell_loc[c] = TileCoord{std::clamp(center.x, opt.region.x0, opt.region.x1),
                                   std::clamp(center.y, opt.region.y0, opt.region.y1)};
      continue;
    }
    // A wide macro-cell (24-bit register, carry chain) spans several
    // adjacent tiles: take capacity from an expanding ring around the bin
    // center and anchor the cell at the first contributing tile.
    ResourceVec left = need;
    TileCoord anchor = kUnplaced;
    const int max_radius = std::max(device.width(), device.height());
    for (int radius = 0; radius <= max_radius && !left.is_zero(); ++radius) {
      const int x_lo = std::max(opt.region.x0, center.x - radius);
      const int x_hi = std::min({opt.region.x1, device.width() - 1, center.x + radius});
      const int y_lo = std::max(opt.region.y0, center.y - radius);
      const int y_hi = std::min({opt.region.y1, device.height() - 1, center.y + radius});
      for (int gx = x_lo; gx <= x_hi && !left.is_zero(); ++gx) {
        for (int gy = y_lo; gy <= y_hi && !left.is_zero(); ++gy) {
          // Only the ring boundary (interior was covered at lower radii).
          if (radius > 0 && gx != x_lo && gx != x_hi && gy != y_lo && gy != y_hi) continue;
          ResourceVec& have = rem_at(gx, gy);
          ResourceVec take{std::min(left.lut, have.lut), std::min(left.ff, have.ff),
                           std::min(left.carry, have.carry), std::min(left.dsp, have.dsp),
                           std::min(left.bram, have.bram)};
          if (take.is_zero()) continue;
          have -= take;
          left -= take;
          if (anchor == kUnplaced) anchor = TileCoord{gx, gy};
        }
      }
    }
    if (!left.is_zero()) {
      throw std::runtime_error("assign_cells_to_tiles: region out of capacity for cell '" +
                               cell.name + "' (needs " + need.to_string() + ", short " +
                               left.to_string() + ")");
    }
    phys.cell_loc[c] = anchor;
  }
}

}  // namespace fpgasim
