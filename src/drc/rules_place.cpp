// Placement legality rules: physical-state alignment, device bounds,
// pblock containment of relocated instances, instance overlap and
// resource over-subscription.
#include <algorithm>

#include "drc/drc.h"

namespace fpgasim {
namespace drc_detail {

void place_bounds(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const PhysState& phys = *ctx.phys;
  if (phys.cell_loc.size() != nl.cell_count() || phys.routes.size() != nl.net_count()) {
    out.emit("physical state is misaligned with the netlist (" +
             std::to_string(phys.cell_loc.size()) + " locations for " +
             std::to_string(nl.cell_count()) + " cells, " + std::to_string(phys.routes.size()) +
             " routes for " + std::to_string(nl.net_count()) + " nets)");
    return;  // index-based checks below would be unsafe
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const TileCoord loc = phys.cell_loc[c];
    if (loc == kUnplaced) {
      if (nl.cell(c).placement_locked) {
        out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name +
                     "') is placement-locked but unplaced",
                 c);
      }
      continue;
    }
    if (ctx.device != nullptr && !ctx.device->in_bounds(loc.x, loc.y)) {
      out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') is placed at " +
                   to_string(loc) + ", outside the device",
               c);
    }
  }
}

void place_escape(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr || ctx.instances.empty()) return;
  const PhysState& phys = *ctx.phys;
  for (const InstanceRange& inst : ctx.instances) {
    for (CellId c = inst.cell_begin; c < inst.cell_end && c < phys.cell_loc.size(); ++c) {
      const TileCoord loc = phys.cell_loc[c];
      if (loc == kUnplaced) continue;
      if (!inst.footprint.contains(loc.x, loc.y)) {
        out.emit("cell #" + std::to_string(c) + " of instance '" + inst.name +
                     "' is placed at " + to_string(loc) + ", outside its pblock " +
                     inst.footprint.to_string(),
                 c);
      }
    }
  }
}

void place_overlap(const DrcContext& ctx, Emitter& out) {
  for (std::size_t i = 0; i < ctx.instances.size(); ++i) {
    for (std::size_t j = i + 1; j < ctx.instances.size(); ++j) {
      if (ctx.instances[i].footprint.overlaps(ctx.instances[j].footprint)) {
        out.emit("instances '" + ctx.instances[i].name + "' " +
                 ctx.instances[i].footprint.to_string() + " and '" + ctx.instances[j].name +
                 "' " + ctx.instances[j].footprint.to_string() + " overlap");
      }
    }
  }
}

void place_overuse(const DrcContext& ctx, Emitter& out) {
  if (ctx.device == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const ResourceVec total = nl.stats().resources;
  if (!total.fits_in(ctx.device->total())) {
    out.emit("design needs " + total.to_string() + " but device '" + ctx.device->name() +
             "' provides " + ctx.device->total().to_string());
  }
  for (const InstanceRange& inst : ctx.instances) {
    ResourceVec demand;
    for (CellId c = inst.cell_begin; c < inst.cell_end && c < nl.cell_count(); ++c) {
      demand += Netlist::cell_footprint(nl.cell(c));
    }
    const ResourceVec cap = pblock_resources(*ctx.device, inst.footprint);
    if (!demand.fits_in(cap)) {
      out.emit("instance '" + inst.name + "' needs " + demand.to_string() + " but its pblock " +
               inst.footprint.to_string() + " provides " + cap.to_string());
    }
  }
}

void place_tile_crowding(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr || ctx.device == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const PhysState& phys = *ctx.phys;
  if (phys.cell_loc.size() != nl.cell_count()) return;  // reported by place-bounds
  const Device& device = *ctx.device;
  const int w = device.width(), h = device.height();
  // Replays the tile-assignment accounting: every cell takes capacity
  // from an expanding ring around its anchor tile (wide macro-cells
  // legally spread over adjacent tiles). A cell whose footprint cannot
  // be satisfied within tile_spill_radius indicates a crowded region.
  std::vector<ResourceVec> remaining(static_cast<std::size_t>(w) * h);
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) {
      remaining[static_cast<std::size_t>(y) * w + x] = device.tile_capacity(x, y);
    }
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const TileCoord loc = phys.cell_loc[c];
    if (loc == kUnplaced || !device.in_bounds(loc.x, loc.y)) continue;
    ResourceVec left = Netlist::cell_footprint(nl.cell(c));
    if (left.is_zero()) continue;
    for (int radius = 0; radius <= ctx.tile_spill_radius && !left.is_zero(); ++radius) {
      const int x_lo = std::max(0, loc.x - radius), x_hi = std::min(w - 1, loc.x + radius);
      const int y_lo = std::max(0, loc.y - radius), y_hi = std::min(h - 1, loc.y + radius);
      for (int x = x_lo; x <= x_hi && !left.is_zero(); ++x) {
        for (int y = y_lo; y <= y_hi && !left.is_zero(); ++y) {
          if (radius > 0 && x != x_lo && x != x_hi && y != y_lo && y != y_hi) continue;
          ResourceVec& have = remaining[static_cast<std::size_t>(y) * w + x];
          const ResourceVec take{std::min(left.lut, have.lut), std::min(left.ff, have.ff),
                                 std::min(left.carry, have.carry), std::min(left.dsp, have.dsp),
                                 std::min(left.bram, have.bram)};
          if (take.is_zero()) continue;
          have -= take;
          left -= take;
        }
      }
    }
    if (!left.is_zero()) {
      out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') at " +
                   to_string(loc) + " cannot satisfy " + left.to_string() + " within " +
                   std::to_string(ctx.tile_spill_radius) + " tiles of its anchor",
               c);
    }
  }
}

}  // namespace drc_detail
}  // namespace fpgasim
