// Checkpoint integrity rules: partition pins on the pblock boundary and
// meta/device/physical-state consistency of a serialized component.
#include <cmath>

#include "drc/drc.h"

namespace fpgasim {
namespace drc_detail {

void cp_pins(const DrcContext& ctx, Emitter& out) {
  if (ctx.checkpoint == nullptr) return;
  const Checkpoint& cp = *ctx.checkpoint;
  const std::size_t num_ports = cp.netlist.ports().size();
  if (cp.port_pins.empty()) {
    if (num_ports > 0) {
      out.emit(Severity::kInfo,
               "checkpoint '" + cp.netlist.name() + "' records no partition pin plan");
    }
    return;
  }
  if (cp.port_pins.size() != num_ports) {
    out.emit(Severity::kError, "checkpoint '" + cp.netlist.name() + "' records " +
                                   std::to_string(cp.port_pins.size()) +
                                   " partition pins for " + std::to_string(num_ports) +
                                   " ports");
    return;
  }
  const Pblock& pb = cp.pblock;
  for (std::size_t p = 0; p < cp.port_pins.size(); ++p) {
    const TileCoord pin = cp.port_pins[p];
    const bool inside = pb.contains(pin.x, pin.y);
    const bool on_boundary =
        inside && (pin.x == pb.x0 || pin.x == pb.x1 || pin.y == pb.y0 || pin.y == pb.y1);
    if (!on_boundary) {
      out.emit("partition pin of port '" + cp.netlist.ports()[p].name + "' at (" +
               std::to_string(pin.x) + "," + std::to_string(pin.y) + ") is " +
               (inside ? "inside" : "outside") + " pblock " + pb.to_string() +
               " instead of on its boundary");
    }
  }
}

void cp_meta(const DrcContext& ctx, Emitter& out) {
  if (ctx.checkpoint == nullptr) return;
  const Checkpoint& cp = *ctx.checkpoint;
  const std::string name = "checkpoint '" + cp.netlist.name() + "'";
  if (cp.phys.cell_loc.size() != cp.netlist.cell_count() ||
      cp.phys.routes.size() != cp.netlist.net_count()) {
    out.emit(name + " physical state is misaligned with its netlist");
  }
  if (cp.pblock.width() <= 0 || cp.pblock.height() <= 0) {
    out.emit(name + " has a degenerate pblock " + cp.pblock.to_string());
  }
  if (!std::isfinite(cp.meta.fmax_mhz) || cp.meta.fmax_mhz < 0.0 ||
      !std::isfinite(cp.meta.critical_path_ns) || cp.meta.critical_path_ns < 0.0) {
    out.emit(name + " records non-finite or negative QoR");
  } else if (cp.meta.fmax_mhz > 0.0 && cp.meta.critical_path_ns > 0.0) {
    const double implied = 1000.0 / cp.meta.critical_path_ns;
    const double err = std::abs(implied - cp.meta.fmax_mhz) / cp.meta.fmax_mhz;
    if (err > 0.05) {
      out.emit(Severity::kWarning, name + " Fmax " + std::to_string(cp.meta.fmax_mhz) +
                                       " MHz disagrees with its " +
                                       std::to_string(cp.meta.critical_path_ns) +
                                       " ns critical path");
    }
  }
  if (ctx.device != nullptr) {
    if (!cp.meta.device.empty() && cp.meta.device != ctx.device->name()) {
      out.emit(name + " was implemented for device '" + cp.meta.device +
               "' but is being used on '" + ctx.device->name() + "'");
    }
    if (!ctx.device->in_bounds(cp.pblock.x0, cp.pblock.y0) ||
        !ctx.device->in_bounds(cp.pblock.x1, cp.pblock.y1)) {
      out.emit(name + " pblock " + cp.pblock.to_string() + " exceeds device '" +
               ctx.device->name() + "' bounds");
    }
  }
}

}  // namespace drc_detail
}  // namespace fpgasim
