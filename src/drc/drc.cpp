#include "drc/drc.h"

#include <stdexcept>

#include "netlist/structure.h"

namespace fpgasim {
namespace {

/// A structural rule is one netlist/structure.h property check, shared
/// with lint and Netlist::validate().
template <StructuralCheck Check>
void structural(const DrcContext& ctx, Emitter& out) {
  out.emit(Check(*ctx.netlist));
}

}  // namespace

const std::vector<DrcRule>& drc_rules() {
  using namespace drc_detail;
  using enum Severity;
  static const std::vector<DrcRule> rules = {
      // Netlist structure.
      {"net-driver", "every net has exactly one consistent driver", kDrcStructural, kError,
       structural<check_drivers>},
      {"net-dangling", "no undriven inputs, dangling sink references or missing required pins",
       kDrcStructural, kError, structural<check_sinks>},
      {"net-width", "bus widths agree across net connections", kDrcStructural, kError,
       structural<check_widths>},
      {"comb-loop", "no combinational cycles through LUT/ADD/MAX/RELU logic", kDrcStructural,
       kError, structural<check_comb_loops>},
      {"net-dead", "no orphaned nets (typically left behind by alias_net)", kDrcStructural,
       kWarning, structural<check_orphans>},
      // Placement legality (rules_place.cpp).
      {"place-bounds",
       "physical state aligned with the netlist; placed cells in bounds; locked cells placed",
       kDrcPlacement, kError, place_bounds},
      {"place-escape", "cells of a relocated instance stay inside its pblock footprint",
       kDrcPlacement, kError, place_escape},
      {"place-overlap", "locked instance pblocks do not overlap", kDrcPlacement, kError,
       place_overlap},
      {"place-overuse", "aggregate cell footprints fit their pblock / device resources",
       kDrcPlacement, kError, place_overuse},
      {"place-tile-crowding", "per-tile demand is satisfiable within the legal spill radius",
       kDrcPlacement, kWarning, place_tile_crowding},
      // Routing legality (rules_route.cpp).
      {"route-overuse", "per-edge channel usage stays within the wire capacity", kDrcRouting,
       kWarning, route_overuse},
      {"route-locked-conflict",
       "locked routes of distinct pre-implemented instances do not oversubscribe an edge",
       kDrcRouting, kError, route_locked_conflict},
      {"route-escape", "locked instance-internal routes stay inside the instance pblock",
       kDrcRouting, kError, route_escape},
      {"route-endpoints", "route trees are well-formed and reach every placed net terminal",
       kDrcRouting, kError, route_endpoints},
      // Checkpoint integrity (rules_checkpoint.cpp).
      {"cp-pins", "partition pins are planned on the pblock boundary", kDrcCheckpoint,
       kWarning, cp_pins},
      {"cp-meta", "checkpoint meta, pblock and physical state are mutually consistent",
       kDrcCheckpoint, kError, cp_meta},
  };
  return rules;
}

FindingsReport run_drc(const DrcContext& ctx, unsigned stages, const CheckOptions& opt) {
  if (ctx.netlist == nullptr) {
    throw std::invalid_argument("run_drc: context has no netlist");
  }
  FindingsReport report("DRC", ctx.netlist->name());
  Emitter out(report, opt);
  for (const DrcRule& rule : drc_rules()) {
    if ((rule.stages & stages) == 0) continue;
    out.rule(rule.id, rule.severity);
    rule.check(ctx, out);
  }
  return report;
}

FindingsReport run_structural_drc(const Netlist& netlist, const CheckOptions& opt) {
  DrcContext ctx;
  ctx.netlist = &netlist;
  return run_drc(ctx, kDrcStructural, opt);
}

FindingsReport run_checkpoint_drc(const Checkpoint& checkpoint, const Device* device,
                                  const CheckOptions& opt) {
  DrcContext ctx;
  ctx.netlist = &checkpoint.netlist;
  ctx.phys = &checkpoint.phys;
  ctx.device = device;
  ctx.checkpoint = &checkpoint;
  // The whole checkpoint is one instance confined to its pblock: the
  // placement/routing containment rules then express relocation legality.
  ctx.instances.push_back({checkpoint.netlist.name(), checkpoint.pblock, 0,
                           static_cast<CellId>(checkpoint.netlist.cell_count()), 0,
                           static_cast<NetId>(checkpoint.netlist.net_count())});
  return run_drc(ctx, kDrcAllStages, opt);
}

}  // namespace fpgasim
