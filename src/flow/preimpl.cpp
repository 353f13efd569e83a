#include "flow/preimpl.h"

#include <iterator>
#include <stdexcept>

#include "flow/build.h"
#include "sim/compiled.h"
#include "util/log.h"
#include "util/timer.h"

namespace fpgasim {

PreImplReport run_preimpl_flow(const Device& device, const ComponentGraph& graph,
                               ComposedDesign& out, const PreImplOptions& opt) {
  if (graph.nodes.empty()) throw std::invalid_argument("run_preimpl_flow: empty graph");
  const int output_node =
      graph.output_node >= 0 ? graph.output_node : static_cast<int>(graph.nodes.size()) - 1;
  PreImplReport report;
  Stopwatch total;
  CpuStopwatch total_cpu;

  // DRC gate: verifies the design between stages and throws on errors.
  const auto drc_gate = [&](unsigned stages, DrcReport& into, const char* where) {
    if (!opt.drc) return;
    Stopwatch watch;
    DrcContext ctx;
    ctx.netlist = &out.netlist;
    ctx.phys = &out.phys;
    ctx.device = &device;
    ctx.instances = out.drc_instances();
    ctx.channel_capacity = opt.route.channel_capacity;
    into = run_drc(ctx, stages, opt.drc_options);
    report.drc_seconds += watch.seconds();
    enforce_drc(into, where);
  };

  // Architecture composition: fill black boxes, insert the stream nets.
  Stopwatch stage;
  Composer composer("preimpl_top");
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const Checkpoint* node = graph.nodes[i];
    composer.add_instance(*node,
                          i < graph.names.size() ? graph.names[i]
                                                 : "inst" + std::to_string(i),
                          i);
    report.function_opt_seconds += node->meta.implement_seconds;
    if (node->meta.fmax_mhz > 0.0 &&
        (report.slowest_component_mhz == 0.0 ||
         node->meta.fmax_mhz < report.slowest_component_mhz)) {
      report.slowest_component_mhz = node->meta.fmax_mhz;
      report.slowest_component = node->netlist.name();
    }
  }
  for (const StreamEdge& e : graph.edges) {
    composer.connect(e.from, e.to, e.to_port, e.from_port);
  }
  composer.expose_input(graph.input_node);
  composer.expose_output(output_node);
  out = std::move(composer).finish();
  report.stitch_seconds = stage.seconds();
  drc_gate(kDrcStructural, report.drc_compose, "preimpl after compose");

  // Component placement: relocation of locked pblocks (Algorithm 1).
  stage.restart();
  MacroPlaceOptions macro_opt = opt.macro;
  macro_opt.seed = opt.seed;
  report.macro = place_macros(device, out.macro_items(), out.macro_nets, macro_opt);
  if (!report.macro.success) {
    throw std::runtime_error("pre-implemented flow: " + report.macro.error);
  }
  for (std::size_t i = 0; i < out.instances.size(); ++i) {
    out.translate_instance(i, report.macro.offsets[i].first,
                           report.macro.offsets[i].second);
  }
  report.place_seconds = stage.seconds();
  LOG_DEBUG("preimpl place: %s", report.macro.stats.summary().c_str());
  drc_gate(kDrcStructural | kDrcPlacement, report.drc_place, "preimpl after placement");

  // Inter-component routing: only the stitched nets are open; everything
  // inside the components is locked and merely charges wire usage.
  stage.restart();
  RouteOptions route_opt = opt.route;
  route_opt.seed = opt.seed;
  report.route = route_design(device, out.netlist, out.phys, route_opt);
  if (!report.route.success) {
    throw std::runtime_error("pre-implemented flow: routing failed: " + report.route.error);
  }
  report.route_seconds = stage.seconds();
  LOG_DEBUG("preimpl route: %zu nets, %d iterations [%s]", report.route.nets_routed,
            report.route.iterations, report.route.iteration_summary().c_str());
  drc_gate(kDrcStructural | kDrcPlacement | kDrcRouting, report.drc, "preimpl after routing");

  if (opt.lint) {
    // fpgalint gate: dataflow analysis over the final composed netlist,
    // stitch-boundary aware through the instance ranges.
    stage.restart();
    lint::LintOptions lint_opt = opt.lint_options;
    lint_opt.instances.clear();
    for (const ComposedDesign::Instance& inst : out.instances) {
      lint_opt.instances.push_back(
          {inst.name, inst.cell_offset, inst.cell_end, inst.net_offset, inst.net_end});
    }
    report.lint = lint::run(out.netlist, lint_opt);
    report.lint_seconds = stage.seconds();
    LOG_DEBUG("preimpl lint: %s (%.3fs wall, %.3fs cpu)", report.lint.summary().c_str(),
              report.lint.wall_seconds, report.lint.cpu_seconds);
    lint::enforce(report.lint, "preimpl after routing");
  }

  if (opt.compiled_verify) {
    // Compiled-verify gate: A/B the final composed netlist through the
    // levelized bit-parallel simulator against the interpreter oracle on
    // a sample of the 64-wide batch. Any bit divergence aborts the flow.
    stage.restart();
    enforce_compiled_match(out.netlist, opt.compiled_verify_cycles, opt.seed, "preimpl");
    report.compiled_verify_seconds = stage.seconds();
    report.compiled_verify_ok = true;
  }

  stage.restart();
  report.timing = run_sta(out.netlist, out.phys, device);
  report.sta_seconds = stage.seconds();

  report.stats = out.netlist.stats();
  report.total_seconds = total.seconds();
  report.total_cpu_seconds = total_cpu.seconds();
  LOG_DEBUG("preimpl '%s': %s, %.2fs online (stitch %.0f%%, place %.2f, route %.2f)",
            out.netlist.name().c_str(), report.timing.summary().c_str(),
            report.total_seconds, report.stitch_fraction() * 100.0, report.place_seconds,
            report.route_seconds);
  return report;
}

PreImplReport run_preimpl_cnn(const Device& device, const CnnModel& model,
                              const ModelImpl& impl,
                              const std::vector<std::vector<int>>& groups,
                              const ComponentLookup& lookup, ComposedDesign& out,
                              const PreImplOptions& opt, std::uint64_t seed_base) {
  // Component extraction + matching (BFS over the DFG): every group and
  // every required stream fork must resolve to a pre-built checkpoint.
  const GroupGraph group_graph = build_group_graph(model, groups);
  const ComponentDfg dfg = expand_group_graph(group_graph);
  ComponentGraph graph;
  for (std::size_t n = 0; n < dfg.nodes.size(); ++n) {
    const ComponentDfg::Node& node = dfg.nodes[n];
    if (node.group_index >= 0) {
      const std::vector<int>& group = groups[static_cast<std::size_t>(node.group_index)];
      const std::string key = group_signature(model, impl, group, seed_base);
      const Checkpoint* checkpoint = lookup(key);
      if (checkpoint == nullptr) {
        // Spell out which layers the unmatched group contains: the
        // signature alone is too opaque to act on.
        std::string layers;
        for (int idx : group) {
          const Layer& layer = model.layers()[static_cast<std::size_t>(idx)];
          if (!layers.empty()) layers += ", ";
          layers += layer.name;
          layers += " (";
          layers += to_string(layer.kind);
          layers += ")";
        }
        throw std::runtime_error("component matching failed for group [" + layers +
                                 "]: no checkpoint for '" + key +
                                 "' (resolve components with CompileService::compile)");
      }
      graph.nodes.push_back(checkpoint);
      graph.names.push_back(checkpoint->netlist.name());
    } else {
      const std::string key = fork_signature(node.branches);
      const Checkpoint* checkpoint = lookup(key);
      if (checkpoint == nullptr) {
        throw std::runtime_error("component matching failed: no checkpoint for the " +
                                 std::to_string(node.branches) + "-way stream fork '" +
                                 key + "' (resolve components with CompileService::compile)");
      }
      graph.nodes.push_back(checkpoint);
      // Fork checkpoints are shared across fan-out sites; suffix the node
      // index so instance names stay unique.
      graph.names.push_back(checkpoint->netlist.name() + "_" + std::to_string(n));
    }
  }
  graph.edges = dfg.edges;
  graph.input_node = dfg.input_node;
  graph.output_node = dfg.output_node;
  return run_preimpl_flow(device, graph, out, opt);
}

}  // namespace fpgasim
