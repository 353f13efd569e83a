// Shared helpers for the paper-reproduction benchmark harnesses: each
// bench_* binary regenerates one table or figure of the paper on the
// simulated substrate and prints it next to the paper's reported values.
#pragma once

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "sim/compiled.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace fpgasim::bench {

/// The host every BENCH_*.json section records, written into the open
/// object: hardware threads, build type and commit (the last two fixed at
/// CMake configure time; the commit is "unknown" outside git).
inline void write_host_block(JsonWriter& json) {
  json.key("hardware_threads").value(static_cast<int>(std::thread::hardware_concurrency()));
  json.key("build_type").value(FPGASIM_BUILD_TYPE);
  json.key("commit").value(FPGASIM_COMMIT);
}

/// A network's implementation configuration: choose_implementation's DSP
/// budget and feature-map tile.
struct NetworkConfig {
  long dsp_budget;
  int max_tile;
};

/// LeNet's Table III configuration, pinned by Flows.LenetQorIsPinned
/// (1.23x, 105.3 -> 129.9 MHz). Every LeNet bench runs it.
inline constexpr NetworkConfig kLenet{144, 32};

struct NetworkRun {
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  // The pre-implemented components by store key, pinned from the session.
  std::map<std::string, std::shared_ptr<const Checkpoint>> components;
  double function_opt_wall = 0.0;  // component resolution, builds included

  ComposedDesign composed;
  PreImplReport pre;

  MonoReport mono;

  /// The pre-implemented checkpoint of one group.
  const Checkpoint* component(const std::vector<int>& group) const {
    return components.at(group_signature(model, impl, group)).get();
  }
};

/// Compiles the model through a memory-only CompileService (components
/// pre-implemented in parallel on `pool`, the global pool when null) and
/// runs the monolithic flow for comparison.
inline NetworkRun run_network(const Device& device, CnnModel model, long dsp_budget,
                              int max_tile = 28, ThreadPool* pool = nullptr) {
  NetworkRun run;
  run.model = std::move(model);
  run.impl = choose_implementation(run.model, dsp_budget, max_tile);
  run.groups = default_grouping(run.model);

  CheckpointStore store;
  CompileService service(device, store, pool);
  CompileService::SessionResult session = service.compile(run.model, run.impl, run.groups);
  run.function_opt_wall = session.ensure_seconds;
  run.pre = session.report;
  run.composed = std::move(session.design);
  for (const ComponentRequest& request : component_requests(run.model, run.impl, run.groups)) {
    run.components[request.key] = store.get(request.key, device);
    if (!run.components[request.key]) {
      throw std::runtime_error("run_network: '" + request.key + "' left the store cache");
    }
  }

  Netlist flat = build_flat_netlist(run.model, run.impl, run.groups);
  PhysState phys;
  run.mono = run_monolithic_flow(device, flat, phys);
  return run;
}

/// The performance exploration of Table III / Fig. 7, printed from the flow
/// report: each group instance with its component, OOC Fmax, cycles and
/// latency at its own Fmax (in ms when `ms`, else us), then both networks
/// at their achieved clocks, the paper's bound (composed Fmax <= slowest
/// component) and the composed design's critical path. Returns the summed
/// component cycles.
inline long print_perf_table(const std::string& title, const NetworkRun& run, bool ms) {
  const double us_per_unit = ms ? 1000.0 : 1.0;
  Table table(title);
  table.set_header({"instance", "component", "Fmax (MHz)", "cycles",
                    ms ? "latency (ms @ own Fmax)" : "latency (us @ own Fmax)"});
  long total_cycles = 0;
  for (std::size_t g = 0; g < run.groups.size(); ++g) {
    const InstanceRow& row = run.pre.instances[g];
    const ComponentLatency lat = group_latency(run.model, run.impl, run.groups[g], row.fmax_mhz);
    table.add_row({row.instance, row.component, Table::fmt(row.fmax_mhz, 1),
                   std::to_string(lat.cycles), Table::fmt(lat.latency_us() / us_per_unit, 2)});
    total_cycles += lat.cycles;
  }
  for (const auto& [network, mhz] :
       {std::pair{"full network (classic)", run.mono.timing.fmax_mhz},
        std::pair{"our work (pre-implemented)", run.pre.timing.fmax_mhz}}) {
    table.add_row({network, "", Table::fmt(mhz, 1), std::to_string(total_cycles),
                   Table::fmt(total_cycles / mhz / us_per_unit, 2)});
  }
  table.print();
  const InstanceRow& slowest = *run.pre.slowest();
  std::printf("composed Fmax %.1f <= slowest component %s %.1f MHz: %s\n",
              run.pre.timing.fmax_mhz, slowest.instance.c_str(), slowest.fmax_mhz,
              run.pre.timing.fmax_mhz <= slowest.fmax_mhz + 1.0 ? "bound holds"
                                                                : "BOUND VIOLATED");
  std::fputs(format_critical_path(run.pre.timing, run.composed.netlist, run.composed.instances)
                 .c_str(),
             stdout);
  return total_cycles;
}

/// One interpreter-vs-compiled simulator measurement over a final netlist
/// (DESIGN.md §13). Throughput is lane-cycles/second: the interpreter
/// advances one test vector per step, the compiled engine kLanes (64).
struct SimThroughput {
  std::string workload;
  std::size_t cells = 0, nets = 0;
  int cycles = 0;
  double compile_seconds = 0.0;   // one-time Netlist -> plan compilation
  double interp_seconds = 0.0;    // `cycles` cycles, one vector
  double compiled_seconds = 0.0;  // `cycles` cycles, kLanes vectors
  double interp_cps = 0.0;        // interpreter cycles/second
  std::size_t interp_settles = 0;  // total interpreter settle sweeps
  std::size_t in_ports = 0;        // driven input ports per cycle
  double compiled_lane_cps = 0.0; // compiled lane-cycles/second
  double speedup = 0.0;           // compiled_lane_cps / interp_cps
  std::size_t levels = 0, comb_ops = 0, seq_ops = 0, state_words = 0;
  std::uint64_t compiled_cycles = 0;  // SimContext::cycle() after a rep
  std::string ab_diff;                // "" = bit-identical on the A/B check
  int reps = 0;                       // compiled timing repetitions (best-of)
  std::uint64_t plans_compiled = 0;   // SimPlan compilations this measurement
  // Fold of the observed outputs; keeps the timed loops from being
  // dead-code eliminated (never compared: lanes see different stimulus).
  std::uint64_t interp_checksum = 0, compiled_checksum = 0;

  bool ok() const {
    return ab_diff.empty() && compiled_cycles == static_cast<std::uint64_t>(cycles) &&
           plans_compiled == 1;
  }
};

/// Times the interpreter and the compiled simulator on `cycles` cycles of
/// seeded random stimulus over every input port, after first proving them
/// bit-identical on sampled lanes via the A/B oracle. The netlist is
/// compiled into a SimPlan exactly once — the A/B check and every timing
/// repetition reuse it (each rep gets a fresh context; best-of-`reps`
/// wall time is reported) — and the compile counter delta is recorded so
/// ok() can assert the reuse actually happened.
inline SimThroughput measure_sim_throughput(const Netlist& netlist,
                                            const std::string& workload, int cycles,
                                            std::uint64_t seed = 7, int ab_cycles = 12,
                                            int reps = 3) {
  SimThroughput r;
  r.workload = workload;
  r.cells = netlist.cell_count();
  r.nets = netlist.net_count();
  r.cycles = cycles;
  r.reps = reps;

  std::vector<const Port*> ins;
  const Port* first_out = nullptr;
  for (const Port& port : netlist.ports()) {
    if (port.dir == PortDir::kInput) ins.push_back(&port);
    else if (!first_out) first_out = &port;
  }

  const std::uint64_t plans_before = SimPlan::plans_compiled();
  Stopwatch compile_watch;
  const std::shared_ptr<const SimPlan> plan = SimPlan::compile(netlist);
  r.compile_seconds = compile_watch.seconds();
  r.levels = plan->levels();
  r.comb_ops = plan->comb_ops();
  r.seq_ops = plan->seq_ops();
  r.state_words = plan->context_words() + plan->shared_words();
  std::vector<int> in_idx;
  for (const Port* p : ins) in_idx.push_back(plan->input_index(p->name));
  const int out_idx = first_out ? plan->output_index(first_out->name) : -1;

  // Bit-exactness first: the throughput numbers only count if the engines
  // agree on the same workload (same plan — no recompilation).
  static constexpr std::array<int, 3> kAbLanes{0, 31, 63};
  r.ab_diff = compare_compiled_vs_interpreter(netlist, ab_cycles, seed, kAbLanes, plan);

  {
    Simulator sim(netlist);
    Rng rng(seed + 1);
    Stopwatch watch;
    for (int c = 0; c < cycles; ++c) {
      for (const Port* p : ins) sim.set_input(p->name, rng());
      sim.step();
      if (first_out) r.interp_checksum ^= sim.get_output(first_out->name);
    }
    r.interp_seconds = watch.seconds();
    r.interp_settles = sim.settles();
    r.in_ports = ins.size();
  }
  // Compiled side: best-of-`reps` to shed scheduler noise. Every rep
  // replays the identical stimulus on a fresh context of the SAME plan, so
  // checksum and cycle count are rep-invariant.
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    SimContext ctx(plan);
    Rng rng(seed + 1);
    std::array<std::uint64_t, SimPlan::kLanes> lanes;
    std::uint64_t checksum = 0;
    Stopwatch watch;
    for (int c = 0; c < cycles; ++c) {
      for (const int idx : in_idx) {
        for (std::uint64_t& v : lanes) v = rng();
        ctx.set_inputs(idx, lanes);
      }
      ctx.step();
      if (out_idx >= 0) {
        checksum ^= ctx.get_output(out_idx, static_cast<std::size_t>(c) % 64);
      }
    }
    const double secs = watch.seconds();
    if (rep == 0 || secs < r.compiled_seconds) r.compiled_seconds = secs;
    r.compiled_checksum = checksum;
    r.compiled_cycles = ctx.cycle();
  }
  r.plans_compiled = SimPlan::plans_compiled() - plans_before;
  if (r.interp_seconds > 0.0) r.interp_cps = cycles / r.interp_seconds;
  if (r.compiled_seconds > 0.0) {
    r.compiled_lane_cps =
        static_cast<double>(cycles) * SimPlan::kLanes / r.compiled_seconds;
  }
  if (r.interp_cps > 0.0) r.speedup = r.compiled_lane_cps / r.interp_cps;
  return r;
}

inline void print_sim_throughput(const SimThroughput& r) {
  std::printf("sim throughput [%s]: %zu cells, %d cycles | interpreter %.0f cyc/s, "
              "compiled %.0f lane-cyc/s (%zu levels, %zu ops, best of %d reps, "
              "%llu plan compile%s) -> %.1fx%s\n",
              r.workload.c_str(), r.cells, r.cycles, r.interp_cps, r.compiled_lane_cps,
              r.levels, r.comb_ops + r.seq_ops, r.reps,
              static_cast<unsigned long long>(r.plans_compiled),
              r.plans_compiled == 1 ? "" : "s (EXPECTED 1)", r.speedup,
              r.ab_diff.empty() ? "" : "  A/B DIVERGED");
  if (!r.ab_diff.empty()) std::fprintf(stderr, "FAIL %s: %s\n", r.workload.c_str(),
                                       r.ab_diff.c_str());
  // Lazy-settle note: set_input() used to re-settle the whole fabric per
  // call, costing (ports + 1) sweeps/cycle on this stream; the dirty flag
  // makes it 2 (pre-edge + observed post-edge) regardless of port count.
  if (r.cycles > 0) {
    std::printf("  interpreter settles: %zu (%.1f/cycle over %zu input ports; "
                "eager set_input would sweep %zu/cycle)\n",
                r.interp_settles,
                static_cast<double>(r.interp_settles) / r.cycles, r.in_ports,
                r.in_ports + 1);
  }
}

/// Emits one BENCH_sim.json section value for a measurement.
inline void emit_sim_throughput(JsonWriter& json, const SimThroughput& r) {
  json.begin_object();
  json.key("workload").value(r.workload);
  json.key("cells").value(r.cells);
  json.key("nets").value(r.nets);
  json.key("cycles").value(r.cycles);
  json.key("levels").value(r.levels);
  json.key("comb_ops").value(r.comb_ops);
  json.key("seq_ops").value(r.seq_ops);
  json.key("state_words").value(r.state_words);
  json.key("lanes").value(SimPlan::kLanes);
  json.key("compile_seconds").value(r.compile_seconds);
  json.key("interpreter_seconds").value(r.interp_seconds);
  json.key("compiled_seconds").value(r.compiled_seconds);
  json.key("interpreter_cycles_per_sec").value(r.interp_cps);
  json.key("interpreter_settles").value(r.interp_settles);
  json.key("input_ports").value(r.in_ports);
  json.key("compiled_lane_cycles_per_sec").value(r.compiled_lane_cps);
  json.key("speedup").value(r.speedup);
  json.key("bit_identical").value(r.ab_diff.empty());
  json.key("compiled_cycles_run").value(static_cast<std::size_t>(r.compiled_cycles));
  json.key("reps").value(static_cast<std::size_t>(r.reps));
  json.key("plans_compiled").value(static_cast<std::size_t>(r.plans_compiled));
  write_host_block(json);
  json.end_object();
}

inline std::string pct_of(std::int64_t used, std::int64_t total) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld (%.2f%%)", static_cast<long long>(used),
                100.0 * static_cast<double>(used) / static_cast<double>(total));
  return buf;
}

}  // namespace fpgasim::bench
