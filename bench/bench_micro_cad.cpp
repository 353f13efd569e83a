// Micro-benchmarks of the CAD substrate itself (google-benchmark):
// synthesis, clustering, annealing, routing and STA throughput on a
// LeNet-class component. These are the costs behind every row of the
// productivity figures.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "flow/ooc.h"
#include "place/place.h"
#include "route/router.h"
#include "synth/layers.h"
#include "timing/sta.h"
#include "util/json.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

ConvParams bench_conv() {
  ConvParams p;
  p.in_c = 4;
  p.out_c = 8;
  p.kernel = 3;
  p.in_h = 12;
  p.in_w = 12;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  return p;
}

void BM_SynthesizeConv(benchmark::State& state) {
  const ConvParams p = bench_conv();
  for (auto _ : state) {
    Netlist nl = make_conv_component(p, {}, {});
    benchmark::DoNotOptimize(nl.cell_count());
  }
}
BENCHMARK(BM_SynthesizeConv);

void BM_ClusterNetlist(benchmark::State& state) {
  const Netlist nl = make_conv_component(bench_conv(), {}, {});
  for (auto _ : state) {
    Clustering clustering = cluster_netlist(nl, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(clustering.num_clusters);
  }
}
BENCHMARK(BM_ClusterNetlist)->Arg(1)->Arg(16)->Arg(64);

void BM_PlaceSa(benchmark::State& state) {
  const Device device = make_xcku5p_sim();
  const Netlist nl = make_conv_component(bench_conv(), {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, 47, 47};
  opt.moves_per_item = static_cast<double>(state.range(0));
  for (auto _ : state) {
    SaResult result = place_sa(device, items, nets, opt);
    benchmark::DoNotOptimize(result.final_hpwl);
  }
  state.counters["cells"] = static_cast<double>(items.size());
}
BENCHMARK(BM_PlaceSa)->Arg(40)->Arg(160);

void BM_RouteComponent(benchmark::State& state) {
  const Device device = make_xcku5p_sim();
  const Netlist nl = make_conv_component(bench_conv(), {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, 47, 47};
  const SaResult placement = place_sa(device, items, nets, opt);
  PhysState base;
  assign_cells_to_tiles(device, nl, clustering, placement, opt, base);
  for (auto _ : state) {
    PhysState phys = base;
    for (RouteInfo& route : phys.routes) route = RouteInfo{};
    RouteResult result = route_design(device, nl, phys);
    benchmark::DoNotOptimize(result.edges_used);
  }
  state.counters["nets"] = static_cast<double>(nl.net_count());
}
BENCHMARK(BM_RouteComponent);

/// Congested corridor netlist (over channel capacity): exercises the
/// multi-iteration negotiation path of the router, where incremental
/// rip-up and bounding-box batching actually matter.
struct CongestedCorridor {
  Netlist netlist{"corridor"};
  PhysState phys;
  RouteOptions opt;

  CongestedCorridor() {
    auto cell_at = [&](TileCoord loc) {
      Cell c;
      c.type = CellType::kFf;
      const CellId id = netlist.add_cell(std::move(c));
      phys.resize_for(netlist);
      phys.cell_loc[id] = loc;
      return id;
    };
    for (int i = 0; i < 36; ++i) {
      const CellId d = cell_at(TileCoord{2, 8 + i % 8});
      const CellId s = cell_at(TileCoord{20, 8 + i % 8});
      const NetId n = netlist.add_net(1);
      netlist.connect_output(d, 0, n);
      netlist.connect_input(s, 0, n);
    }
    opt.channel_capacity = 3;
    opt.max_iterations = 80;
    opt.history_factor = 0.8;
  }
};

void BM_RouteCongested(benchmark::State& state) {
  const Device device = make_tiny_device();
  CongestedCorridor fixture;
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  RouteOptions opt = fixture.opt;
  opt.pool = &pool;
  int iterations = 0;
  for (auto _ : state) {
    PhysState phys = fixture.phys;
    RouteResult result = route_design(device, fixture.netlist, phys, opt);
    iterations = result.iterations;
    benchmark::DoNotOptimize(result.edges_used);
  }
  state.counters["negotiation_iters"] = iterations;
}
BENCHMARK(BM_RouteCongested)->Arg(1)->Arg(4);

void BM_StaComponent(benchmark::State& state) {
  const Device device = make_xcku5p_sim();
  const Netlist nl = make_conv_component(bench_conv(), {}, {});
  PhysState phys;
  phys.resize_for(nl);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    phys.cell_loc[c] = TileCoord{static_cast<int>(c % 40), static_cast<int>(c / 40 % 40)};
  }
  for (auto _ : state) {
    TimingResult result = run_sta(nl, phys, device);
    benchmark::DoNotOptimize(result.fmax_mhz);
  }
}
BENCHMARK(BM_StaComponent);

void BM_OocComponent(benchmark::State& state) {
  const Device device = make_xcku5p_sim();
  OocOptions opt;
  opt.strategies = 1;
  for (auto _ : state) {
    OocResult result = implement_ooc(device, make_conv_component(bench_conv(), {}, {}), opt);
    benchmark::DoNotOptimize(result.timing.fmax_mhz);
  }
}
BENCHMARK(BM_OocComponent);

/// Machine-readable routing numbers for the perf trajectory across PRs:
/// the congested corridor at 1 and 4 threads, incremental vs full rip-up.
void write_route_json() {
  const Device device = make_tiny_device();
  CongestedCorridor fixture;
  JsonWriter json;
  json.begin_object();
  auto sample = [&](const char* name, int width, bool incremental) {
    ThreadPool pool(static_cast<std::size_t>(width));
    RouteOptions opt = fixture.opt;
    opt.pool = &pool;
    opt.incremental = incremental;
    RouteResult best;
    double best_wall = 0.0, best_cpu = 0.0;
    for (int r = 0; r < 3; ++r) {
      PhysState phys = fixture.phys;
      const Stopwatch wall;
      const CpuStopwatch cpu;
      RouteResult result = route_design(device, fixture.netlist, phys, opt);
      const double wall_s = wall.seconds(), cpu_s = cpu.seconds();
      if (r == 0 || wall_s < best_wall) {
        best = std::move(result);
        best_wall = wall_s;
        best_cpu = cpu_s;
      }
    }
    json.key(name).begin_object();
    json.key("wall_s").value(best_wall);
    json.key("cpu_s").value(best_cpu);
    json.key("iterations").value(best.iterations);
    json.key("nets_routed").value(best.nets_routed);
    json.key("max_overuse").value(best.max_overuse);
    json.key("rerouted_per_iteration").begin_array();
    for (const RouteIterationStats& s : best.iteration_stats) json.value(s.nets_rerouted);
    json.end_array();
    json.end_object();
  };
  sample("congested_serial", 1, true);
  sample("congested_threads4", 4, true);
  sample("congested_full_ripup", 1, false);
  json.end_object();
  if (update_json_file("BENCH_route.json", "micro_cad", json.str())) {
    std::puts("wrote BENCH_route.json (micro_cad section)");
  }
}

}  // namespace
}  // namespace fpgasim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fpgasim::write_route_json();
  return 0;
}
