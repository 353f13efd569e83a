// zoobench: one end-to-end and per-layer benchmark of the model zoo.
//
// Every run sets up the same fixture and then runs three phases, each a
// closed loop with one client:
//   compile   arch-def text -> parse/choose/group -> CompileService::compile
//             -> SimPlan::compile, for all 7 zoo models, first cold into a
//             fresh memory-only store, then warm against the filled store;
//   classify  64 distinct images per model through one SimContext, driving
//             the stream handshake cycle by cycle; every lane is checked
//             against reference_inference (vgg16 excluded: one pass is
//             ~11M cycles);
//   serve     round-robin InferenceEngine::serve() requests, one engine
//             per zoo model, interpreter audit on.
// The workload named by --workload runs its phase for --seconds; the other
// two run a fixed quota of rounds spread evenly between its rounds, so every
// end-to-end metric is measured on every workload, over the whole run, while
// the named phase dominates the run. With --trace 1 the
// same run records spans around every library call (see trace.h) and
// reports per-layer metrics instead. README.md lists the metrics, the
// layer each one belongs to and the end-to-end metric it should move.
//
// Usage: zoobench --workload compile|classify|serve --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR] [--commit ID] [--inject-fault]
// The last line of stdout is the result object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "cnn/zoo.h"
#include "fabric/device.h"
#include "flow/build.h"
#include "flow/ooc.h"
#include "flow/preimpl.h"
#include "flow/service.h"
#include "flow/store.h"
#include "sim/compiled.h"
#include "sim/engine/engine.h"
#include "trace.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#ifndef ZOOBENCH_BUILD_TYPE
#define ZOOBENCH_BUILD_TYPE "unknown"
#endif

namespace zoobench {
namespace {

using namespace fpgasim;

constexpr std::size_t kLanes = SimPlan::kLanes;  // one image per lane
constexpr int kSetupReps = 3;                    // setup_s is their median
constexpr std::size_t kServeContexts = 2;        // per engine
constexpr std::uint64_t kServeVectors = 4 * 32 * kLanes;  // 4 batches/request
constexpr int kCompileQuotaRounds = 2;   // when compile is not the workload
constexpr int kClassifyQuotaRounds = 3;  // when classify is not the workload
constexpr int kServeQuotaRounds = 15;    // when serve is not the workload
constexpr std::size_t kStoreCacheBytes = std::size_t{256} << 20;
constexpr long kClassifyGuardCycles = 2000000;
constexpr std::uint64_t kRotateCycles = 256;  // classify cycles per CPU visit
constexpr const char* kNoClassify = "vgg16";

enum class Phase { kCompile, kClassify, kServe };
constexpr const char* kPhaseNames[] = {"compile", "classify", "serve"};

struct Options {
  Phase workload = Phase::kCompile;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_fault = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a ^ (b * 0x9e3779b97f4a7c15ULL));
  return rng();
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Highest whole percentile with at least ten samples beyond it, and the
/// nearest-rank value at it.
std::pair<int, double> tail_percentile(std::vector<double> v) {
  if (v.empty()) return {0, 0.0};
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const int pct = std::clamp(static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n))), 50, 99);
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return {pct, v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]};
}

// -- the zoo as arch-def texts ----------------------------------------------

struct ZooModel {
  const ZooEntry* entry = nullptr;
  std::string name;
  /// to_arch_def of the zoo topology, the compile input; empty when the
  /// text does not parse back to the same model (vgg16's 'same'-padding
  /// shapes are assigned by construction, the text format infers valid
  /// padding), and the front end then calls the zoo constructor.
  std::string text;
};

std::vector<ZooModel> zoo_models() {
  std::vector<ZooModel> zoo;
  for (const ZooEntry& entry : model_zoo()) {
    const CnnModel model = entry.make();
    std::string text = to_arch_def(model);
    bool round_trips = false;
    try {
      round_trips = parse_arch_def(text) == model;
    } catch (const std::exception&) {
    }
    zoo.push_back({&entry, entry.name, round_trips ? std::move(text) : std::string()});
  }
  return zoo;
}

struct FrontEnd {
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
};

/// Model, per-layer implementation and component grouping of one zoo entry.
FrontEnd front_end(const ZooModel& zm) {
  Span s("cnn.frontend");
  FrontEnd f;
  f.model = zm.text.empty() ? zm.entry->make() : parse_arch_def(zm.text);
  f.impl = choose_implementation(f.model, zm.entry->dsp_budget, zm.entry->max_tile);
  f.groups = default_grouping(f.model);
  return f;
}

// -- per-model deterministic record ------------------------------------------

/// Results a repetition must reproduce exactly. The first value seen pins
/// each field; any later disagreement fails the run.
struct ModelRecord {
  std::string design_fingerprint;
  double fmax_mhz = 0.0;
  ResourceVec resources;
  std::uint64_t engine_fingerprint = 0;
  std::uint64_t cycles_per_image = 0;
  std::size_t context_bytes = 0;
};

class Record {
 public:
  ModelRecord& at(const std::string& model) { return models_[model]; }
  const std::map<std::string, ModelRecord>& models() const { return models_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

  template <typename T>
  void pin(const std::string& model, const char* field, T& slot, const T& value) {
    if (slot == T{}) {
      slot = value;
    } else if (!(slot == value)) {
      mismatches_.push_back(model + "." + field + " changed between repetitions");
    }
  }

 private:
  std::map<std::string, ModelRecord> models_;
  std::vector<std::string> mismatches_;
};

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

using PerModel = std::map<std::string, std::vector<double>>;  // operation seconds

/// Timed samples of one run. Rates are built from medians, so a short
/// burst of host noise moves a few samples, not the metric.
struct Samples {
  // Summed operation seconds of each cold / warm pass over the zoo. Per
  // pass, not per model: which model builds a shared component first
  // depends on the seeded order.
  std::vector<double> cold, warm;
  PerModel pass;        // one classify pass (kLanes images)
  PerModel request;     // one serve request (kServeVectors vectors)
  std::vector<double> setup_seconds;
  OpCount counts[3];  // by Phase
  OpCount& count(Phase p) { return counts[static_cast<int>(p)]; }
};

// -- compile -----------------------------------------------------------------

struct Compiled {
  std::string name;
  CnnModel model;
  std::unique_ptr<ComposedDesign> design;  // stable address: engines keep a reference
  PreImplReport report;
  std::shared_ptr<const SimPlan> plan;
};

/// One compile operation: front end, compile session, plan compile.
/// Throws on any failure (including a non-clean DRC gate).
Compiled compile_model(const ZooModel& zm, CompileService& service, bool cold) {
  Span op(cold ? "compile.cold" : "compile.warm");
  FrontEnd f = front_end(zm);
  CompileService::SessionResult session;
  {
    Span s(cold ? "flow.service.cold" : "flow.service.warm");
    session = service.compile(f.model, f.impl, f.groups);
  }
  tracer().count("flow.service.built", static_cast<double>(session.built));
  tracer().count("flow.service.store_hits", static_cast<double>(session.store_hits));
  tracer().count("flow.service.dedup_waits", static_cast<double>(session.dedup_waits));
  const PreImplReport& r = session.report;
  if (!r.drc_compose.clean() || !r.drc_place.clean() || !r.drc.clean()) {
    throw std::runtime_error(zm.name + ": composed design is not DRC-clean: " + r.drc.summary());
  }
  Compiled c;
  c.name = zm.name;
  c.model = std::move(f.model);
  c.design = std::make_unique<ComposedDesign>(std::move(session.design));
  c.report = session.report;
  {
    Span s("sim.plan_compile");
    c.plan = SimPlan::compile(c.design->netlist);
  }
  tracer().count("sim.plan_ops", static_cast<double>(c.plan->comb_ops() + c.plan->seq_ops()));
  tracer().count("sim.plan_levels", static_cast<double>(c.plan->levels()));
  return c;
}

struct CompileRound {
  std::vector<Compiled> warm;  // in zoo order
  double fingerprint_seconds = 0.0;
};

/// Compiles the zoo cold into a fresh memory-only store, then warm
/// against the filled store, in a seeded model order. Pins each model's
/// design fingerprint, Fmax and resources from both passes.
CompileRound compile_round(const std::vector<ZooModel>& zoo, const Device& device, Rng& order_rng,
                           Record& record, Samples& samples) {
  StoreOptions store_opt;
  store_opt.cache_bytes = kStoreCacheBytes;
  CheckpointStore store(store_opt);
  CompileService service(device, store);
  CompileRound round;
  round.warm.resize(zoo.size());
  OpCount& count = samples.count(Phase::kCompile);
  const std::vector<std::size_t> order = permutation(zoo.size(), order_rng);
  for (const bool cold : {true, false}) {
    double pass_seconds = 0.0;
    for (const std::size_t m : order) {
      ++count.attempted;
      tracer().begin_op();
      Compiled c;
      try {
        Stopwatch watch;
        c = compile_model(zoo[m], service, cold);
        pass_seconds += watch.seconds();
      } catch (const std::exception& e) {
        ++count.failed;
        std::fprintf(stderr, "zoobench: compile %s failed: %s\n", zoo[m].name.c_str(), e.what());
        continue;
      }
      // Checks stay outside the timed operation.
      Stopwatch fp_watch;
      ModelRecord& rec = record.at(c.name);
      record.pin(c.name, "design_fingerprint", rec.design_fingerprint,
                 design_fingerprint(*c.design));
      record.pin(c.name, "fmax_mhz", rec.fmax_mhz, c.report.timing.fmax_mhz);
      record.pin(c.name, "resources", rec.resources, c.report.stats.resources);
      round.fingerprint_seconds += fp_watch.seconds();
      if (!cold) round.warm[m] = std::move(c);
    }
    (cold ? samples.cold : samples.warm).push_back(pass_seconds);
  }
  const StoreStats st = store.stats();
  tracer().count("flow.store.hits", static_cast<double>(st.hits));
  tracer().count("flow.store.misses", static_cast<double>(st.misses));
  tracer().count("flow.store.evictions", static_cast<double>(st.evictions));
  tracer().count("flow.store.cache_bytes", static_cast<double>(st.cache_bytes));
  tracer().count("compile.rounds", 1.0);
  return round;
}

// -- classify ----------------------------------------------------------------

struct ClassifyTarget {
  const Compiled* compiled = nullptr;
  std::unique_ptr<SimContext> ctx;
  std::size_t in_words = 0, out_words = 0;
  std::vector<std::uint64_t> inputs;    // word-major: [word * kLanes + lane]
  std::vector<std::uint64_t> expected;  // word-major, 16-bit raw
  int in_data = 0, in_valid = 0, out_ready = 0, in_ready = 0, out_valid = 0, out_data = 0;
};

ClassifyTarget make_classify_target(const Compiled& c, std::uint64_t seed) {
  ClassifyTarget t;
  t.compiled = &c;
  const Shape shape = c.model.layers().front().out_shape;
  t.in_words = static_cast<std::size_t>(shape.volume());
  t.inputs.assign(t.in_words * kLanes, 0);
  Rng rng(seed);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    Tensor image = Tensor::zeros(shape.c, shape.h, shape.w);
    for (Fixed16& v : image.data) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-50, 50)));
    }
    for (std::size_t w = 0; w < t.in_words; ++w) {
      t.inputs[w * kLanes + lane] = static_cast<std::uint16_t>(image.data[w].raw);
    }
    std::vector<Fixed16> want;
    {
      Span s("cnn.golden");
      want = reference_inference(c.model, image);
    }
    if (lane == 0) {
      t.out_words = want.size();
      t.expected.assign(t.out_words * kLanes, 0);
    }
    for (std::size_t w = 0; w < t.out_words; ++w) {
      t.expected[w * kLanes + lane] = static_cast<std::uint16_t>(want[w].raw);
    }
  }
  t.ctx = std::make_unique<SimContext>(c.plan);
  const SimPlan& plan = *c.plan;
  t.in_data = plan.input_index("in_data");
  t.in_valid = plan.input_index("in_valid");
  t.out_ready = plan.input_index("out_ready");
  t.in_ready = plan.output_index("in_ready");
  t.out_valid = plan.output_index("out_valid");
  t.out_data = plan.output_index("out_data");
  return t;
}

struct PassResult {
  std::uint64_t cycles = 0;
  std::size_t bad_lanes = 0;
};

/// Moves the calling thread round-robin over the CPUs it may use, and
/// restores its affinity when destroyed. On a shared host each CPU is slowed
/// by other tenants by its own, changing amount; a single-threaded pass that
/// stays on one CPU takes that CPU's state of the moment, while one that
/// visits every CPU takes their mean.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (moved_) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    moved_ |= sched_setaffinity(0, sizeof one, &one) == 0;
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool moved_ = false;
};

/// Streams the 64 images (one per lane) through the design from reset and
/// compares every output word of every lane with reference_inference. The
/// thread moves to the next CPU every kRotateCycles cycles.
PassResult classify_pass(ClassifyTarget& t) {
  Span span("sim.classify_pass");
  SimContext& ctx = *t.ctx;
  Tracer::Tally& step_tally = tracer().tally("sim.step");
  Tracer::Tally& io_tally = tracer().tally("sim.io");
  CpuRotation rotation;
  std::uint64_t steps = 0;
  const auto step = [&] {
    timed(step_tally, [&] { ctx.step(); });
    if (++steps % kRotateCycles == 0) rotation.next();
  };
  const auto lane0 = [&](int output) {
    return timed(io_tally, [&] { return ctx.get_output(output, 0); });
  };
  {
    Span s("sim.reset");
    ctx.reset();
  }
  timed(io_tally, [&] { ctx.set_inputs(t.out_ready, std::uint64_t{1}); });
  timed(io_tally, [&] { ctx.set_inputs(t.in_valid, std::uint64_t{1}); });
  for (int spin = 0; spin < 64 && lane0(t.in_ready) != 1; ++spin) step();

  PassResult result;
  std::uint64_t bad = 0;  // bit per lane
  for (std::size_t w = 0; w < t.in_words; ++w) {
    if (lane0(t.in_ready) != 1) bad = ~0ULL;  // stalled: the stream handshake broke
    timed(io_tally, [&] {
      ctx.set_inputs(t.in_data, std::span<const std::uint64_t>(&t.inputs[w * kLanes], kLanes));
    });
    step();
  }
  timed(io_tally, [&] { ctx.set_inputs(t.in_valid, std::uint64_t{0}); });

  std::uint64_t words[kLanes];
  std::size_t got = 0;
  for (long guard = 0; got < t.out_words && guard < kClassifyGuardCycles; ++guard) {
    step();
    if (lane0(t.out_valid) != 1) continue;
    timed(io_tally, [&] { ctx.get_outputs(t.out_data, words); });
    const std::uint64_t* want = &t.expected[got * kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if ((words[lane] & 0xffffu) != want[lane]) bad |= 1ULL << lane;
    }
    ++got;
  }
  if (got < t.out_words) bad = ~0ULL;
  result.cycles = ctx.cycle();
  result.bad_lanes = static_cast<std::size_t>(std::popcount(bad));
  return result;
}

// -- serve -------------------------------------------------------------------

struct ServeTarget {
  const Compiled* compiled = nullptr;
  std::unique_ptr<InferenceEngine> engine;
  std::size_t resets_seen = 0;
};

// -- fixture -----------------------------------------------------------------

struct Fixture {
  CompileRound compiled;
  std::vector<ClassifyTarget> classify;  // zoo order, vgg16 skipped
  std::vector<ServeTarget> serve;        // zoo order
};

std::unique_ptr<Fixture> build_fixture(const std::vector<ZooModel>& zoo, const Device& device,
                                       const Options& opt, Rng& order_rng, Record& record,
                                       Samples& samples) {
  auto fx = std::make_unique<Fixture>();
  fx->compiled = compile_round(zoo, device, order_rng, record, samples);
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    const Compiled& c = fx->compiled.warm[m];
    if (!c.plan) continue;  // its compile failed (already counted)
    record.pin(c.name, "context_bytes", record.at(c.name).context_bytes,
               c.plan->context_words() * c.plan->lane_bytes());
    if (c.name != kNoClassify) {
      fx->classify.push_back(make_classify_target(c, mix(opt.seed, m)));
      if (opt.inject_fault && fx->classify.size() == 1) fx->classify.back().expected[0] ^= 1;
    }
    EngineOptions eo;
    eo.contexts = kServeContexts;
    eo.seed = mix(opt.seed, 1000 + m);
    eo.corrupt_oracle = opt.inject_fault;
    ServeTarget st;
    st.compiled = &c;
    st.engine = std::make_unique<InferenceEngine>(c.design->netlist, c.plan, eo);
    fx->serve.push_back(std::move(st));
  }
  return fx;
}

// -- phases ------------------------------------------------------------------

struct PhaseRunner {
  Phase phase;
  int quota = 0;  // rounds, when it is not the workload
  std::function<void()> round;
  int done = 0;
  double seconds = 0.0;  // summed round time
  std::vector<double> untraced, traced;
};

/// Runs one round. In a traced run the workload's rounds alternate
/// untraced/traced, and every other phase's rounds are traced.
void run_round(PhaseRunner& p, bool is_workload, bool trace) {
  const bool on = trace && (!is_workload || p.done % 2 == 1);
  tracer().set_enabled(on);
  Stopwatch watch;
  p.round();
  const double s = watch.seconds();
  tracer().set_enabled(trace);
  p.seconds += s;
  (on ? p.traced : p.untraced).push_back(s);
  ++p.done;
}

/// Runs the workload's phase until its rounds have taken `seconds` and it
/// has run at least its quota (and two) rounds, and every other phase for
/// its quota, so the workload never has fewer samples. After each
/// workload round the other phases catch up to the share of their quota
/// that the workload has used of `seconds`, so their samples spread over
/// the whole run instead of one stretch of host state. The workload's
/// traced and untraced mean round times give the tracing overhead.
void run_phases(std::vector<PhaseRunner>& phases, Phase workload, double seconds, bool trace) {
  PhaseRunner& home = *std::find_if(phases.begin(), phases.end(),
                                    [&](const PhaseRunner& p) { return p.phase == workload; });
  const auto catch_up = [&](double share) {
    for (PhaseRunner& p : phases) {
      if (&p == &home) continue;
      while (p.done < static_cast<int>(std::ceil(share * p.quota))) run_round(p, false, trace);
    }
  };
  while (home.seconds < seconds || home.done < std::max(2, home.quota)) {
    run_round(home, true, trace);
    catch_up(std::min(1.0, home.seconds / seconds));
  }
  catch_up(1.0);
  if (trace && !home.untraced.empty() && !home.traced.empty()) {
    double u = 0.0, t = 0.0;
    for (double x : home.untraced) u += x;
    for (double x : home.traced) t += x;
    u /= static_cast<double>(home.untraced.size());
    t /= static_cast<double>(home.traced.size());
    tracer().count("bench.trace_overhead_pct", 100.0 * (t - u) / u);
  }
}

void classify_round(Fixture& fx, Rng& order_rng, Record& record, Samples& samples) {
  OpCount& count = samples.count(Phase::kClassify);
  for (const std::size_t i : permutation(fx.classify.size(), order_rng)) {
    ClassifyTarget& t = fx.classify[i];
    tracer().begin_op();
    Stopwatch watch;
    const PassResult r = classify_pass(t);
    const std::string& name = t.compiled->name;
    samples.pass[name].push_back(watch.seconds());
    count.attempted += kLanes;
    count.failed += r.bad_lanes;
    ModelRecord& rec = record.at(name);
    record.pin(name, "cycles_per_image", rec.cycles_per_image, r.cycles);
  }
}

void serve_round(Fixture& fx, Rng& order_rng, Record& record, Samples& samples) {
  OpCount& count = samples.count(Phase::kServe);
  for (const std::size_t i : permutation(fx.serve.size(), order_rng)) {
    ServeTarget& t = fx.serve[i];
    const std::string& name = t.compiled->name;
    tracer().begin_op();
    ++count.attempted;
    EngineStats st;
    Stopwatch watch;
    try {
      Span s("sim.engine.serve");
      st = t.engine->serve(kServeVectors);
    } catch (const std::exception& e) {
      ++count.failed;
      std::fprintf(stderr, "zoobench: serve %s failed: %s\n", name.c_str(), e.what());
      continue;
    }
    samples.request[name].push_back(watch.seconds());
    if (!st.ok() || st.vectors < kServeVectors) ++count.failed;
    tracer().count("sim.engine.batches", static_cast<double>(st.batches));
    tracer().count("sim.engine.resets", static_cast<double>(st.resets - t.resets_seen));
    tracer().count("sim.engine.oracle_checks", static_cast<double>(st.oracle_checks));
    tracer().count("sim.engine.oracle_failures", static_cast<double>(st.oracle_failures));
    t.resets_seen = st.resets;
    ModelRecord& rec = record.at(name);
    record.pin(name, "engine_fingerprint", rec.engine_fingerprint, st.fingerprint());
  }
}

// -- traced-only probes ------------------------------------------------------

/// Rebuilds the cold pass by hand so its cost splits by layer: component
/// requests -> component netlist synthesis -> OOC implementation (with the
/// service's content-derived seeds) per unique component of the zoo, then
/// the pre-implemented flow per model. The composed designs must match the
/// service's byte for byte.
void decompose_cold(const std::vector<ZooModel>& zoo, const Device& device, Record& record,
                    OpCount& count) {
  const OocOptions ooc;  // the service's defaults
  const std::string fabric = fabric_signature(device);
  std::map<std::string, Checkpoint> built;
  for (const ZooModel& zm : zoo) {
    tracer().begin_op();
    Span op("decompose");
    const FrontEnd f = front_end(zm);
    std::vector<ComponentRequest> requests;
    {
      Span s("flow.build.component_requests");
      requests = component_requests(f.model, f.impl, f.groups);
    }
    tracer().count("flow.build.requests", static_cast<double>(requests.size()));
    for (const ComponentRequest& request : requests) {
      if (built.count(request.key) != 0) continue;
      Netlist netlist;
      {
        Span s("synth.build_component_netlist");
        netlist = build_component_netlist(f.model, f.impl, request);
      }
      const NetlistStats stats = netlist.stats();
      tracer().count("synth.cells", static_cast<double>(stats.cells));
      tracer().count("synth.luts", static_cast<double>(stats.resources.lut));
      tracer().count("synth.ffs", static_cast<double>(stats.resources.ff));
      tracer().count("synth.dsps", static_cast<double>(stats.resources.dsp));
      tracer().count("synth.brams", static_cast<double>(stats.resources.bram));
      OocOptions local = ooc;
      local.seed = CompileService::component_seed(
          ooc, CheckpointStore::content_hash(request.key, fabric));
      CpuStopwatch cpu;
      OocResult result;
      {
        Span s("flow.ooc");
        result = implement_ooc(device, std::move(netlist), local);
      }
      tracer().count("flow.ooc_cpu_s", cpu.seconds());
      tracer().count("route.ooc_iterations", static_cast<double>(result.route.iterations));
      tracer().count("fabric.pblock_tiles", static_cast<double>(result.checkpoint.pblock.area()));
      built.emplace(request.key, std::move(result.checkpoint));
    }
    ComposedDesign design;
    PreImplReport report;
    {
      Span s("flow.preimpl");
      report = run_preimpl_cnn(
          device, f.model, f.impl, f.groups,
          [&built](const std::string& key) -> const Checkpoint* {
            const auto it = built.find(key);
            return it == built.end() ? nullptr : &it->second;
          },
          design);
    }
    // Stage split as the program reports it (PreImplReport), not spans.
    tracer().count("flow.stitch_ms", report.stitch_seconds * 1e3);
    tracer().count("place.macro_ms", report.place_seconds * 1e3);
    tracer().count("route.inter_ms", report.route_seconds * 1e3);
    tracer().count("timing.sta_ms", report.sta_seconds * 1e3);
    tracer().count("drc.gate_ms", report.drc_seconds * 1e3);
    tracer().count("place.macro_cost_evals", static_cast<double>(report.macro.stats.cost_evals));
    tracer().count("route.inter_iterations", static_cast<double>(report.route.iterations));
    tracer().count("route.wirelength", report.route.total_wirelength);
    ++count.attempted;
    ModelRecord& rec = record.at(zm.name);
    if (design_fingerprint(design) != rec.design_fingerprint) {
      ++count.failed;
      std::fprintf(stderr, "zoobench: %s: hand-run cold pass differs from the service's design\n",
                   zm.name.c_str());
    }
  }
}

struct SparePoint {
  double reset_ms = 0.0;
  double step_us = 0.0;
};

/// Reset and step cost of each plan, timed on a spare context.
std::map<std::string, SparePoint> spare_context_costs(const Fixture& fx) {
  std::map<std::string, SparePoint> out;
  for (const Compiled& c : fx.compiled.warm) {
    if (!c.plan) continue;
    SimContext ctx(c.plan);
    std::vector<double> resets, steps;
    for (int i = 0; i < 5; ++i) {
      Span s("sim.spare.reset");
      Stopwatch w;
      ctx.reset();
      resets.push_back(w.seconds());
    }
    for (int i = 0; i < 64; ++i) {
      Span s("sim.spare.step");
      Stopwatch w;
      ctx.step();
      steps.push_back(w.seconds());
    }
    out[c.name] = {median(resets) * 1e3, median(steps) * 1e6};
  }
  return out;
}

// -- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Units of work per second over one round of the mix, each model at its
/// median operation time.
double mix_rate(const PerModel& ops, double units_per_op) {
  double seconds = 0.0;
  for (const auto& [name, v] : ops) seconds += median(v);
  return static_cast<double>(ops.size()) * units_per_op / seconds;
}

std::vector<double> pooled_ms(const PerModel& ops) {
  std::vector<double> out;
  for (const auto& [name, v] : ops) {
    for (double x : v) out.push_back(x * 1e3);
  }
  return out;
}

std::vector<Metric> end_to_end_metrics(const Samples& s, const Record& record, double models,
                                       std::pair<int, double>& tail) {
  std::vector<double> fmax, latency;
  for (const auto& [name, rec] : record.models()) {
    fmax.push_back(rec.fmax_mhz);
    if (rec.cycles_per_image > 0) {
      latency.push_back(static_cast<double>(rec.cycles_per_image) / rec.fmax_mhz);
    }
  }
  const std::vector<double> request_ms = pooled_ms(s.request);
  tail = tail_percentile(request_ms);
  return {
      {"setup_s", median(s.setup_seconds), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cold_compile_models_per_s", models / median(s.cold), "models/s"},
      {"warm_compile_models_per_s", models / median(s.warm), "models/s"},
      {"fmax_mhz_geomean", geomean(fmax), "MHz"},
      {"classify_images_per_s", mix_rate(s.pass, kLanes), "images/s"},
      {"accel_latency_us_geomean", geomean(latency), "sim_us"},
      {"serve_vectors_per_s", mix_rate(s.request, kServeVectors), "vectors/s"},
      {"serve_p50_ms", median(request_ms), "ms"},
      {"serve_tail_ms", tail.second, "ms"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<ZooModel>& zoo, const Record& record,
                                      const Samples& samples,
                                      const std::map<std::string, SparePoint>& spare) {
  const Tracer& t = tracer();
  const auto totals = t.totals();
  const auto counter = [&](const std::string& name) {
    const auto it = t.counters().find(name);
    return it == t.counters().end() ? 0.0 : it->second;
  };
  const auto span_count = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto mean_span = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s / static_cast<double>(it->second.count);
  };
  const auto total_span = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto tally_mean = [&](const std::string& name) {
    const auto it = t.tallies().find(name);
    return it == t.tallies().end() || it->second.calls == 0
               ? 0.0
               : static_cast<double>(it->second.ns) / static_cast<double>(it->second.calls);
  };
  const double rounds = std::max(1.0, counter("compile.rounds"));
  const double models = static_cast<double>(zoo.size());

  std::vector<Metric> out = {
      {"cnn.frontend_ms", mean_span("cnn.frontend") * 1e3, "ms"},
      {"flow.service.cold_s", mean_span("flow.service.cold"), "s"},
      {"flow.service.warm_s", mean_span("flow.service.warm"), "s"},
      {"flow.service.built", counter("flow.service.built") / rounds, "count"},
      {"flow.service.store_hits", counter("flow.service.store_hits") / rounds, "count"},
      {"flow.service.dedup_waits", counter("flow.service.dedup_waits") / rounds, "count"},
      {"flow.store.hits", counter("flow.store.hits") / rounds, "count"},
      {"flow.store.misses", counter("flow.store.misses") / rounds, "count"},
      {"flow.store.evictions", counter("flow.store.evictions") / rounds, "count"},
      {"flow.store.cache_bytes", counter("flow.store.cache_bytes") / rounds, "bytes"},
      {"flow.build.requests", counter("flow.build.requests"), "count"},
      {"synth.netlist_ms", total_span("synth.build_component_netlist") * 1e3, "ms"},
      {"synth.cells", counter("synth.cells"), "count"},
      {"flow.ooc_s", total_span("flow.ooc"), "s"},
      {"flow.ooc_cpu_s", counter("flow.ooc_cpu_s"), "s"},
      {"route.ooc_iterations", counter("route.ooc_iterations"), "count"},
      {"synth.luts", counter("synth.luts"), "count"},
      {"synth.ffs", counter("synth.ffs"), "count"},
      {"synth.dsps", counter("synth.dsps"), "count"},
      {"synth.brams", counter("synth.brams"), "count"},
      {"fabric.pblock_tiles", counter("fabric.pblock_tiles"), "tiles"},
      {"flow.preimpl_ms", mean_span("flow.preimpl") * 1e3, "ms"},
      {"flow.stitch_ms", counter("flow.stitch_ms") / models, "ms"},
      {"place.macro_ms", counter("place.macro_ms") / models, "ms"},
      {"route.inter_ms", counter("route.inter_ms") / models, "ms"},
      {"timing.sta_ms", counter("timing.sta_ms") / models, "ms"},
      {"drc.gate_ms", counter("drc.gate_ms") / models, "ms"},
      {"place.macro_cost_evals", counter("place.macro_cost_evals"), "count"},
      {"route.inter_iterations", counter("route.inter_iterations"), "count"},
      {"route.wirelength", counter("route.wirelength"), "tiles"},
  };
  for (const ZooModel& zm : zoo) {
    out.push_back({"timing.fmax_mhz." + zm.name, record.models().at(zm.name).fmax_mhz, "MHz"});
  }
  // Plan size is per compile; scale the sum over all compiles to one zoo.
  const double zoos = span_count("sim.plan_compile") / models;
  out.push_back({"sim.plan_compile_ms", mean_span("sim.plan_compile") * 1e3, "ms"});
  out.push_back({"sim.plan_ops", counter("sim.plan_ops") / zoos, "count"});
  out.push_back({"sim.plan_levels", counter("sim.plan_levels") / zoos, "count"});
  out.push_back({"sim.step_us", tally_mean("sim.step") * 1e-3, "us"});
  out.push_back({"sim.io_us", tally_mean("sim.io") * 1e-3, "us"});
  for (const ZooModel& zm : zoo) {
    if (zm.name == kNoClassify) continue;
    out.push_back({"classify.images_per_s." + zm.name,
                   kLanes / median(samples.pass.at(zm.name)), "images/s"});
  }
  for (const ZooModel& zm : zoo) {
    if (zm.name == kNoClassify) continue;
    out.push_back({"sim.cycles_per_image." + zm.name,
                   static_cast<double>(record.models().at(zm.name).cycles_per_image), "cycles"});
  }
  out.push_back({"cnn.golden_ms_per_image", mean_span("cnn.golden") * 1e3, "ms"});
  for (const ZooModel& zm : zoo) {
    out.push_back({"serve.request_ms." + zm.name, median(samples.request.at(zm.name)) * 1e3,
                   "ms"});
  }
  for (const ZooModel& zm : zoo) {
    out.push_back({"sim.reset_ms." + zm.name, spare.at(zm.name).reset_ms, "ms"});
  }
  for (const ZooModel& zm : zoo) {
    out.push_back({"sim.step_us." + zm.name, spare.at(zm.name).step_us, "us"});
  }
  for (const ZooModel& zm : zoo) {
    const SparePoint& p = spare.at(zm.name);
    const double batch_ms = p.reset_ms + 32.0 * p.step_us * 1e-3;
    out.push_back({"sim.reset_share." + zm.name, p.reset_ms / batch_ms, "ratio"});
  }
  for (const ZooModel& zm : zoo) {
    out.push_back({"sim.context_bytes." + zm.name,
                   static_cast<double>(record.models().at(zm.name).context_bytes), "bytes"});
  }
  out.push_back({"sim.engine.batches", counter("sim.engine.batches"), "count"});
  out.push_back({"sim.engine.resets", counter("sim.engine.resets"), "count"});
  out.push_back({"sim.engine.oracle_checks", counter("sim.engine.oracle_checks"), "count"});
  out.push_back({"sim.engine.oracle_failures", counter("sim.engine.oracle_failures"), "count"});
  out.push_back({"bench.trace_overhead_pct", counter("bench.trace_overhead_pct"), "%"});
  return out;
}

std::string render_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string host_json(const Options& opt) {
  JsonWriter json;
  json.begin_object();
  json.key("nproc").value(affinity_cpus());
  json.key("hardware_threads").value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("build_type").value(ZOOBENCH_BUILD_TYPE);
#ifdef NDEBUG
  json.key("ndebug").value(true);
#else
  json.key("ndebug").value(false);
#endif
  json.key("commit").value(opt.commit);
  json.key("pool_width").value(ThreadPool::global().size());
  json.key("serve_contexts_per_engine").value(kServeContexts);
  json.key("classify_contexts").value(model_zoo().size() - 1);
  json.end_object();
  return json.str();
}

std::string record_json(const Options& opt, const Record& record, const Samples& samples,
                        const std::vector<Metric>& metrics, int tail_pct, bool correct) {
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(kPhaseNames[static_cast<int>(opt.workload)]);
  json.key("seed").value(static_cast<std::size_t>(opt.seed));
  json.key("trace").value(opt.trace);
  json.key("host").raw(host_json(opt));
  json.key("correct").value(correct);
  json.key("operations").begin_object();
  for (int p = 0; p < 3; ++p) {
    json.key(kPhaseNames[p]).begin_object();
    json.key("attempted").value(static_cast<std::size_t>(samples.counts[p].attempted));
    json.key("failed").value(static_cast<std::size_t>(samples.counts[p].failed));
    json.end_object();
  }
  json.end_object();
  json.key("serve_tail_percentile").value(tail_pct);
  json.key("models").begin_object();
  for (const auto& [name, rec] : record.models()) {
    char engine[24];
    std::snprintf(engine, sizeof engine, "0x%016llx",
                  static_cast<unsigned long long>(rec.engine_fingerprint));
    json.key(name).begin_object();
    json.key("design_fingerprint").value(rec.design_fingerprint);
    json.key("engine_fingerprint").value(engine);
    json.key("fmax_mhz").value(rec.fmax_mhz);
    json.key("cycles_per_image").value(static_cast<std::size_t>(rec.cycles_per_image));
    json.key("luts").value(static_cast<long>(rec.resources.lut));
    json.key("ffs").value(static_cast<long>(rec.resources.ff));
    json.key("dsps").value(static_cast<long>(rec.resources.dsp));
    json.key("brams").value(static_cast<long>(rec.resources.bram));
    json.key("context_bytes").value(rec.context_bytes);
    json.end_object();
  }
  json.end_object();
  json.key("mismatches").begin_array();
  for (const std::string& m : record.mismatches()) json.value(m);
  json.end_array();
  // Raw operation seconds per model, for checking the medians.
  json.key("samples").begin_object();
  const auto array = [&json](const char* key, const std::vector<double>& v) {
    json.key(key).begin_array();
    for (double x : v) json.value(x);
    json.end_array();
  };
  array("setup", samples.setup_seconds);
  array("cold_pass", samples.cold);
  array("warm_pass", samples.warm);
  const std::pair<const char*, const PerModel*> kinds[] = {{"pass", &samples.pass},
                                                           {"request", &samples.request}};
  for (const auto& [kind, ops] : kinds) {
    json.key(kind).begin_object();
    for (const auto& [name, v] : *ops) array(name.c_str(), v);
    json.end_object();
  }
  json.end_object();
  if (opt.trace) {
    json.key("span_totals").begin_object();
    for (const auto& [name, t] : tracer().totals()) {
      json.key(name).begin_object();
      json.key("count").value(static_cast<std::size_t>(t.count));
      json.key("total_s").value(t.total_s);
      json.key("self_s").value(t.self_s);
      json.end_object();
    }
    json.end_object();
  }
  json.key("metrics").raw(render_metrics(metrics));
  json.end_object();
  return json.str();
}

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::runtime_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      const std::string w = need(i);
      if (w == "compile") opt.workload = Phase::kCompile;
      else if (w == "classify") opt.workload = Phase::kClassify;
      else if (w == "serve") opt.workload = Phase::kServe;
      else throw std::runtime_error("unknown workload '" + w + "' (compile|classify|serve)");
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(need(i));
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(need(i));
      if (!(opt.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = need(i);
      if (v != "0" && v != "1") throw std::runtime_error("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = need(i);
    } else if (arg == "--commit") {
      opt.commit = need(i);
    } else if (arg == "--inject-fault") {
      opt.inject_fault = true;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw std::runtime_error("--workload is required");
  return opt;
}

int run(const Options& opt) {
  set_log_level(LogLevel::kWarn);
  const std::string workload = kPhaseNames[static_cast<int>(opt.workload)];
  std::fprintf(stderr, "zoobench: workload %s, seed %llu, %.1fs, trace %d | host %s\n",
               workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? 1 : 0, host_json(opt).c_str());
  if (std::string(ZOOBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "zoobench: WARNING: this is a %s build, not Release -- timings are not "
                 "comparable with a Release baseline\n",
                 ZOOBENCH_BUILD_TYPE);
  }

  const Device device = make_xcku5p_sim();
  const std::vector<ZooModel> zoo = zoo_models();
  Rng order_rng(mix(opt.seed, 0x5eed));
  Record record;
  Samples samples;
  tracer().set_enabled(opt.trace);

  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fx.reset();  // one fixture alive at a time
    tracer().begin_op();
    Span s("setup");
    Stopwatch watch;
    fx = build_fixture(zoo, device, opt, order_rng, record, samples);
    // The design fingerprints are checks, not set-up work.
    samples.setup_seconds.push_back(watch.seconds() - fx->compiled.fingerprint_seconds);
  }

  std::vector<PhaseRunner> phases = {
      {Phase::kCompile, kCompileQuotaRounds,
       [&] {
         Span s("phase.compile");
         compile_round(zoo, device, order_rng, record, samples);
       }},
      {Phase::kClassify, kClassifyQuotaRounds,
       [&] {
         Span s("phase.classify");
         classify_round(*fx, order_rng, record, samples);
       }},
      {Phase::kServe, kServeQuotaRounds,
       [&] {
         Span s("phase.serve");
         serve_round(*fx, order_rng, record, samples);
       }},
  };
  run_phases(phases, opt.workload, opt.seconds, opt.trace);

  std::map<std::string, SparePoint> spare;
  if (opt.trace) {
    decompose_cold(zoo, device, record, samples.count(Phase::kCompile));
    spare = spare_context_costs(*fx);
  }

  std::pair<int, double> tail;
  const std::vector<Metric> e2e =
      end_to_end_metrics(samples, record, static_cast<double>(zoo.size()), tail);
  const std::vector<Metric> metrics =
      opt.trace ? per_layer_metrics(zoo, record, samples, spare) : e2e;

  std::uint64_t attempted = 0, failed = 0;
  for (const OpCount& c : samples.counts) {
    attempted += c.attempted;
    failed += c.failed;
  }
  bool correct = failed == 0 && record.mismatches().empty() &&
                 record.models().size() == zoo.size();
  for (const Metric& m : metrics) correct &= std::isfinite(m.value);
  for (const std::string& m : record.mismatches()) {
    std::fprintf(stderr, "zoobench: %s\n", m.c_str());
  }

  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-28s %14.4f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                 m.name == "serve_tail_ms"
                     ? (" (p" + std::to_string(tail.first) + " of " +
                        std::to_string(pooled_ms(samples.request).size()) + " requests)")
                           .c_str()
                     : "");
  }
  for (int p = 0; p < 3; ++p) {
    std::fprintf(stderr, "  operations %-9s attempted %llu failed %llu\n", kPhaseNames[p],
                 static_cast<unsigned long long>(samples.counts[p].attempted),
                 static_cast<unsigned long long>(samples.counts[p].failed));
  }

  // Artifacts: the run record, and the Chrome trace of a traced run.
  const std::string stem = workload + "-seed" + std::to_string(opt.seed) + "-trace" +
                           std::to_string(opt.trace ? 1 : 0);
  std::filesystem::create_directories(opt.out_dir + "/records");
  const std::string record_text = record_json(opt, record, samples, metrics, tail.first, correct);
  {
    std::ofstream out(opt.out_dir + "/records/" + stem + ".json");
    out << record_text << '\n';
  }
  if (opt.trace) {
    std::filesystem::create_directories(opt.out_dir + "/traces");
    const std::string path = opt.out_dir + "/traces/" + stem + ".json";
    if (!tracer().write_chrome_trace(path, record_text)) {
      std::fprintf(stderr, "zoobench: cannot write %s\n", path.c_str());
      correct = false;
    }
    std::fprintf(stderr, "  trace: %s (%zu spans)\n", path.c_str(), tracer().spans().size());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), render_metrics(metrics).c_str());
  std::fflush(stdout);
  if (opt.inject_fault) return failed > 0 && !correct ? 0 : 1;
  return 0;
}

}  // namespace
}  // namespace zoobench

int main(int argc, char** argv) {
  // The benchmark is hermetic: every store it opens is memory-only.
  ::unsetenv("FPGASIM_STORE_DIR");
  try {
    return zoobench::run(zoobench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zoobench: %s\n", e.what());
    return 1;
  }
}
