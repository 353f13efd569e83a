// fpgalint: standalone whole-netlist static analyzer.
//
// Lints `.fdcp` checkpoints (never crashes on a corrupt file: load errors
// are reported as such) or, with --model, builds one of the bundled CNN
// accelerators through the pre-implemented flow in-process and lints the
// composed design with instance (stitch-boundary) information. `--json`
// emits the machine-readable report for CI; it contains no timing, so a
// given design produces a byte-identical report regardless of
// FPGASIM_THREADS.
//
// Exit status: 0 = clean (no error-severity findings anywhere),
//              1 = at least one error-severity finding,
//              2 = usage error or a checkpoint that failed to load.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cnn/model.h"
#include "cnn/zoo.h"
#include "flow/service.h"
#include "lint/lint.h"
#include "netlist/checkpoint.h"
#include "util/env.h"
#include "util/json.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: fpgalint [options] [checkpoint.fdcp ...]\n"
               "\n"
               "options:\n"
               "  --json         emit a machine-readable JSON report on stdout\n"
               "  --waive RULE   waive a rule id (repeatable); waived findings are\n"
               "                 reported but never fail the run\n"
               "  --model NAME   lint the composed design of a bundled network\n"
               "                 (%s)\n"
               "                 built through the pre-implemented flow\n"
               "  --dsp N        DSP budget for --model (default 64)\n"
               "  --rules        print the rule table and exit\n"
               "  -h, --help     this message\n",
               fpgasim::zoo_model_names().c_str());
}

void print_rules() {
  for (const fpgasim::lint::RuleInfo& rule : fpgasim::lint::rules()) {
    std::printf("%-24s %-8s %s\n", rule.id, fpgasim::to_string(rule.severity),
                rule.what);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpgasim;

  bool json = false;
  std::string model_name;
  long dsp_budget = -1;  // -1: per-model default
  CheckOptions options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--waive" && i + 1 < argc) {
      options.waived_rules.emplace_back(argv[++i]);
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--dsp" && i + 1 < argc) {
      dsp_budget = count_arg<long>("fpgalint", arg, argv[++i]);
    } else if (arg == "--rules") {
      print_rules();
      return 0;
    } else if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "fpgalint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() && model_name.empty()) {
    usage(stderr);
    return 2;
  }

  int exit_code = 0;
  JsonWriter out;
  if (json) out.begin_array();

  const auto deliver = [&](const FindingsReport& report) {
    if (json) {
      out.raw(report.to_json());
    } else {
      std::printf("%s\n", report.to_string().c_str());
    }
    if (report.errors() > 0 && exit_code == 0) exit_code = 1;
  };

  for (const std::string& path : paths) {
    try {
      const Checkpoint checkpoint = load_checkpoint(path);
      deliver(lint::run(checkpoint.netlist, options));
    } catch (const std::exception& e) {
      // A checkpoint that cannot even be parsed is worse than one with
      // findings; report it in-band so CI sees which file and why.
      if (json) {
        JsonWriter fail;
        fail.begin_object()
            .key("design")
            .value(path)
            .key("load_error")
            .value(std::string(e.what()))
            .end_object();
        out.raw(fail.str());
      } else {
        std::fprintf(stderr, "fpgalint: %s: load failed: %s\n", path.c_str(), e.what());
      }
      exit_code = 2;
    }
  }

  if (!model_name.empty()) {
    const ZooEntry* entry = find_zoo_model(model_name);
    if (entry == nullptr) {
      std::fprintf(stderr, "fpgalint: unknown model '%s' (%s)\n", model_name.c_str(),
                   zoo_model_names().c_str());
      return 2;
    }
    const CnnModel model = entry->make();
    const int max_tile = entry->max_tile;
    if (dsp_budget < 0) dsp_budget = entry->dsp_budget;
    const Device device = make_xcku5p_sim();
    const ModelImpl impl = choose_implementation(model, dsp_budget, max_tile);
    const std::vector<std::vector<int>> groups = default_grouping(model);
    CheckpointStore store;
    CompileService service(device, store);
    const ComposedDesign composed = service.compile(model, impl, groups).design;
    deliver(lint::run(composed.netlist, options, composed.instances));
  }

  if (json) {
    out.end_array();
    std::printf("%s\n", out.str().c_str());
  }
  return exit_code;
}
