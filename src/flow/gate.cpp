#include "flow/gate.h"

#include <string>

#include "drc/drc.h"
#include "lint/lint.h"
#include "sim/compiled.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

constexpr int kCompiledVerifyCycles = 24;

}  // namespace

void run_gate(const GateSubject& subject, unsigned stages, const char* after,
              FindingsReport& drc, GateReport& report, const GateOptions* last) {
  const std::string where = std::string(subject.flow) + " after " + after;
  Stopwatch watch;
  DrcContext ctx;
  ctx.netlist = &subject.netlist;
  ctx.phys = &subject.phys;
  ctx.device = &subject.device;
  ctx.instances = subject.instances;
  ctx.channel_capacity = subject.channel_capacity;
  drc = run_drc(ctx, stages);
  report.drc_seconds += watch.seconds();
  enforce(drc, where);
  if (last == nullptr) return;

  if (last->lint) {
    // Stitch-boundary aware through the instance ranges.
    report.lint = lint::run(subject.netlist, {}, subject.instances);
    enforce(report.lint, where);
  }
  if (last->compiled_verify) {
    enforce_compiled_match(subject.netlist, kCompiledVerifyCycles, subject.seed, subject.flow);
  }
}

}  // namespace fpgasim
