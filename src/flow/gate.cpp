#include "flow/gate.h"

#include <string>

#include "drc/drc.h"
#include "util/timer.h"

namespace fpgasim {

void run_gate(const GateSubject& subject, unsigned stages, const char* after,
              FindingsReport& drc, double& drc_seconds) {
  Stopwatch watch;
  DrcContext ctx;
  ctx.netlist = &subject.netlist;
  ctx.phys = &subject.phys;
  ctx.device = &subject.device;
  ctx.instances = subject.instances;
  drc = run_drc(ctx, stages);
  drc_seconds += watch.seconds();
  enforce(drc, std::string(subject.flow) + " after " + after);
}

}  // namespace fpgasim
