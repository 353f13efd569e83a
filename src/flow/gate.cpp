#include "flow/gate.h"

#include <string>

#include "drc/drc.h"
#include "util/timer.h"

namespace fpgasim {

double run_gate(const GateSubject& subject, unsigned stages, const char* after,
                FindingsReport& drc) {
  Stopwatch watch;
  DrcContext ctx;
  ctx.netlist = &subject.netlist;
  ctx.phys = &subject.phys;
  ctx.device = &subject.device;
  ctx.instances = subject.instances;
  drc = run_drc(ctx, stages);
  enforce(drc, std::string(subject.flow) + " after " + after);
  return watch.seconds();
}

}  // namespace fpgasim
