#include "lint/lint.h"

#include <stdexcept>
#include <string_view>

namespace fpgasim {
namespace lint {

const std::vector<RuleInfo>& rules() {
  // Registration order == emission order (analyze_* call order in run()).
  static const std::vector<RuleInfo> table = {
      {"lint-comb-loop", "no combinational cycles (Tarjan SCC, registers break edges)",
       Severity::kError},
      {"lint-dead-cell", "every cell is backward-reachable from a primary output",
       Severity::kWarning},
      {"lint-unread-net", "every driven net is read by a sink or a port", Severity::kWarning},
      {"lint-stuck-net", "no net is stuck at a constant at the dataflow fixpoint",
       Severity::kWarning},
      {"lint-const-lut", "no LUT is foldable to a constant", Severity::kWarning},
      {"lint-x-escape", "uninitialized state (X) never reaches a primary output",
       Severity::kError},
      {"lint-multi-driver", "every net has at most one driver", Severity::kError},
      {"lint-floating-input", "no required input pin floats", Severity::kError},
      {"lint-width-mismatch", "bus widths agree at cell ports and stitch boundaries",
       Severity::kError},
  };
  return table;
}

namespace detail {

void begin_rule(Emitter& out, const char* id) {
  for (const RuleInfo& info : rules()) {
    if (std::string_view(info.id) == id) return out.rule(info.id, info.severity);
  }
  throw std::logic_error("lint: unknown rule '" + std::string(id) + "'");
}

}  // namespace detail

FindingsReport run(const Netlist& netlist, const CheckOptions& opt,
                   const std::vector<InstanceRange>& instances) {
  FindingsReport report("lint", netlist.name());
  Emitter out(report, opt);
  // Fixed pass order — findings come out grouped by rule in rules() order.
  detail::analyze_loops(netlist, out);
  detail::analyze_dead_logic(netlist, out);
  detail::analyze_values(netlist, out);
  detail::analyze_connectivity(netlist, instances, out);
  return report;
}

}  // namespace lint
}  // namespace fpgasim
