#include "lint/lint.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "util/json.h"
#include "util/timer.h"

namespace fpgasim {
namespace lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Finding::to_string() const {
  std::string s = std::string(lint::to_string(severity)) + " [" + rule + "] " + message;
  if (waived) s += " (waived)";
  return s;
}

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

void LintReport::add(Finding finding) {
  if (finding.waived) {
    ++waived_;
  } else {
    switch (finding.severity) {
      case Severity::kInfo: ++infos_; break;
      case Severity::kWarning: ++warnings_; break;
      case Severity::kError: ++errors_; break;
    }
  }
  findings_.push_back(std::move(finding));
}

std::string LintReport::summary() const {
  std::string s = "lint: " + std::to_string(errors_) + " error" + (errors_ == 1 ? "" : "s") +
                  ", " + std::to_string(warnings_) + " warning" + (warnings_ == 1 ? "" : "s");
  if (infos_ > 0) s += ", " + std::to_string(infos_) + " info";
  if (waived_ > 0) s += ", " + std::to_string(waived_) + " waived";
  if (suppressed_ > 0) s += ", " + std::to_string(suppressed_) + " suppressed";
  s += " (" + std::to_string(rules_run_) + " rules)";
  return s;
}

std::string LintReport::to_string() const {
  std::string s = summary();
  for (const Finding& f : findings_) {
    s += "\n  " + f.to_string();
  }
  return s;
}

std::vector<const Finding*> LintReport::by_rule(const std::string& rule) const {
  std::vector<const Finding*> out;
  for (const Finding& f : findings_) {
    if (f.rule == rule) out.push_back(&f);
  }
  return out;
}

bool LintReport::has(const std::string& rule) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string LintReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("design").value(design_);
  w.key("errors").value(errors_);
  w.key("warnings").value(warnings_);
  w.key("infos").value(infos_);
  w.key("waived").value(waived_);
  w.key("suppressed").value(suppressed_);
  w.key("rules_run").value(rules_run_);
  w.key("findings").begin_array();
  for (const Finding& f : findings_) {
    w.begin_object();
    w.key("rule").value(f.rule);
    w.key("severity").value(lint::to_string(f.severity));
    w.key("message").value(f.message);
    if (f.cell != kInvalidCell) w.key("cell").value(static_cast<std::size_t>(f.cell));
    if (f.net != kInvalidNet) w.key("net").value(static_cast<std::size_t>(f.net));
    if (f.waived) w.key("waived").value(true);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace detail {

void Emitter::rule(const char* id) {
  rule_ = id;
  severity_ = Severity::kError;
  for (const RuleInfo& info : rules()) {
    if (std::string_view(info.id) == id) {
      severity_ = info.severity;
      break;
    }
  }
  waived_ = std::find(opt_.waived_rules.begin(), opt_.waived_rules.end(), id) !=
            opt_.waived_rules.end();
  emitted_ = 0;
}

void Emitter::emit(std::string message, CellId cell, NetId net) {
  if (rule_ == nullptr) throw std::logic_error("lint::Emitter: emit before rule()");
  if (emitted_ == opt_.max_findings_per_rule) {
    ++report_.suppressed_;
    return;
  }
  ++emitted_;
  report_.add({rule_, severity_, std::move(message), cell, net, waived_});
}

void Emitter::emit(std::vector<StructuralIssue> issues) {
  for (StructuralIssue& issue : issues) emit(std::move(issue.message), issue.cell, issue.net);
}

}  // namespace detail

LintReport run(const Netlist& netlist, const LintOptions& opt) {
  Stopwatch wall;
  CpuStopwatch cpu;
  LintReport report;
  report.design_ = netlist.name();
  detail::Emitter out(report, opt);
  // Fixed pass order — findings come out grouped by rule in rules() order.
  detail::analyze_loops(netlist, opt, out);
  detail::analyze_dead_logic(netlist, opt, out);
  detail::analyze_values(netlist, opt, out);
  detail::analyze_connectivity(netlist, opt, out);
  report.rules_run_ = rules().size();
  report.wall_seconds = wall.seconds();
  report.cpu_seconds = cpu.seconds();
  return report;
}

void enforce(const LintReport& report, const std::string& where) {
  if (report.clean()) return;
  throw std::runtime_error("lint failed (" + where + "): " + report.to_string());
}

}  // namespace lint
}  // namespace fpgasim
