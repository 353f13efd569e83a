#include "netlist/findings.h"

#include <algorithm>
#include <stdexcept>

#include "util/json.h"

namespace fpgasim {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Finding::to_string() const {
  std::string s = std::string(fpgasim::to_string(severity)) + " [" + rule + "] " + message;
  if (waived) s += " (waived)";
  return s;
}

std::string FindingsReport::summary() const {
  std::string s = checker_ + ": " + std::to_string(errors_) + " error" +
                  (errors_ == 1 ? "" : "s") + ", " + std::to_string(warnings_) + " warning" +
                  (warnings_ == 1 ? "" : "s");
  if (infos_ > 0) s += ", " + std::to_string(infos_) + " info";
  if (waived_ > 0) s += ", " + std::to_string(waived_) + " waived";
  if (suppressed_ > 0) s += ", " + std::to_string(suppressed_) + " suppressed";
  s += " (" + std::to_string(rules_run_) + " rules)";
  return s;
}

std::string FindingsReport::to_string() const {
  std::string s = summary();
  for (const Finding& f : findings_) {
    s += "\n  " + f.to_string();
  }
  return s;
}

std::vector<const Finding*> FindingsReport::by_rule(const std::string& rule) const {
  std::vector<const Finding*> out;
  for (const Finding& f : findings_) {
    if (f.rule == rule) out.push_back(&f);
  }
  return out;
}

bool FindingsReport::has(const std::string& rule) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string FindingsReport::to_json() const {
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
    w.key("severity").value(fpgasim::to_string(f.severity));
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

void Emitter::rule(const char* id, Severity severity) {
  rule_ = id;
  severity_ = severity;
  waived_ = std::find(opt_.waived_rules.begin(), opt_.waived_rules.end(), id) !=
            opt_.waived_rules.end();
  emitted_ = 0;
  ++report_.rules_run_;
}

void Emitter::emit(std::string message, CellId cell, NetId net) {
  emit(severity_, std::move(message), cell, net);
}

void Emitter::emit(Severity severity, std::string message, CellId cell, NetId net) {
  if (rule_ == nullptr) throw std::logic_error("Emitter: emit before rule()");
  if (emitted_ == opt_.max_per_rule) {
    ++report_.suppressed_;
    return;
  }
  ++emitted_;
  if (waived_) {
    ++report_.waived_;
  } else {
    switch (severity) {
      case Severity::kInfo: ++report_.infos_; break;
      case Severity::kWarning: ++report_.warnings_; break;
      case Severity::kError: ++report_.errors_; break;
    }
  }
  report_.findings_.push_back({rule_, severity, std::move(message), cell, net, waived_});
}

void Emitter::emit(std::vector<StructuralIssue> issues) {
  for (StructuralIssue& issue : issues) emit(std::move(issue.message), issue.cell, issue.net);
}

void enforce(const FindingsReport& report, const std::string& where) {
  if (report.clean()) return;
  throw std::runtime_error(report.checker_ + " failed (" + where + "): " + report.to_string());
}

int instance_of_cell(const std::vector<InstanceRange>& instances, CellId cell) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (cell >= instances[i].cell_begin && cell < instances[i].cell_end) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int instance_of_net(const std::vector<InstanceRange>& instances, NetId net) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (net >= instances[i].net_begin && net < instances[i].net_end) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace fpgasim
