// Findings of the netlist checkers. The DRC and fpgalint are rule tables
// over this one module: it decides how a rule's finding is recorded,
// waived, capped, counted, rendered and enforced, so both checkers report
// the same way and differ only in their rules and the name that prefixes
// their summaries ("DRC: ...", "lint: ...").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/pblock.h"
#include "netlist/netlist.h"
#include "netlist/structure.h"

namespace fpgasim {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

/// "info", "warning" or "error".
const char* to_string(Severity severity);

struct Finding {
  std::string rule;  // rule id, e.g. "net-driver" or "lint-comb-loop"
  Severity severity = Severity::kError;
  std::string message;
  CellId cell = kInvalidCell;  // offending cell when applicable
  NetId net = kInvalidNet;     // offending net when applicable
  bool waived = false;

  /// "error [rule] message", plus " (waived)" when waived.
  std::string to_string() const;
};

struct CheckOptions {
  /// Rule ids whose findings are recorded but excluded from error/warning
  /// counts (per-rule waivers).
  std::vector<std::string> waived_rules;
  /// Cap on recorded findings per rule; excess is counted in
  /// FindingsReport::suppressed but not stored.
  std::size_t max_per_rule = 64;
};

class FindingsReport {
 public:
  /// `checker` prefixes the summary ("DRC", "lint"); `design` names the
  /// checked netlist in to_json().
  explicit FindingsReport(std::string checker, std::string design = "")
      : checker_(std::move(checker)), design_(std::move(design)) {}

  bool clean() const { return errors_ == 0; }
  bool empty() const { return findings_.empty(); }
  std::size_t errors() const { return errors_; }
  std::size_t warnings() const { return warnings_; }
  std::size_t infos() const { return infos_; }
  std::size_t waived() const { return waived_; }
  std::size_t suppressed() const { return suppressed_; }
  std::size_t rules_run() const { return rules_run_; }
  const std::vector<Finding>& findings() const { return findings_; }

  /// One-line "DRC: 2 errors, 1 warning (16 rules)" digest.
  std::string summary() const;
  /// Full multi-line listing (summary + every recorded finding).
  std::string to_string() const;
  /// Findings recorded against `rule` (waived included).
  std::vector<const Finding*> by_rule(const std::string& rule) const;
  /// True when at least one (possibly waived) finding carries `rule`.
  bool has(const std::string& rule) const;

  /// Machine-readable report for CI consumption. Deterministic: contains
  /// only the design name, counts and findings — never timing — so reports
  /// are byte-identical across runs and FPGASIM_THREADS widths.
  std::string to_json() const;

 private:
  friend class Emitter;
  friend void enforce(const FindingsReport& report, const std::string& where);
  std::string checker_;
  std::string design_;
  std::vector<Finding> findings_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t infos_ = 0;
  std::size_t waived_ = 0;
  std::size_t suppressed_ = 0;
  std::size_t rules_run_ = 0;
};

/// The rule-scoped sink both checkers emit through. rule() enters one
/// rule and resolves its id, severity and waiver once; emit() records
/// findings under it up to CheckOptions::max_per_rule and counts the rest
/// as suppressed.
class Emitter {
 public:
  Emitter(FindingsReport& report, const CheckOptions& opt) : report_(report), opt_(opt) {}

  /// Enters `id`'s scope and counts it as run.
  void rule(const char* id, Severity severity);
  void emit(std::string message, CellId cell = kInvalidCell, NetId net = kInvalidNet);
  /// A finding of another severity than the rule's own.
  void emit(Severity severity, std::string message, CellId cell = kInvalidCell,
            NetId net = kInvalidNet);
  /// Emits each netlist/structure.h issue under the current rule.
  void emit(std::vector<StructuralIssue> issues);

 private:
  FindingsReport& report_;
  const CheckOptions& opt_;
  const char* rule_ = nullptr;
  Severity severity_ = Severity::kError;
  bool waived_ = false;
  std::size_t emitted_ = 0;
};

/// Throws std::runtime_error("<checker> failed (<where>): <listing>") when
/// !report.clean().
void enforce(const FindingsReport& report, const std::string& where);

/// One component instance of a composed design: the contiguous cell and
/// net ranges Netlist::merge() gave it and its (relocated) pblock
/// footprint. The placement, routing and stitch-boundary rules attribute
/// findings to instances through it.
struct InstanceRange {
  std::string name;
  Pblock footprint;
  CellId cell_begin = 0;
  CellId cell_end = 0;
  NetId net_begin = 0;
  NetId net_end = 0;
};

/// Index of the instance owning `cell` (`net`), or -1.
int instance_of_cell(const std::vector<InstanceRange>& instances, CellId cell);
int instance_of_net(const std::vector<InstanceRange>& instances, NetId net);

}  // namespace fpgasim
