// fpgalint: whole-netlist static analyzer. Goes beyond the DRC's
// well-formedness rules with real dataflow reasoning over fpgasim::Netlist:
//
//   - combinational-loop detection (Tarjan SCC over the shared CombGraph;
//     registers break edges), each cycle reported as a named cell path;
//   - dead-logic detection (backward reachability from primary outputs),
//     flagging unreachable cells and unread nets;
//   - a forward 3-valued (0/1/X) constant- and X-propagation fixpoint that
//     finds stuck-at nets, LUTs foldable to constants, and uninitialized
//     state (X) escaping to primary outputs through registers whose reset
//     value never dominates;
//   - connectivity hygiene: driver/fanout conflicts, floating inputs and
//     bus-width mismatches at cell ports and stitch boundaries.
//
// The loop, liveness and connectivity rules run the netlist/structure.h
// property checks the DRC also runs; only the stitch-boundary width check
// and the value analysis are lint's own.
//
// All analyses are deterministic: single-threaded, iteration in index
// order, findings emitted in (rule registration, cell/net id) order — the
// report (and its JSON rendering) is byte-identical for any FPGASIM_THREADS
// width. Used as an opt-in gate by both flows and the checkpoint database,
// and standalone by tools/fpgalint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/structure.h"

namespace fpgasim {
namespace lint {

enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

const char* to_string(Severity severity);

/// One component instance inside a composed design (cell/net ranges from
/// merge()); lets the connectivity analysis attribute findings to stitch
/// boundaries between components. Optional — lint runs fine without.
struct Instance {
  std::string name;
  CellId cell_begin = 0;
  CellId cell_end = 0;
  NetId net_begin = 0;
  NetId net_end = 0;
};

struct Finding {
  std::string rule;  // rule id, e.g. "lint-comb-loop"
  Severity severity = Severity::kError;
  std::string message;
  CellId cell = kInvalidCell;  // offending cell when applicable
  NetId net = kInvalidNet;     // offending net when applicable
  bool waived = false;

  std::string to_string() const;
};

namespace detail {
class Emitter;
}  // namespace detail

struct LintOptions {
  /// Rule ids whose findings are recorded but excluded from error/warning
  /// counts (per-rule waivers).
  std::vector<std::string> waived_rules;
  /// Cap on recorded findings per rule; excess is counted in
  /// LintReport::suppressed but not stored.
  std::size_t max_findings_per_rule = 64;
  /// Component ranges of a composed design (see Instance).
  std::vector<Instance> instances;
};

class LintReport {
 public:
  void add(Finding finding);

  bool clean() const { return errors_ == 0; }
  bool empty() const { return findings_.empty(); }
  std::size_t errors() const { return errors_; }
  std::size_t warnings() const { return warnings_; }
  std::size_t infos() const { return infos_; }
  std::size_t waived() const { return waived_; }
  std::size_t suppressed() const { return suppressed_; }
  std::size_t rules_run() const { return rules_run_; }
  const std::vector<Finding>& findings() const { return findings_; }

  /// One-line "lint: 1 error, 2 warnings (9 rules)" digest.
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

  /// Analysis cost, reported by the flow gates next to their stage times.
  /// Excluded from to_json() by design (see above).
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;

 private:
  friend LintReport run(const Netlist&, const LintOptions&);
  friend class detail::Emitter;
  std::string design_;
  std::vector<Finding> findings_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t infos_ = 0;
  std::size_t waived_ = 0;
  std::size_t suppressed_ = 0;
  std::size_t rules_run_ = 0;
};

/// Static description of one lint rule (for --list, docs and tests).
struct RuleInfo {
  const char* id;
  const char* what;
  Severity severity;
};

/// The rule table, in the order findings are emitted.
const std::vector<RuleInfo>& rules();

/// Runs every analysis over `netlist` and returns the findings.
LintReport run(const Netlist& netlist, const LintOptions& opt = {});

/// Throws std::runtime_error with the report listing when !report.clean().
void enforce(const LintReport& report, const std::string& where);

// -- analysis passes (each appends findings for its rules) ------------------
namespace detail {

/// A rule-scoped sink that applies waivers and per-rule caps.
class Emitter {
 public:
  Emitter(LintReport& report, const LintOptions& opt) : report_(report), opt_(opt) {}

  /// Enters `rule` scope: subsequent emit() calls carry its id/severity.
  void rule(const char* id);
  void emit(std::string message, CellId cell = kInvalidCell, NetId net = kInvalidNet);
  /// Emits each netlist/structure.h issue under the current rule.
  void emit(std::vector<StructuralIssue> issues);

 private:
  LintReport& report_;
  const LintOptions& opt_;
  const char* rule_ = nullptr;
  Severity severity_ = Severity::kError;
  bool waived_ = false;
  std::size_t emitted_ = 0;
};

void analyze_loops(const Netlist& nl, const LintOptions& opt, Emitter& out);
void analyze_dead_logic(const Netlist& nl, const LintOptions& opt, Emitter& out);
void analyze_values(const Netlist& nl, const LintOptions& opt, Emitter& out);
void analyze_connectivity(const Netlist& nl, const LintOptions& opt, Emitter& out);

}  // namespace detail

}  // namespace lint
}  // namespace fpgasim
