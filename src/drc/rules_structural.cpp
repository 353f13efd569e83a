// Netlist structural rules: driver uniqueness, hookup consistency, bus
// widths, combinational loops, dead nets. Each rule is one property check
// from netlist/structure.h, shared with lint and Netlist::validate().
#include <vector>

#include "drc/drc.h"
#include "netlist/structure.h"

namespace fpgasim {
namespace drc_detail {
namespace {

class StructuralRule final : public DrcRule {
 public:
  StructuralRule(const char* id, const char* what, DrcSeverity severity,
                 StructuralCheck property)
      : id_(id), what_(what), severity_(severity), check_(property) {}

  const char* id() const override { return id_; }
  const char* what() const override { return what_; }
  unsigned stages() const override { return kDrcStructural; }
  DrcSeverity severity() const override { return severity_; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    for (StructuralIssue& issue : check_(*ctx.netlist)) {
      report.add({id_, severity_, std::move(issue.message), issue.cell, issue.net});
    }
  }

 private:
  const char* id_;
  const char* what_;
  DrcSeverity severity_;
  StructuralCheck check_;
};

}  // namespace

void register_structural_rules(std::vector<const DrcRule*>& rules) {
  static const StructuralRule net_driver("net-driver",
                                         "every net has exactly one consistent driver",
                                         DrcSeverity::kError, check_drivers);
  static const StructuralRule net_dangling(
      "net-dangling", "no undriven inputs, dangling sink references or missing required pins",
      DrcSeverity::kError, check_sinks);
  static const StructuralRule net_width("net-width", "bus widths agree across net connections",
                                        DrcSeverity::kError, check_widths);
  static const StructuralRule comb_loop("comb-loop",
                                        "no combinational cycles through LUT/ADD/MAX/RELU logic",
                                        DrcSeverity::kError, check_comb_loops);
  static const StructuralRule net_dead("net-dead",
                                       "no orphaned nets (typically left behind by alias_net)",
                                       DrcSeverity::kWarning, check_orphans);
  rules.push_back(&net_driver);
  rules.push_back(&net_dangling);
  rules.push_back(&net_width);
  rules.push_back(&comb_loop);
  rules.push_back(&net_dead);
}

}  // namespace drc_detail
}  // namespace fpgasim
