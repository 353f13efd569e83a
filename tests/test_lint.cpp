// fpgalint: injected-defect netlists must trip exactly the intended rule,
// clean generated designs must produce zero findings of any severity
// (false-positive contract), and reports must be deterministic.
#include <gtest/gtest.h>

#include <algorithm>

#include "cnn/model.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "lint/lint.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

std::vector<std::string> rule_ids(const lint::LintReport& report) {
  std::vector<std::string> ids;
  for (const lint::Finding& f : report.findings()) ids.push_back(f.rule);
  return ids;
}

// -- injected defects --------------------------------------------------------

TEST(Lint, CombinationalLoopDetected) {
  // a = NOT(b); b = PASS(a): a 2-cell combinational cycle.
  Netlist nl("loop");
  const NetId a = nl.add_net(1, "a");
  const NetId b = nl.add_net(1, "b");
  Cell inv;
  inv.type = CellType::kLut;
  inv.op = LutOp::kNot;
  inv.name = "inv";
  const CellId inv_id = nl.add_cell(std::move(inv));
  nl.connect_input(inv_id, 0, b);
  nl.connect_output(inv_id, 0, a);
  Cell pass;
  pass.type = CellType::kLut;
  pass.op = LutOp::kPass;
  pass.name = "fwd";
  const CellId pass_id = nl.add_cell(std::move(pass));
  nl.connect_input(pass_id, 0, a);
  nl.connect_output(pass_id, 0, b);
  nl.add_port({"o", PortDir::kOutput, 1, b});

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-comb-loop"));
  EXPECT_FALSE(report.clean());
  const auto loops = report.by_rule("lint-comb-loop");
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0]->severity, lint::Severity::kError);
  // The path names both cells and returns to its anchor.
  EXPECT_NE(loops[0]->message.find("'inv'"), std::string::npos) << loops[0]->message;
  EXPECT_NE(loops[0]->message.find("'fwd'"), std::string::npos) << loops[0]->message;
  EXPECT_THROW(lint::enforce(report, "test"), std::runtime_error);
}

TEST(Lint, RegistersBreakCombinationalCycles) {
  // The classic counter structure: FF -> add -> back to FF. Sequential
  // feedback is not a combinational loop.
  NetlistBuilder b("counter");
  const NetId en = b.in_port("en", 1);
  const auto ctr = b.counter(5, en, 8, "ctr");
  b.out_port("value", ctr.value);
  const Netlist nl = std::move(b).take();

  const lint::LintReport report = lint::run(nl);
  EXPECT_FALSE(report.has("lint-comb-loop")) << report.to_string();
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(Lint, DeadConeFlagged) {
  // Live path: x -> FF -> out. Dead cone: AND(x, x) -> FF (read by nothing).
  NetlistBuilder b("dead");
  const NetId x = b.in_port("x", 1);
  b.out_port("out", b.ff(x, kInvalidNet, 1));
  const NetId cone = b.and2(x, x);
  b.ff(cone, kInvalidNet, 1);  // dead: output net has no readers
  Netlist nl = b.netlist();    // bypass take(): keep the dead logic

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-dead-cell")) << report.to_string();
  ASSERT_TRUE(report.has("lint-unread-net")) << report.to_string();
  // Both cells of the cone are dead; every finding is warning-severity,
  // so the report is "clean" for gating purposes but not empty.
  EXPECT_EQ(report.by_rule("lint-dead-cell").size(), 2u) << report.to_string();
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.empty());

  // prune_dead() removes exactly the cone and the lint goes quiet.
  EXPECT_EQ(nl.prune_dead(), 2u);
  EXPECT_TRUE(lint::run(nl).empty());
}

TEST(Lint, StuckAtLutFoldable) {
  // AND with a constant-zero operand masks the live input x.
  NetlistBuilder b("stuck");
  const NetId x = b.in_port("x", 8);
  const NetId masked = b.op2(LutOp::kAnd, x, b.zero(8), 8);
  b.out_port("out", masked);
  const Netlist nl = b.netlist();

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-const-lut")) << report.to_string();
  const auto findings = report.by_rule("lint-const-lut");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, lint::Severity::kWarning);
  EXPECT_NE(findings[0]->message.find("always evaluates to 0"), std::string::npos)
      << findings[0]->message;
}

TEST(Lint, StuckNetThroughRegister) {
  // A MUX whose select is stuck picks the constant arm; the FF behind it
  // then drives a constant net. The non-LUT driver variant of stuck-at.
  NetlistBuilder b("stuckreg");
  const NetId x = b.in_port("x", 8);
  const NetId picked = b.mux2(b.constant(7, 8), x, b.zero(1), 8);  // sel=0 -> 7
  b.out_port("out", b.ff(picked, kInvalidNet, 8));
  const Netlist nl = b.netlist();

  const lint::LintReport report = lint::run(nl);
  // The mux is reported as a foldable LUT; the FF output joins
  // Const(7) with reset Const(0) and is not constant -- exactly one finding.
  ASSERT_TRUE(report.has("lint-const-lut")) << report.to_string();
}

TEST(Lint, XEscapesThroughRegisterToOutput) {
  // BRAM with neither ROM contents nor a write port: reads return power-up
  // garbage. The register's reset value does not dominate (X wins the
  // join), so the X escapes to the output port.
  NetlistBuilder b("xescape");
  const NetId addr = b.in_port("addr", 4);
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, -1, "uninit");
  b.out_port("out", b.ff(data, kInvalidNet, 8));
  const Netlist nl = b.netlist();

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-x-escape")) << report.to_string();
  const auto findings = report.by_rule("lint-x-escape");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, lint::Severity::kError);
  EXPECT_NE(findings[0]->message.find("uninitialized"), std::string::npos);
  EXPECT_NE(findings[0]->message.find("'uninit'"), std::string::npos)
      << findings[0]->message;
  EXPECT_FALSE(report.clean());
}

TEST(Lint, RomBramDoesNotLeakX) {
  NetlistBuilder b("rom");
  const NetId addr = b.in_port("addr", 4);
  const std::int32_t rom = b.rom({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, rom, "coeffs");
  b.out_port("out", b.ff(data, kInvalidNet, 8));
  const lint::LintReport report = lint::run(b.netlist());
  EXPECT_TRUE(report.empty()) << report.to_string();
}

TEST(Lint, WidthMismatchAtCellPort) {
  // 16-bit adder output squeezed onto an 8-bit net.
  Netlist nl("widths");
  const NetId a = nl.add_net(16, "a");
  const NetId bnet = nl.add_net(16, "b");
  const NetId narrow = nl.add_net(8, "narrow");
  nl.add_port({"a", PortDir::kInput, 16, a});
  nl.add_port({"b", PortDir::kInput, 16, bnet});
  Cell add;
  add.type = CellType::kAdd;
  add.width = 16;
  add.name = "sum";
  const CellId add_id = nl.add_cell(std::move(add));
  nl.connect_input(add_id, 0, a);
  nl.connect_input(add_id, 1, bnet);
  nl.connect_output(add_id, 0, narrow);
  nl.add_port({"out", PortDir::kOutput, 8, narrow});

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-width-mismatch")) << report.to_string();
  EXPECT_FALSE(report.clean());
}

TEST(Lint, FloatingRequiredInputFlagged) {
  // An adder with only one operand connected.
  Netlist nl("floating");
  const NetId a = nl.add_net(8, "a");
  const NetId out = nl.add_net(8, "out");
  nl.add_port({"a", PortDir::kInput, 8, a});
  Cell add;
  add.type = CellType::kAdd;
  add.width = 8;
  add.name = "sum";
  const CellId add_id = nl.add_cell(std::move(add));
  nl.connect_input(add_id, 0, a);
  nl.connect_output(add_id, 0, out);
  nl.add_port({"out", PortDir::kOutput, 8, out});

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-floating-input")) << report.to_string();
  // The missing operand also makes the output X at the port.
  EXPECT_TRUE(report.has("lint-x-escape")) << report.to_string();
  EXPECT_FALSE(report.clean());
}

TEST(Lint, MultipleDriversFlagged) {
  Netlist nl("multidrv");
  const NetId shared = nl.add_net(1, "shared");
  for (int i = 0; i < 2; ++i) {
    Cell c;
    c.type = CellType::kConst;
    c.width = 1;
    c.init = static_cast<std::uint64_t>(i);
    const CellId id = nl.add_cell(std::move(c));
    nl.connect_output(id, 0, shared);
  }
  nl.add_port({"out", PortDir::kOutput, 1, shared});

  const lint::LintReport report = lint::run(nl);
  ASSERT_TRUE(report.has("lint-multi-driver")) << report.to_string();
  EXPECT_FALSE(report.clean());
}

// -- waivers and caps --------------------------------------------------------

TEST(Lint, WaiversKeepFindingsButNotCounts) {
  NetlistBuilder b("waived");
  const NetId addr = b.in_port("addr", 4);
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, -1, "uninit");
  b.out_port("out", data);

  lint::LintOptions opt;
  opt.waived_rules = {"lint-x-escape"};
  const lint::LintReport report = lint::run(b.netlist(), opt);
  EXPECT_TRUE(report.has("lint-x-escape"));
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.waived(), 1u);
  EXPECT_TRUE(report.clean());
  EXPECT_NO_THROW(lint::enforce(report, "test"));
}

TEST(Lint, PerRuleFindingCap) {
  NetlistBuilder b("capped");
  const NetId x = b.in_port("x", 1);
  b.out_port("out", b.ff(x, kInvalidNet, 1));
  for (int i = 0; i < 8; ++i) b.and2(x, x);  // eight dead cells
  lint::LintOptions opt;
  opt.max_findings_per_rule = 3;
  const lint::LintReport report = lint::run(b.netlist(), opt);
  EXPECT_EQ(report.by_rule("lint-dead-cell").size(), 3u);
  EXPECT_GT(report.suppressed(), 0u);
}

// -- stitch boundaries -------------------------------------------------------

TEST(Lint, StitchBoundaryWidthMismatchNamesInstances) {
  // An 8-bit producer register feeding a 16-bit consumer register. Inside
  // one component a narrower operand is legal (the fabric zero-extends),
  // so without instance info the netlist lints clean — but across a stitch
  // boundary the stream buses must agree exactly, and the finding names
  // both instances.
  Netlist whole("stitched");
  const NetId in = whole.add_net(8, "in");
  const NetId mid = whole.add_net(8, "stitch");
  const NetId out = whole.add_net(16, "out");
  whole.add_port({"in", PortDir::kInput, 8, in});
  Cell producer;
  producer.type = CellType::kFf;
  producer.width = 8;
  producer.name = "prod_ff";
  const CellId prod = whole.add_cell(std::move(producer));
  whole.connect_input(prod, 0, in);
  whole.connect_output(prod, 0, mid);
  Cell consumer;
  consumer.type = CellType::kFf;
  consumer.width = 16;
  consumer.name = "cons_ff";
  const CellId cons = whole.add_cell(std::move(consumer));
  whole.connect_input(cons, 0, mid);
  whole.connect_output(cons, 0, out);
  whole.add_port({"out", PortDir::kOutput, 16, out});

  EXPECT_TRUE(lint::run(whole).empty()) << "no instances: in-component widening is legal";

  lint::LintOptions opt;
  opt.instances = {{"producer", prod, prod + 1, in, out},
                   {"consumer", cons, cons + 1, out, out + 1}};
  const lint::LintReport report = lint::run(whole, opt);
  ASSERT_TRUE(report.has("lint-width-mismatch")) << report.to_string();
  const auto findings = report.by_rule("lint-width-mismatch");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0]->message.find("stitch boundary 'producer' -> 'consumer'"),
            std::string::npos)
      << findings[0]->message;
}

// -- the false-positive contract ---------------------------------------------

/// Service options with the OOC lint gate on: it runs over every
/// checkpoint as it is built.
ServiceOptions linted_builds() {
  ServiceOptions opt;
  opt.ooc.lint = true;
  return opt;
}

struct CleanFlow {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  CheckpointStore store;
  CompileService service{device, store, linted_builds()};

  explicit CleanFlow(CnnModel m, long dsp_budget, int max_tile = 32) : model(std::move(m)) {
    impl = choose_implementation(model, dsp_budget, max_tile);
    groups = default_grouping(model);
  }

  /// The pre-implemented flow with the composed-design lint gate on (the
  /// gate throws on error findings).
  PreImplReport linted_preimpl() {
    PreImplOptions opt;
    opt.lint = true;
    return service.compile(model, impl, groups, opt).report;
  }
};

TEST(LintClean, LeNetPreImplAndMonolithic) {
  CleanFlow f(make_lenet5(), 64);
  const PreImplReport pre = f.linted_preimpl();
  EXPECT_TRUE(pre.lint.empty()) << pre.lint.to_string();
  EXPECT_GE(pre.lint.rules_run(), 9u);

  Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
  PhysState phys;
  MonoOptions mono_opt;
  mono_opt.lint = true;
  const MonoReport mono = run_monolithic_flow(f.device, flat, phys, mono_opt);
  EXPECT_TRUE(mono.lint.empty()) << mono.lint.to_string();
}

TEST(LintClean, ResblockPreImpl) {
  CleanFlow f(make_resblock_net(), 64);
  const PreImplReport pre = f.linted_preimpl();
  EXPECT_TRUE(pre.lint.empty()) << pre.lint.to_string();
}

TEST(LintClean, Vgg16PreImpl) {
  // The VGG example's quick configuration (small tiles, streamed weights).
  CleanFlow f(make_vgg16(), 384, 14);
  const PreImplReport pre = f.linted_preimpl();
  EXPECT_TRUE(pre.lint.empty()) << pre.lint.to_string();
}

// -- determinism -------------------------------------------------------------

TEST(Lint, JsonReportIsDeterministic) {
  CleanFlow f(parse_arch_def(R"(network mini
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=2 k=3
)"),
              12);
  const ComposedDesign first = f.service.compile(f.model, f.impl, f.groups).design;
  const ComposedDesign second = f.service.compile(f.model, f.impl, f.groups).design;
  const std::string json_a = lint::run(first.netlist).to_json();
  const std::string json_b = lint::run(second.netlist).to_json();
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(json_a.find("seconds"), std::string::npos) << "timing must stay out of JSON";
}

TEST(Lint, FindingOrderFollowsRuleRegistration) {
  // A netlist tripping several rules reports them grouped in rules() order.
  NetlistBuilder b("ordered");
  const NetId x = b.in_port("x", 8);
  b.and2(x, x);  // dead cell
  const NetId masked = b.op2(LutOp::kAnd, x, b.zero(8), 8);  // const lut
  b.out_port("out", masked);
  const lint::LintReport report = lint::run(b.netlist());
  const std::vector<std::string> ids = rule_ids(report);
  ASSERT_GE(ids.size(), 2u);
  std::vector<std::size_t> ranks;
  for (const std::string& id : ids) {
    const auto& table = lint::rules();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (id == table[i].id) ranks.push_back(i);
    }
  }
  EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end()));
}

}  // namespace
}  // namespace fpgasim
