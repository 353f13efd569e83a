#include "synth/kernels.h"

#include <functional>
#include <vector>

#include "synth/builder.h"
#include "synth/layers.h"

namespace fpgasim {

const char* to_string(KernelApp app) {
  switch (app) {
    case KernelApp::kMatrixMult: return "MM";
    case KernelApp::kOuterProduct: return "OP";
    case KernelApp::kRobertCross: return "RC";
    case KernelApp::kSmoothing: return "SM";
  }
  return "?";
}

namespace {

/// |x| built from two rectifiers: relu(x) + relu(-x).
NetId abs_net(NetlistBuilder& b, NetId x) {
  const NetId neg = b.sub(b.zero(kDataW), x, kDataW);
  return b.add(b.relu(x, kDataW), b.relu(neg, kDataW), kDataW);
}

/// Shared scaffold: LOAD n_in words into a register file, one COMPUTE
/// cycle capturing the combinational PE outputs, DRAIN the results.
Netlist make_pe_block(const std::string& name, int n_in,
                      const std::function<std::vector<NetId>(NetlistBuilder&,
                                                             const std::vector<NetId>&)>&
                          compute) {
  NetlistBuilder b(name);
  const NetId in_data = b.in_port("in_data", kDataW);
  const NetId in_valid = b.in_port("in_valid", 1);
  const NetId out_ready = b.in_port("out_ready", 1);

  // 2-bit FSM: 0 = LOAD, 1 = COMPUTE (single cycle), 2 = DRAIN.
  const NetlistBuilder::Reg state = b.reg(2, {}, "state");
  const NetId is_load = b.eq(state.q, b.constant(0, 2));
  const NetId is_compute = b.eq(state.q, b.constant(1, 2));
  const NetId is_drain = b.eq(state.q, b.constant(2, 2));

  // LOAD: register file.
  const NetId wr = b.and2(is_load, in_valid);
  const auto lcnt = b.counter(static_cast<std::uint32_t>(n_in), wr, 8, "lcnt");
  const std::vector<NetId> slot_en = b.decode(lcnt.value, static_cast<std::size_t>(n_in));
  std::vector<NetId> slots;
  slots.reserve(static_cast<std::size_t>(n_in));
  for (int i = 0; i < n_in; ++i) {
    slots.push_back(b.ff(in_data, b.and2(wr, slot_en[static_cast<std::size_t>(i)]), kDataW));
  }

  // COMPUTE: the 3x3 PE fabric, outputs captured in result registers.
  const std::vector<NetId> pe_out = compute(b, slots);
  std::vector<NetId> results;
  results.reserve(pe_out.size());
  for (NetId out : pe_out) results.push_back(b.ff(out, is_compute, kDataW));

  // DRAIN: combinational register-file read (no prefetch skew).
  const NetId streaming = b.and2(is_drain, out_ready);
  const auto dcnt =
      b.counter(static_cast<std::uint32_t>(results.size()), streaming, 8, "dcnt");
  const NetId out_data = b.muxn(results, dcnt.value, kDataW);

  NetId next_state = state.q;
  next_state = b.mux2(next_state, b.constant(1, 2), b.and2(is_load, lcnt.wrap), 2);
  next_state = b.mux2(next_state, b.constant(2, 2), is_compute, 2);
  next_state = b.mux2(next_state, b.constant(0, 2), b.and2(is_drain, dcnt.wrap), 2);
  b.drive(state, next_state, b.one());

  b.out_port("in_ready", is_load);
  b.out_port("out_data", out_data);
  b.out_port("out_valid", streaming);
  return std::move(b).take();
}

}  // namespace

Netlist make_kernel_component(KernelApp app, const std::string& name) {
  switch (app) {
    case KernelApp::kMatrixMult:
      // Inputs: A row-major (9), then B row-major (9). PE(i,j) computes
      // the dot product of A row i and B column j on a DSP cascade.
      return make_pe_block(name, 18, [](NetlistBuilder& b, const std::vector<NetId>& s) {
        std::vector<NetId> out;
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            NetId acc = kInvalidNet;
            for (int k = 0; k < 3; ++k) {
              const NetId a = s[static_cast<std::size_t>(3 * i + k)];
              const NetId bb = s[static_cast<std::size_t>(9 + 3 * k + j)];
              acc = b.dsp(a, bb, acc, kFixedFrac, 0, kDataW);
            }
            out.push_back(acc);
          }
        }
        return out;
      });
    case KernelApp::kOuterProduct:
      // Inputs: a (3), b (3); PE(i,j) = a_i * b_j.
      return make_pe_block(name, 6, [](NetlistBuilder& b, const std::vector<NetId>& s) {
        std::vector<NetId> out;
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            out.push_back(b.dsp(s[static_cast<std::size_t>(i)],
                                s[static_cast<std::size_t>(3 + j)], kInvalidNet, kFixedFrac,
                                0, kDataW));
          }
        }
        return out;
      });
    case KernelApp::kRobertCross:
      // Inputs: 4x4 image tile; PE(i,j) applies the Roberts cross operator
      // |p(i,j)-p(i+1,j+1)| + |p(i+1,j)-p(i,j+1)| on its 2x2 window.
      return make_pe_block(name, 16, [](NetlistBuilder& b, const std::vector<NetId>& s) {
        auto px = [&](int y, int x) { return s[static_cast<std::size_t>(4 * y + x)]; };
        std::vector<NetId> out;
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            const NetId gx = b.sub(px(i, j), px(i + 1, j + 1), kDataW);
            const NetId gy = b.sub(px(i + 1, j), px(i, j + 1), kDataW);
            out.push_back(b.add(abs_net(b, gx), abs_net(b, gy), kDataW));
          }
        }
        return out;
      });
    case KernelApp::kSmoothing:
      // Inputs: 5x5 tile; PE(i,j) = (sum of its 3x3 neighbourhood) / 8
      // (power-of-two smoothing kernel).
      return make_pe_block(name, 25, [](NetlistBuilder& b, const std::vector<NetId>& s) {
        auto px = [&](int y, int x) { return s[static_cast<std::size_t>(5 * y + x)]; };
        std::vector<NetId> out;
        for (int i = 0; i < 3; ++i) {
          for (int j = 0; j < 3; ++j) {
            std::vector<NetId> terms;
            for (int dy = 0; dy < 3; ++dy) {
              for (int dx = 0; dx < 3; ++dx) terms.push_back(px(i + dy, j + dx));
            }
            const NetId sum = b.adder_tree(std::move(terms), kDataW);
            out.push_back(b.dsp(sum, b.constant(1, kDataW), kInvalidNet, 3, 0, kDataW));
          }
        }
        return out;
      });
  }
  return Netlist{};
}

}  // namespace fpgasim
