#include "synth/layers.h"

#include <cassert>
#include <stdexcept>

#include "synth/builder.h"

namespace fpgasim {
namespace {

// Component FSM states (Sec. IV-B3 execution schedule).
constexpr std::uint64_t kStLoad = 0;
constexpr std::uint64_t kStCompute = 1;
constexpr std::uint64_t kStDrain = 2;

std::vector<std::uint64_t> to_rom_words(const std::vector<Fixed16>& values) {
  std::vector<std::uint64_t> words;
  words.reserve(values.size());
  for (Fixed16 v : values) {
    words.push_back(static_cast<std::uint64_t>(static_cast<std::uint16_t>(v.raw)));
  }
  return words;
}

/// Loop bounds of a windowed engine's COMPUTE sweep (conv, dwconv, pools).
struct WindowShape {
  int kernel_h = 1, kernel_w = 1;
  int stride_y = 1, stride_x = 1;
  int in_h = 1, in_w = 1;
  int out_h = 1, out_w = 1;
  int planes = 1;     // outermost counter: channels (c2), or conv's output groups (ocg)
  int in_groups = 0;  // conv only: input-channel groups summed per output pixel (icg)
};

struct WindowSweep {
  NetlistBuilder::Counter kx, ky, icg, plane;
  NetId complete = kInvalidNet;      // the output pixel's last term issues
  NetId compute_done = kInvalidNet;  // the layer's last term issues
  NetId first = kInvalidNet;         // the term is its output pixel's first
  NetId rd_addr = kInvalidNet;       // input feature-map address of the term
};

/// Single-bank source controller: the channel-major input image lands in
/// one "ifm" BRAM (channels are processed sequentially).
struct SingleBankSource {
  NetId load_addr = kInvalidNet;
  NetId load_done = kInvalidNet;
  std::uint32_t words = 0;
};

/// The load -> [compute ->] drain controller every layer engine shares
/// (Sec. IV-B3). The constructor declares the stream ports and the state
/// register and decodes the states; the engine then builds its source,
/// datapath and sink, and finish() closes the next-state logic and emits
/// the ports. The netlist serializes cells and nets in creation order, so
/// an engine calls start_drain() and register_output() where its datapath
/// needs them.
class StreamLayer {
 public:
  enum Phases { kLoadDrain, kLoadComputeDrain };
  /// kJoin: the engine declares one input stream per operand itself
  /// (make_join_port), so only out_ready is declared here.
  enum Inputs { kOneStream, kJoin };

  StreamLayer(std::string name, Phases phases, Inputs inputs = kOneStream);

  NetlistBuilder b;
  NetId in_data = kInvalidNet, in_valid = kInvalidNet, out_ready = kInvalidNet;
  NetId is_load = kInvalidNet, is_compute = kInvalidNet, is_drain = kInvalidNet;
  NetId wr = kInvalidNet;         // LOAD accepts a word: is_load & in_valid
  NetId streaming = kInvalidNet;  // DRAIN emits a word: is_drain & out_ready

  NetId start_drain() {
    streaming = b.and2(is_drain, out_ready);
    return streaming;
  }

  /// Output register at the stream boundary (ob_reg): breaks the
  /// BRAM->mux->wire path before it leaves the component (interface
  /// timing, Sec. IV-A2). out_valid is `streaming` delayed by the BRAM read
  /// and ob_reg; with `defer_valid` finish() creates it after the
  /// next-state logic instead (the upsample engine's cell order).
  void register_output(NetId data, bool defer_valid = false) {
    out_data_ = b.ff(data, kInvalidNet, kDataW, "ob_reg");
    if (!defer_valid) out_valid_ = b.delay(streaming, 2, 1);
  }

  SingleBankSource single_bank_source(int channels, int h, int w);
  NetId read_ifm(const SingleBankSource& src, NetId rd_addr) {
    return b.bram(src.load_addr, in_data, wr, src.words, kDataW, -1, "ifm", rd_addr);
  }
  WindowSweep sweep(const WindowShape& shape);
  /// Single-bank sink: results land in one "ofm" BRAM at out_idx (advanced
  /// by `complete`) and drain in raster order. Returns the drain-done pulse.
  NetId single_bank_sink(NetId result, NetId complete, std::uint32_t words);

  /// Closes the FSM: LOAD leaves on load_done, COMPUTE on compute_done
  /// (none for a two-phase engine), DRAIN on drain_done.
  Netlist finish(NetId load_done, NetId drain_done, NetId compute_done = kInvalidNet);

 private:
  NetlistBuilder::Reg state_;
  NetId out_data_ = kInvalidNet, out_valid_ = kInvalidNet;
};

StreamLayer::StreamLayer(std::string name, Phases phases, Inputs inputs) : b(std::move(name)) {
  if (inputs == kOneStream) {
    in_data = b.in_port("in_data", kDataW);
    in_valid = b.in_port("in_valid", 1);
  }
  out_ready = b.in_port("out_ready", 1);
  state_ = b.reg(2, "fsm_state", "state");
  is_load = b.eq(state_.q, b.constant(kStLoad, 2));
  if (phases == kLoadComputeDrain) is_compute = b.eq(state_.q, b.constant(kStCompute, 2));
  is_drain = b.eq(state_.q, b.constant(kStDrain, 2));
  if (inputs == kOneStream) wr = b.and2(is_load, in_valid);
}

SingleBankSource StreamLayer::single_bank_source(int channels, int h, int w) {
  const auto pix = b.counter(static_cast<std::uint32_t>(h) * w, wr, kAddrW, "ld_pix");
  const auto ch = b.counter(static_cast<std::uint32_t>(channels), pix.wrap, kAddrW, "ld_ch");
  SingleBankSource src;
  src.load_addr = b.mul_const_add(ch.value, static_cast<std::uint64_t>(h) * w, pix.value, kAddrW);
  src.load_done = ch.wrap;
  src.words = static_cast<std::uint32_t>(channels) * h * w;
  return src;
}

WindowSweep StreamLayer::sweep(const WindowShape& w) {
  // The sweep freezes once the last term has issued (done_latch): the
  // datapath needs its flush cycles before DRAIN, and the counters must
  // re-enter COMPUTE at zero for the next image.
  const NetlistBuilder::Reg done_latch = b.reg(1, "done_latch");
  const NetId sweeping = b.and2(is_compute, b.not1(done_latch.q));
  const bool grouped = w.in_groups > 0;
  WindowSweep s;
  s.kx = b.counter(static_cast<std::uint32_t>(w.kernel_w), sweeping, 8, "kx");
  s.ky = b.counter(static_cast<std::uint32_t>(w.kernel_h), s.kx.wrap, 8, "ky");
  s.complete = s.ky.wrap;
  if (grouped) {
    s.icg = b.counter(static_cast<std::uint32_t>(w.in_groups), s.ky.wrap, 8, "icg");
    s.complete = s.icg.wrap;
  }
  const auto ox = b.counter(static_cast<std::uint32_t>(w.out_w), s.complete, kAddrW, "ox");
  const auto oy = b.counter(static_cast<std::uint32_t>(w.out_h), ox.wrap, kAddrW, "oy");
  s.plane = grouped ? b.counter(static_cast<std::uint32_t>(w.planes), oy.wrap, 8, "ocg")
                    : b.counter(static_cast<std::uint32_t>(w.planes), oy.wrap, kAddrW, "c2");
  s.compute_done = s.plane.wrap;
  const NetId latch_next = b.and2(is_compute, b.or2(done_latch.q, s.compute_done));
  b.drive(done_latch, latch_next, b.one());
  // The conv's icg == 0 term is created before the kx/ky compares, as the
  // pinned netlists order it.
  const NetId icg_zero = grouped ? b.eq(s.icg.value, b.zero(8)) : kInvalidNet;
  s.first = b.and2(b.eq(s.kx.value, b.zero(8)), b.eq(s.ky.value, b.zero(8)));
  if (grouped) s.first = b.and2(s.first, icg_zero);

  // Input addressing: the MMU "jogging around the input data". LUT/carry
  // shift-add arithmetic; its logic depth grows with the feature-map
  // dimensions, which is one of the things that makes bigger layers close
  // timing lower.
  const NetId iy = b.mul_const_add(oy.value, static_cast<std::uint64_t>(w.stride_y),
                                   s.ky.value, kAddrW);
  const NetId ix = b.mul_const_add(ox.value, static_cast<std::uint64_t>(w.stride_x),
                                   s.kx.value, kAddrW);
  const NetId row = b.mul_const_add(iy, static_cast<std::uint64_t>(w.in_w), ix, kAddrW);
  s.rd_addr = b.mul_const_add(grouped ? s.icg.value : s.plane.value,
                              static_cast<std::uint64_t>(w.in_h) * w.in_w, row, kAddrW);
  return s;
}

NetId StreamLayer::single_bank_sink(NetId result, NetId complete, std::uint32_t words) {
  const auto out_idx = b.counter(words, complete, kAddrW, "out_idx");
  const auto opix = b.counter(words, start_drain(), kAddrW, "opix");
  const NetId ofm =
      b.bram(out_idx.value, result, complete, words, kDataW, -1, "ofm", opix.value);
  register_output(ofm);
  return opix.wrap;
}

Netlist StreamLayer::finish(NetId load_done, NetId drain_done, NetId compute_done) {
  const bool three_phase = is_compute != kInvalidNet;
  NetId next = state_.q;
  next = b.mux2(next, b.constant(three_phase ? kStCompute : kStDrain, 2),
                b.and2(is_load, load_done), 2);
  if (three_phase) next = b.mux2(next, b.constant(kStDrain, 2), compute_done, 2);
  next = b.mux2(next, b.constant(kStLoad, 2), b.and2(is_drain, drain_done), 2);
  b.drive(state_, next, b.one());
  if (out_valid_ == kInvalidNet) out_valid_ = b.delay(streaming, 2, 1);

  if (in_data != kInvalidNet) b.out_port("in_ready", is_load);
  b.out_port("out_data", out_data_);
  b.out_port("out_valid", out_valid_);
  return std::move(b).take();
}

}  // namespace

Netlist make_conv_component(const ConvParams& p, const std::vector<Fixed16>& weights,
                            const std::vector<Fixed16>& bias) {
  if (p.in_c % p.ic_par != 0 || p.out_c % p.oc_par != 0) {
    throw std::invalid_argument("conv: channel counts must divide parallelism");
  }
  if (p.materialize_roms) {
    assert(weights.size() ==
           static_cast<std::size_t>(p.out_c) * p.in_c * p.kernel * p.kernel);
    assert(bias.size() == static_cast<std::size_t>(p.out_c));
  }
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int icg_n = p.in_c / p.ic_par;
  const int ocg_n = p.out_c / p.oc_par;
  const int lat = 1 + p.dsp_stages;  // BRAM read + DSP pipeline

  StreamLayer s(p.name, StreamLayer::kLoadComputeDrain);
  NetlistBuilder& b = s.b;

  // ---------------- source controller (LOAD) ----------------
  const auto pix = b.counter(static_cast<std::uint32_t>(H) * W, s.wr, kAddrW, "ld_pix");
  const auto lane = b.counter(static_cast<std::uint32_t>(p.ic_par), pix.wrap, 8, "ld_lane");
  const auto grp = b.counter(static_cast<std::uint32_t>(icg_n), lane.wrap, 8, "ld_grp");
  const NetId load_addr =
      b.mul_const_add(grp.value, static_cast<std::uint64_t>(H) * W, pix.value, kAddrW);
  const std::vector<NetId> lane_sel = b.decode(lane.value, static_cast<std::size_t>(p.ic_par));

  // ---------------- compute counters ----------------
  const WindowSweep sw = s.sweep({.kernel_h = K, .kernel_w = K,
                                  .stride_y = p.stride, .stride_x = p.stride,
                                  .in_h = H, .in_w = W, .out_h = Ho, .out_w = Wo,
                                  .planes = ocg_n, .in_groups = icg_n});

  // Weight index; with a partial weight buffer the oc-group term is folded
  // away (the MMU refills the buffer per group in that configuration).
  const int wb_groups = (p.weight_buffer_ocg > 0 && p.weight_buffer_ocg < ocg_n)
                            ? p.weight_buffer_ocg
                            : ocg_n;
  NetId widx = kInvalidNet;
  if (wb_groups == ocg_n) {
    const NetId t1 = b.mul_const_add(sw.plane.value, static_cast<std::uint64_t>(icg_n),
                                     sw.icg.value, kAddrW);
    const NetId t2 = b.mul_const_add(t1, static_cast<std::uint64_t>(K), sw.ky.value, kAddrW);
    widx = b.mul_const_add(t2, static_cast<std::uint64_t>(K), sw.kx.value, kAddrW);
  } else {
    const NetId t2 =
        b.mul_const_add(sw.icg.value, static_cast<std::uint64_t>(K), sw.ky.value, kAddrW);
    widx = b.mul_const_add(t2, static_cast<std::uint64_t>(K), sw.kx.value, kAddrW);
  }
  const std::uint32_t weight_depth =
      static_cast<std::uint32_t>(wb_groups) * icg_n * K * K;

  // ---------------- input feature-map banks ----------------
  std::vector<NetId> x_lane(static_cast<std::size_t>(p.ic_par));
  for (int l = 0; l < p.ic_par; ++l) {
    const NetId we = b.and2(s.wr, lane_sel[static_cast<std::size_t>(l)]);
    x_lane[static_cast<std::size_t>(l)] =
        b.bram(load_addr, s.in_data, we, static_cast<std::uint32_t>(icg_n) * H * W, kDataW,
               -1, "ifm_bank" + std::to_string(l), sw.rd_addr);
  }

  // ---------------- compute units ----------------
  const NetId term_valid_dl = b.delay(s.is_compute, lat, 1);
  const NetId first_dl = b.delay(sw.first, lat, 1);
  const NetId complete_dl = b.delay(b.and2(sw.complete, s.is_compute), lat, 1);
  const NetId done_dl = b.delay(b.and2(sw.compute_done, s.is_compute), lat, 1);
  const NetId bias_addr = b.delay(sw.plane.value, lat - 1, 8);

  // Sink-side output index, shared across CU columns.
  const auto out_idx = b.counter(static_cast<std::uint32_t>(ocg_n) * Ho * Wo, complete_dl,
                                 kAddrW, "out_idx");

  // Drain counters (declared before the banks so the read address exists).
  const NetId streaming = s.start_drain();
  const auto opix = b.counter(static_cast<std::uint32_t>(Ho) * Wo, streaming, kAddrW, "opix");
  const auto olane = b.counter(static_cast<std::uint32_t>(p.oc_par), opix.wrap, 8, "olane");
  const auto ogrp = b.counter(static_cast<std::uint32_t>(ocg_n), olane.wrap, 8, "ogrp");
  const NetId drain_raddr = b.mul_const_add(
      ogrp.value, static_cast<std::uint64_t>(Ho) * Wo, opix.value, kAddrW);

  std::vector<NetId> bank_out(static_cast<std::size_t>(p.oc_par));
  for (int j = 0; j < p.oc_par; ++j) {
    // One weight ROM / buffer and one DSP MAC per (CU column, PE lane).
    std::vector<NetId> products;
    products.reserve(static_cast<std::size_t>(p.ic_par));
    for (int l = 0; l < p.ic_par; ++l) {
      std::int32_t rom_id = -1;
      if (p.materialize_roms && wb_groups == ocg_n) {
        std::vector<std::uint64_t> words(weight_depth, 0);
        for (int og = 0; og < ocg_n; ++og) {
          for (int ig = 0; ig < icg_n; ++ig) {
            for (int kyy = 0; kyy < K; ++kyy) {
              for (int kxx = 0; kxx < K; ++kxx) {
                const int oc = og * p.oc_par + j;
                const int ic = ig * p.ic_par + l;
                const std::size_t src =
                    static_cast<std::size_t>(((oc * p.in_c + ic) * K + kyy) * K + kxx);
                const std::size_t dst =
                    static_cast<std::size_t>(((og * icg_n + ig) * K + kyy) * K + kxx);
                words[dst] = static_cast<std::uint16_t>(weights[src].raw);
              }
            }
          }
        }
        rom_id = b.rom(std::move(words));
      }
      const NetId w_net =
          b.bram(widx, kInvalidNet, kInvalidNet, weight_depth, kDataW, rom_id,
                 "wrom_" + std::to_string(j) + "_" + std::to_string(l));
      products.push_back(b.dsp(w_net, x_lane[static_cast<std::size_t>(l)], kInvalidNet,
                               kFixedFrac, p.dsp_stages, kDataW,
                               "mac_" + std::to_string(j) + "_" + std::to_string(l)));
    }
    const NetId partial = b.adder_tree(products, kDataW);

    // Accumulator: acc <- (first ? 0 : acc) + partial.
    const NetlistBuilder::Reg acc = b.reg(kDataW, "acc" + std::to_string(j));
    const NetId acc_base = b.mux2(acc.q, b.zero(kDataW), first_dl, kDataW);
    const NetId acc_next = b.add(acc_base, partial, kDataW);
    b.drive(acc, acc_next, term_valid_dl);

    // Bias ROM per CU column.
    std::int32_t bias_rom = -1;
    if (p.materialize_roms) {
      std::vector<std::uint64_t> words(static_cast<std::size_t>(ocg_n), 0);
      for (int og = 0; og < ocg_n; ++og) {
        words[static_cast<std::size_t>(og)] =
            static_cast<std::uint16_t>(bias[static_cast<std::size_t>(og * p.oc_par + j)].raw);
      }
      bias_rom = b.rom(std::move(words));
    }
    const NetId bias_net = b.bram(bias_addr, kInvalidNet, kInvalidNet,
                                  static_cast<std::uint32_t>(ocg_n), kDataW, bias_rom,
                                  "brom" + std::to_string(j));
    NetId result = b.add(acc_next, bias_net, kDataW);
    if (p.fuse_relu) result = b.relu(result, kDataW);

    // Sink: banked output feature-map memory.
    bank_out[static_cast<std::size_t>(j)] =
        b.bram(out_idx.value, result, complete_dl, static_cast<std::uint32_t>(ocg_n) * Ho * Wo,
               kDataW, -1, "ofm_bank" + std::to_string(j), drain_raddr);
  }

  s.register_output(b.muxn(bank_out, b.delay(olane.value, 1, 8), kDataW));
  return s.finish(grp.wrap, ogrp.wrap, done_dl);
}

Netlist make_fc_component(const std::string& name, int inputs, int outputs,
                          const std::vector<Fixed16>& weights,
                          const std::vector<Fixed16>& bias, int in_par, int out_par,
                          bool materialize_roms, int weight_buffer_ocg, bool fuse_relu) {
  // FC == convolution whose kernel covers the whole (1x1) input of
  // `inputs` channels.
  ConvParams p;
  p.name = name;
  p.in_c = inputs;
  p.out_c = outputs;
  p.kernel = 1;
  p.in_h = 1;
  p.in_w = 1;
  p.ic_par = in_par;
  p.oc_par = out_par;
  p.fuse_relu = fuse_relu;
  p.materialize_roms = materialize_roms;
  p.weight_buffer_ocg = weight_buffer_ocg;
  return make_conv_component(p, weights, bias);
}

Netlist make_dwconv_component(const DwConvParams& p, const std::vector<Fixed16>& weights,
                              const std::vector<Fixed16>& bias) {
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;
  const int lat = 1 + p.dsp_stages;  // BRAM read + DSP pipeline
  assert(weights.size() == static_cast<std::size_t>(C) * K * K);
  assert(bias.size() == static_cast<std::size_t>(C));

  StreamLayer s(p.name, StreamLayer::kLoadComputeDrain);
  NetlistBuilder& b = s.b;
  const SingleBankSource src = s.single_bank_source(C, H, W);
  // Pool-style window sweep with a stride-decoupled window.
  const WindowSweep sw = s.sweep({.kernel_h = K, .kernel_w = K,
                                  .stride_y = p.stride, .stride_x = p.stride,
                                  .in_h = H, .in_w = W, .out_h = Ho, .out_w = Wo, .planes = C});
  const NetId ifm = s.read_ifm(src, sw.rd_addr);

  // One weight ROM and one DSP MAC, shared by every channel.
  const NetId t1 =
      b.mul_const_add(sw.plane.value, static_cast<std::uint64_t>(K), sw.ky.value, kAddrW);
  const NetId widx = b.mul_const_add(t1, static_cast<std::uint64_t>(K), sw.kx.value, kAddrW);
  const NetId w_net = b.bram(widx, kInvalidNet, kInvalidNet,
                             static_cast<std::uint32_t>(C) * K * K, kDataW,
                             b.rom(to_rom_words(weights)), "wrom");
  const NetId product =
      b.dsp(w_net, ifm, kInvalidNet, kFixedFrac, p.dsp_stages, kDataW, "mac");

  const NetId term_valid_dl = b.delay(s.is_compute, lat, 1);
  const NetId first_dl = b.delay(sw.first, lat, 1);
  const NetId complete_dl = b.delay(b.and2(sw.complete, s.is_compute), lat, 1);
  const NetId done_dl = b.delay(b.and2(sw.compute_done, s.is_compute), lat, 1);
  const NetId bias_addr = b.delay(sw.plane.value, lat - 1, kAddrW);

  // Accumulator: acc <- (first ? 0 : acc) + product (the conv-engine idiom).
  const NetlistBuilder::Reg acc = b.reg(kDataW, "acc");
  const NetId acc_base = b.mux2(acc.q, b.zero(kDataW), first_dl, kDataW);
  const NetId acc_next = b.add(acc_base, product, kDataW);
  b.drive(acc, acc_next, term_valid_dl);

  const NetId bias_net = b.bram(bias_addr, kInvalidNet, kInvalidNet,
                                static_cast<std::uint32_t>(C), kDataW,
                                b.rom(to_rom_words(bias)), "brom");
  NetId result = b.add(acc_next, bias_net, kDataW);
  if (p.fuse_relu) result = b.relu(result, kDataW);

  const NetId drain_done =
      s.single_bank_sink(result, complete_dl, static_cast<std::uint32_t>(C) * Ho * Wo);
  return s.finish(src.load_done, drain_done, done_dl);
}

Netlist make_avgpool_component(const AvgPoolParams& p) {
  const int Kh = p.kernel_h, Kw = p.kernel_w, H = p.in_h, W = p.in_w;
  const int Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;
  const int count = Kh * Kw;
  if (Kh <= 0 || Kw <= 0 || H % Kh != 0 || W % Kw != 0) {
    throw std::invalid_argument("avgpool: window must tile the input");
  }
  if ((count & (count - 1)) != 0 || count > 256) {
    throw std::invalid_argument(
        "avgpool: window size must be a power of two <= 256 (shift divider)");
  }
  int shift = 0;
  while ((1 << shift) < count) ++shift;
  // Accumulator width: 256 terms of |raw| <= 2^15 peak at 2^23, the int24
  // boundary, so the window sum is exact (no wrap, no clamp).
  constexpr std::uint16_t kAccW = 24;

  StreamLayer s(p.name, StreamLayer::kLoadComputeDrain);
  NetlistBuilder& b = s.b;
  const SingleBankSource src = s.single_bank_source(C, H, W);
  const WindowSweep sw = s.sweep({.kernel_h = Kh, .kernel_w = Kw, .stride_y = Kh, .stride_x = Kw,
                                  .in_h = H, .in_w = W, .out_h = Ho, .out_w = Wo, .planes = C});
  const NetId ifm = s.read_ifm(src, sw.rd_addr);

  // Window accumulator. Reading a 16-bit net into a 24-bit cell zero-pads,
  // so negative Q8.8 samples need an explicit sign-extension gadget before
  // they enter the adder.
  const NetId first_d1 = b.delay(sw.first, 1, 1);
  const NetId complete_d1 = b.delay(b.and2(sw.complete, s.is_compute), 1, 1);
  const NetId done_d1 = b.delay(b.and2(sw.compute_done, s.is_compute), 1, 1);
  const NetId en_d1 = b.delay(s.is_compute, 1, 1);

  const NetId zext = b.op2(LutOp::kPass, ifm, ifm, kAccW);
  const NetId hi_mask = b.constant(0xFF0000, kAccW);
  const NetId ext = b.mux2(zext, b.op2(LutOp::kOr, zext, hi_mask, kAccW),
                           b.bit(ifm, kDataW - 1), kAccW, "sext");

  const NetlistBuilder::Reg acc = b.reg(kAccW, "acc");
  const NetId acc_base = b.mux2(acc.q, b.zero(kAccW), first_d1, kAccW);
  const NetId acc_next = b.add(acc_base, ext, kAccW);
  b.drive(acc, acc_next, en_d1);

  // Divide by the window size: floor via an arithmetic-shift DSP (b == 1,
  // shift == log2(count)), then adjust the floor quotient to
  // round-to-nearest-even on the masked-off remainder — bit-exact with
  // div_rne for power-of-two denominators.
  NetId quotient = acc_next;
  if (shift > 0) {
    const NetId q0 =
        b.dsp(acc_next, b.constant(1, kAccW), kInvalidNet, shift, 0, kAccW, "avg_shift");
    const NetId rem = b.op2(LutOp::kAnd, acc_next,
                            b.constant((1ULL << shift) - 1, kAccW), kAccW);
    const NetId half = b.constant(1ULL << (shift - 1), kAccW);
    const NetId above = b.ltu(half, rem);
    const NetId tie = b.and2(b.eq(rem, half), b.bit(q0, 0));
    const NetId bump = b.mux2(b.zero(kAccW), b.constant(1, kAccW),
                              b.or2(above, tie), kAccW);
    quotient = b.add(q0, bump, kAccW);
  }
  // The mean of Q8.8 samples is in Q8.8 range, so the low 16 bits are the
  // exact result.
  NetId result = b.op2(LutOp::kPass, quotient, quotient, kDataW);
  if (p.fuse_relu) result = b.relu(result, kDataW);

  const NetId drain_done =
      s.single_bank_sink(result, complete_d1, static_cast<std::uint32_t>(C) * Ho * Wo);
  return s.finish(src.load_done, drain_done, done_d1);
}

Netlist make_upsample_component(const std::string& name, int channels, int in_h, int in_w,
                                int factor, bool fuse_relu) {
  if (factor <= 0) throw std::invalid_argument("upsample: factor must be positive");
  const int C = channels, H = in_h, W = in_w, F = factor;

  // LOAD -> DRAIN store-and-forward: the drain replays each pixel F times
  // per output row and each source row F times.
  StreamLayer s(name, StreamLayer::kLoadDrain);
  NetlistBuilder& b = s.b;
  const auto wpix = b.counter(static_cast<std::uint32_t>(C) * H * W, s.wr, kAddrW, "wpix");

  // Output raster (c, y, x) with y = yb*F + ys, x = xb*F + xs: the x
  // replica is the fastest digit, then the source column, the y replica,
  // the source row, and the channel.
  const auto xs = b.counter(static_cast<std::uint32_t>(F), s.start_drain(), 8, "xs");
  const auto xb = b.counter(static_cast<std::uint32_t>(W), xs.wrap, kAddrW, "xb");
  const auto ys = b.counter(static_cast<std::uint32_t>(F), xb.wrap, 8, "ys");
  const auto yb = b.counter(static_cast<std::uint32_t>(H), ys.wrap, kAddrW, "yb");
  const auto c2 = b.counter(static_cast<std::uint32_t>(C), yb.wrap, kAddrW, "c2");
  const NetId row = b.mul_const_add(yb.value, static_cast<std::uint64_t>(W), xb.value, kAddrW);
  const NetId raddr =
      b.mul_const_add(c2.value, static_cast<std::uint64_t>(H) * W, row, kAddrW);

  const NetId buf = b.bram(wpix.value, s.in_data, s.wr, static_cast<std::uint32_t>(C) * H * W,
                           kDataW, -1, "buf", raddr);
  NetId result = buf;
  if (fuse_relu) result = b.relu(result, kDataW);
  s.register_output(result, /*defer_valid=*/true);
  return s.finish(wpix.wrap, c2.wrap);
}

Netlist make_pool_component(const PoolParams& p) {
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;

  StreamLayer s(p.name, StreamLayer::kLoadComputeDrain);
  NetlistBuilder& b = s.b;
  const SingleBankSource src = s.single_bank_source(C, H, W);
  // Controller sweep: kx, ky within the window; ox, oy, c over outputs
  // (the BRAM pipeline flushes 1 cycle).
  const WindowSweep sw = s.sweep({.kernel_h = K, .kernel_w = K, .stride_y = K, .stride_x = K,
                                  .in_h = H, .in_w = W, .out_h = Ho, .out_w = Wo, .planes = C});
  const NetId ifm = s.read_ifm(src, sw.rd_addr);

  // Comparator + shift register (Fig. 4c): running max over the window.
  const NetId first_d1 = b.delay(sw.first, 1, 1);
  const NetId complete_d1 = b.delay(b.and2(sw.complete, s.is_compute), 1, 1);
  const NetId done_d1 = b.delay(b.and2(sw.compute_done, s.is_compute), 1, 1);
  const NetId en_d1 = b.delay(s.is_compute, 1, 1);

  const NetlistBuilder::Reg max_reg = b.reg(kDataW, "maxreg");
  const NetId max_next = b.mux2(b.smax(max_reg.q, ifm, kDataW), ifm, first_d1, kDataW);
  b.drive(max_reg, max_next, en_d1);

  NetId result = max_next;
  if (p.fuse_relu) result = b.relu(result, kDataW);

  const NetId drain_done =
      s.single_bank_sink(result, complete_d1, static_cast<std::uint32_t>(C) * Ho * Wo);
  return s.finish(src.load_done, drain_done, done_d1);
}

Netlist make_relu_component(const std::string& name, int width) {
  NetlistBuilder b(name);
  const NetId in_data = b.in_port("in_data", static_cast<std::uint16_t>(width));
  const NetId in_valid = b.in_port("in_valid", 1);
  const NetId out_ready = b.in_port("out_ready", 1);
  const NetId rectified = b.relu(in_data, static_cast<std::uint16_t>(width));
  b.out_port("out_data", b.ff(rectified, in_valid, static_cast<std::uint16_t>(width)));
  b.out_port("out_valid", b.delay(in_valid, 1, 1));
  b.out_port("in_ready", out_ready);
  return std::move(b).take();
}

std::string stream_port_name(const char* direction, int index, const char* field) {
  std::string port = direction;
  if (index > 0) port += std::to_string(index + 1);
  port += "_";
  port += field;
  return port;
}

namespace {

/// Per-input source controller of a join component: accepts stream `k`
/// while LOADing until `volume` words arrived, holding a done latch (the
/// pool-controller idiom) so ports finishing early simply deassert ready.
struct JoinPort {
  NetId buf = kInvalidNet;   // BRAM read data (1-cycle latency)
  NetId done = kInvalidNet;  // done | wrapping this cycle
};

JoinPort make_join_port(NetlistBuilder& b, int k, int volume, NetId is_load,
                        NetId raddr) {
  JoinPort port;
  const NetId in_data = b.in_port(stream_port_name("in", k, "data"), kDataW);
  const NetId in_valid = b.in_port(stream_port_name("in", k, "valid"), 1);

  const NetlistBuilder::Reg done_latch = b.reg(1, "ld_done" + std::to_string(k));
  const NetId accept = b.and2(is_load, b.not1(done_latch.q));
  const NetId wr = b.and2(accept, in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(volume), wr, kAddrW,
                             "ld_pix" + std::to_string(k));
  const NetId latch_next = b.and2(is_load, b.or2(done_latch.q, pix.wrap));
  b.drive(done_latch, latch_next, b.one());

  port.buf = b.bram(pix.value, in_data, wr, static_cast<std::uint32_t>(volume), kDataW,
                    -1, "buf" + std::to_string(k), raddr);
  port.done = b.or2(done_latch.q, pix.wrap);
  b.out_port(stream_port_name("in", k, "ready"), accept);
  return port;
}

}  // namespace

Netlist make_add_component(const std::string& name, int volume, int n_inputs,
                           bool fuse_relu) {
  StreamLayer s(name, StreamLayer::kLoadDrain, StreamLayer::kJoin);
  NetlistBuilder& b = s.b;

  // Sink controller first: the shared read address feeds every bank.
  const auto rpix =
      b.counter(static_cast<std::uint32_t>(volume), s.start_drain(), kAddrW, "rpix");

  NetId load_done = kInvalidNet;
  NetId sum = kInvalidNet;
  const NetId one_q88 = b.constant(256, kDataW);  // 1.0 in Q8.8
  for (int k = 0; k < n_inputs; ++k) {
    const JoinPort port = make_join_port(b, k, volume, s.is_load, rpix.value);
    load_done = k == 0 ? port.done : b.and2(load_done, port.done);
    // Saturating fold, matching golden_add: acc = sat(buf_k + acc). A
    // stage-0 DSP computes clamp(clamp((a*b)>>8) + c) = sat(a + c) for
    // b == 1.0, so every partial sum saturates exactly like Fixed16::+.
    sum = k == 0 ? port.buf : b.dsp(port.buf, one_q88, sum, 8, 0, kDataW);
  }
  NetId result = sum;
  if (fuse_relu) result = b.relu(result, kDataW);
  s.register_output(result);
  return s.finish(load_done, rpix.wrap);
}

Netlist make_concat_component(const std::string& name, const std::vector<int>& volumes,
                              bool fuse_relu) {
  StreamLayer s(name, StreamLayer::kLoadDrain, StreamLayer::kJoin);
  NetlistBuilder& b = s.b;

  long total = 0;
  for (int v : volumes) total += v;
  const auto rpix =
      b.counter(static_cast<std::uint32_t>(total), s.start_drain(), kAddrW, "rpix");

  NetId load_done = kInvalidNet;
  NetId data = kInvalidNet;
  long offset = 0;
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    const int volume = volumes[k];
    // Bank k owns output words [offset, offset + volume); clamp the read
    // address to 0 outside that window so the BRAM never sees an
    // out-of-range index.
    const NetId off = b.constant(static_cast<std::uint64_t>(offset), kAddrW);
    const NetId ge_off =
        k == 0 ? b.one() : b.not1(b.ltu(rpix.value, off));
    const NetId below_end =
        k + 1 == volumes.size()
            ? b.one()
            : b.ltu(rpix.value,
                    b.constant(static_cast<std::uint64_t>(offset + volume), kAddrW));
    const NetId in_range = b.and2(ge_off, below_end);
    const NetId raddr = b.mux2(b.zero(kAddrW), b.sub(rpix.value, off, kAddrW), in_range,
                               kAddrW);
    const JoinPort port = make_join_port(b, static_cast<int>(k), volume, s.is_load, raddr);
    load_done = k == 0 ? port.done : b.and2(load_done, port.done);
    // Bank select is aligned to the 1-cycle BRAM read latency.
    data = k == 0 ? port.buf : b.mux2(data, port.buf, b.delay(ge_off, 1, 1), kDataW);
    offset += volume;
  }
  NetId result = data;
  if (fuse_relu) result = b.relu(result, kDataW);
  s.register_output(result);
  return s.finish(load_done, rpix.wrap);
}

Netlist make_stream_fork(const std::string& name, int branches, int width) {
  NetlistBuilder b(name);
  const std::uint16_t w = static_cast<std::uint16_t>(width);
  const NetId in_data = b.in_port("in_data", w);
  const NetId in_valid = b.in_port("in_valid", 1);

  // One shared skid word, one full flag per branch. A new word is accepted
  // only when every branch is empty or popping this cycle, so the shared
  // register can never clobber an unconsumed word.
  std::vector<NetId> ready(static_cast<std::size_t>(branches));
  std::vector<NetlistBuilder::Reg> full(static_cast<std::size_t>(branches));
  NetId all_clear = kInvalidNet;
  for (std::size_t k = 0; k < ready.size(); ++k) {
    ready[k] = b.in_port(stream_port_name("out", static_cast<int>(k), "ready"), 1);
    full[k] = b.reg(1, "full" + std::to_string(k));
    const NetId clear = b.or2(b.not1(full[k].q), ready[k]);
    all_clear = k == 0 ? clear : b.and2(all_clear, clear);
  }
  const NetId push = b.and2(in_valid, all_clear);
  const NetId data = b.ff(in_data, push, w, "skid");
  for (std::size_t k = 0; k < ready.size(); ++k) {
    const NetId hold = b.and2(full[k].q, b.not1(ready[k]));
    const NetId full_next = b.or2(push, hold);
    b.drive(full[k], full_next, b.one());
    b.out_port(stream_port_name("out", static_cast<int>(k), "data"), data);
    b.out_port(stream_port_name("out", static_cast<int>(k), "valid"), full[k].q);
  }
  b.out_port("in_ready", all_clear);
  return std::move(b).take();
}

}  // namespace fpgasim
