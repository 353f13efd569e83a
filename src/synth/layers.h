// CNN layer component generators ("synthesis").
//
// Every component follows the paper's source/sink architecture (Sec. IV-B3):
// a *source* memory controller loads the incoming feature-map stream into
// banked on-chip memory, the compute units (PE array per input feature map
// + adder tree, Fig. 4b) sweep the data, and a *sink* controller writes
// results to banked output memory and streams them out. Components talk
// through a valid/ready stream protocol (Fig. 5), canonical order
// channel-major: for c, for y, for x.
//
// Stream interface of every layer component:
//   in_data[16]  in_valid[1]  -> component;  component -> in_ready[1]
//   out_data[16] out_valid[1] -> downstream; downstream -> out_ready[1]
//
// Pipeline behaviour is image-granular: LOAD -> COMPUTE -> DRAIN -> LOAD.
// The memory-based engines share one controller skeleton (StreamLayer in
// layers.cpp); each supplies only its datapath and its done signals.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "sim/fixed.h"

namespace fpgasim {

inline constexpr std::uint16_t kDataW = 16;  // fixed-16 datapath
inline constexpr std::uint16_t kAddrW = 24;  // address arithmetic width

struct ConvParams {
  std::string name = "conv";
  int in_c = 1;
  int out_c = 1;
  int kernel = 3;
  int in_h = 8;
  int in_w = 8;
  int stride = 1;
  int ic_par = 1;       // PEs: input feature maps processed in parallel
  int oc_par = 1;       // CU columns: output channels computed in parallel
  int dsp_stages = 1;   // MAC pipeline registers inside each DSP48
  bool fuse_relu = false;
  // Weight storage: true  -> weights hard-coded in ROM (LeNet style);
  //                 false -> weight *buffers* sized for `weight_buffer_ocg`
  //                          output groups (VGG style, coefficients come
  //                          from off-chip through the MMU). Functional
  //                          simulation requires materialized ROMs.
  bool materialize_roms = true;
  int weight_buffer_ocg = 0;  // 0 = all groups

  int out_h() const { return (in_h - kernel) / stride + 1; }
  int out_w() const { return (in_w - kernel) / stride + 1; }
  long macs() const {
    return static_cast<long>(out_c) * in_c * kernel * kernel * out_h() * out_w();
  }
  long weight_count() const { return static_cast<long>(out_c) * in_c * kernel * kernel; }
  /// COMPUTE-phase cycles (excluding LOAD/DRAIN), used by the latency model.
  long compute_cycles() const {
    return static_cast<long>(out_h()) * out_w() * kernel * kernel * (in_c / ic_par) *
           (out_c / oc_par);
  }
  long load_cycles() const { return static_cast<long>(in_c) * in_h * in_w; }
  long drain_cycles() const { return static_cast<long>(out_c) * out_h() * out_w(); }
};

/// Systolic-array style convolution layer engine. `weights` laid out
/// [oc][ic][ky][kx], `bias` per output channel; both in Q8.8.
Netlist make_conv_component(const ConvParams& params, const std::vector<Fixed16>& weights,
                            const std::vector<Fixed16>& bias);

/// Fully-connected layer as a convolution with kernel == input size
/// (paper Sec. V-B1). `inputs` is the flattened input count; weights
/// [out][in]. Parallelism: in_par over inputs.
Netlist make_fc_component(const std::string& name, int inputs, int outputs,
                          const std::vector<Fixed16>& weights,
                          const std::vector<Fixed16>& bias, int in_par = 1, int out_par = 1,
                          bool materialize_roms = true, int weight_buffer_ocg = 0,
                          bool fuse_relu = false);

struct DwConvParams {
  std::string name = "dwconv";
  int channels = 1;
  int kernel = 3;
  int stride = 1;
  int in_h = 8;
  int in_w = 8;
  int dsp_stages = 1;  // MAC pipeline registers inside the DSP48
  bool fuse_relu = false;

  int out_h() const { return (in_h - kernel) / stride + 1; }
  int out_w() const { return (in_w - kernel) / stride + 1; }
  long load_cycles() const { return static_cast<long>(channels) * in_h * in_w; }
  long compute_cycles() const {
    return static_cast<long>(channels) * out_h() * out_w() * kernel * kernel;
  }
  long drain_cycles() const { return static_cast<long>(channels) * out_h() * out_w(); }
};

/// Depthwise convolution engine: one k x k filter per channel, a single
/// DSP MAC sweeping the channels sequentially (MobileNet-style dw stages).
/// `weights` laid out [c][ky][kx], `bias` per channel; both Q8.8.
Netlist make_dwconv_component(const DwConvParams& params,
                              const std::vector<Fixed16>& weights,
                              const std::vector<Fixed16>& bias);

struct AvgPoolParams {
  std::string name = "avgpool";
  int channels = 1;
  int kernel_h = 2;  // == in_h for global average pooling
  int kernel_w = 2;
  int in_h = 8;
  int in_w = 8;
  bool fuse_relu = false;

  int out_h() const { return in_h / kernel_h; }
  int out_w() const { return in_w / kernel_w; }
};

/// Average-pooling engine: a 24-bit window accumulator (sign-extended Q8.8
/// terms) divided by the window size with round-to-nearest-even — the
/// window must be a power of two <= 256 so the divide is an arithmetic
/// shift plus remainder adjust, bit-exact with div_rne/golden_avgpool.
/// Global average pooling is the kernel_h == in_h, kernel_w == in_w case.
Netlist make_avgpool_component(const AvgPoolParams& params);

/// Nearest-neighbour upsampling engine: buffers the image, then drains
/// every input pixel `factor` times per row and every row `factor` times
/// (channel-major raster), matching golden_upsample_nn.
Netlist make_upsample_component(const std::string& name, int channels, int in_h, int in_w,
                                int factor, bool fuse_relu = false);

struct PoolParams {
  std::string name = "pool";
  int channels = 1;
  int kernel = 2;
  int in_h = 8;
  int in_w = 8;
  bool fuse_relu = false;  // paper's "Pool+ReLU" components

  int out_h() const { return in_h / kernel; }
  int out_w() const { return in_w / kernel; }
  long load_cycles() const { return static_cast<long>(channels) * in_h * in_w; }
  long compute_cycles() const {
    return static_cast<long>(channels) * out_h() * out_w() * kernel * kernel;
  }
  long drain_cycles() const { return static_cast<long>(channels) * out_h() * out_w(); }
};

/// Max-pooling engine: comparator + shift register + controller (Fig. 4c).
Netlist make_pool_component(const PoolParams& params);

/// Standalone streaming ReLU (registered, no memory controller; Sec. IV-B1).
Netlist make_relu_component(const std::string& name, int width = kDataW);

// -- branching-DFG components -----------------------------------------------

/// Canonical stream port name for multi-stream components. Index 0 keeps
/// the historical names ("in_data", "out_valid", ...); index k > 0 gets a
/// 1-based suffix on the direction ("in2_data", "out3_ready", ...).
/// `direction` is "in" or "out"; `field` is "data", "valid" or "ready".
std::string stream_port_name(const char* direction, int index, const char* field);

/// Element-wise saturating-add join of `n_inputs` identically-shaped
/// streams of `volume` words each (residual connections). Every input
/// stream loads concurrently into its own bank (so upstream branches of a
/// fork can never deadlock on arrival order), then the sums drain through
/// a saturating DSP chain — bit-exact with golden_add's Q8.8 fold.
Netlist make_add_component(const std::string& name, int volume, int n_inputs,
                           bool fuse_relu = false);

/// Channel-concatenation join: input k carries `volumes[k]` words; the
/// output drains the banks back to back in port order (channel-major
/// layout makes concat a pure reorder). Loads are concurrent as in
/// make_add_component.
Netlist make_concat_component(const std::string& name, const std::vector<int>& volumes,
                              bool fuse_relu = false);

/// 1-to-N stream fork: broadcasts the input stream to `branches` output
/// streams with a per-branch skid flag. A word is accepted only when every
/// branch is empty or popping that cycle, so slow branches backpressure
/// the source and no data is dropped or duplicated.
Netlist make_stream_fork(const std::string& name, int branches, int width = kDataW);

}  // namespace fpgasim
