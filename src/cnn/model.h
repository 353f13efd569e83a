// CNN model descriptions: layer graph (DFG), shape inference, weight/MAC
// accounting (Table I), the textual "CNN architecture definition" the
// pre-implemented flow consumes, and reference fixed-point inference.
#pragma once

#include <string>
#include <vector>

#include "sim/fixed.h"
#include "sim/golden.h"

namespace fpgasim {

enum class LayerKind {
  kInput,
  kConv,
  kPool,  // max pooling
  kRelu,
  kFc,
  kAdd,
  kConcat,
  kDwConv,         // depthwise convolution (one filter per channel)
  kAvgPool,        // average pooling, round-to-nearest-even
  kGlobalAvgPool,  // whole-map average per channel -> c x 1 x 1
  kUpsample,       // nearest-neighbour upsampling by `kernel`
};
inline constexpr int kLayerKindCount = 11;

const char* to_string(LayerKind kind);

/// True for the multi-input element-wise join kinds (add/concat).
bool is_join(LayerKind kind);

struct Shape {
  int c = 0, h = 0, w = 0;
  long volume() const { return static_cast<long>(c) * h * w; }
  friend bool operator==(const Shape&, const Shape&) = default;
};

struct Layer {
  LayerKind kind = LayerKind::kInput;
  std::string name;
  int kernel = 1;  // window size; the replication factor for kUpsample
  int stride = 1;
  int out_c = 0;         // conv filters / fc outputs
  bool fuse_relu = false;
  std::vector<int> inputs;  // DFG predecessors (layer indices); empty for kInput

  // Filled by CnnModel::infer_shapes(). in_shape is the first
  // predecessor's shape (joins validate the rest during inference).
  Shape in_shape, out_shape;

  long weights() const;  // parameters incl. bias
  long macs() const;     // multiply-accumulates per image

  /// First predecessor, or -1 when there is none (kInput).
  int input() const { return inputs.empty() ? -1 : inputs.front(); }

  friend bool operator==(const Layer&, const Layer&) = default;
};

class CnnModel {
 public:
  CnnModel() = default;
  explicit CnnModel(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  std::vector<Layer>& layers() { return layers_; }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Appends a layer. When `layer.inputs` is empty and the layer is not an
  /// input, it is connected to the previous layer (linear chains); set
  /// `inputs` explicitly to build branching DFGs.
  int add(Layer layer);

  /// Index of the layer called `name`, or -1.
  int find_layer(const std::string& name) const;

  /// Number of DFG consumers of each layer (fan-out).
  std::vector<int> consumer_counts() const;

  /// Propagates shapes along the DFG. Throws std::runtime_error on
  /// malformed graphs (bad kernel sizes, missing input, shape-mismatched
  /// joins...).
  void infer_shapes();

  struct Stats {
    int conv_layers = 0, fc_layers = 0;
    long conv_weights = 0, conv_macs = 0;
    long fc_weights = 0, fc_macs = 0;
    long total_weights() const { return conv_weights + fc_weights; }
    long total_macs() const { return conv_macs + fc_macs; }
  };
  Stats stats() const;

  friend bool operator==(const CnnModel&, const CnnModel&) = default;

 private:
  std::string name_;
  std::vector<Layer> layers_;
};

/// LeNet-5-style network as evaluated in the paper (Table III): conv1(6@5x5)
/// -> pool+relu -> conv2(16@5x5) -> pool+relu -> fc1(120) -> fc2(10),
/// 32x32x1 input.
CnnModel make_lenet5();

/// VGG-16: 13 conv (3x3/s1) + 5 maxpool + 3 FC, 224x224x3 input.
CnnModel make_vgg16();

/// ResNet-style residual block network: conv1 -> {identity skip,
/// conv-conv bottleneck} -> add -> pool+relu -> fc. The residual branch
/// uses 1x1 convolutions so both join inputs keep the same spatial shape
/// (the datapaths are valid-padding). Exercises stream fork + element-wise
/// add end to end.
CnnModel make_resblock_net();

// -- CNN architecture definition (Sec. IV-B1) -------------------------------

/// Parses the textual architecture definition. Format (one item per line,
/// '#' comments):
///   network <name>
///   input <c> <h> <w>
///   conv <name> out=<n> k=<k> [s=<s>] [relu] [from=<name>]
///   dwconv <name> k=<k> [s=<s>] [relu] [from=<name>]
///   pool <name> k=<k> [relu] [from=<name>]
///   avgpool <name> k=<k> [relu] [from=<name>]
///   gavgpool <name> [relu] [from=<name>]
///   upsample <name> f=<factor> [relu] [from=<name>]
///   relu <name> [from=<name>]
///   fc <name> out=<n> [relu] [from=<name>]
///   add <name> from=<a>,<b>[,...] [relu]
///   concat <name> from=<a>,<b>[,...] [relu]
/// Layers connect to the previous line unless `from=` names explicit
/// predecessors (the input layer is named "in"). Throws std::runtime_error
/// with a line number on syntax errors, unknown `from=` targets and
/// duplicate layer names.
CnnModel parse_arch_def(const std::string& text);

/// Serializes a model back to the definition format (round-trips:
/// parse_arch_def(to_arch_def(m)) == m for parser-produced models).
std::string to_arch_def(const CnnModel& model);

// -- reference inference ----------------------------------------------------

/// Deterministic synthetic Q8.8 parameters (the paper hard-codes weights
/// in ROM and never trains; magnitudes stay small so fixed-point
/// saturation is not hit).
std::vector<Fixed16> synth_params(std::size_t count, std::uint64_t seed);

/// Seed of layer i's synthesized weights (1000 + 2i); its bias draws from
/// the next seed. The golden model, synthesis and checkpoint signatures
/// all read it.
std::uint64_t layer_seed(std::size_t layer_index);

/// The synthesized parameters of one layer.
struct LayerParams {
  std::vector<Fixed16> weights;
  std::vector<Fixed16> bias;
};

/// Layer i's parameters: synth_params over its kind's weight and bias
/// counts, seeded layer_seed(i) and layer_seed(i) + 1. Empty for a kind
/// without weights.
LayerParams layer_params(const CnnModel& model, std::size_t layer_index);

/// Runs the whole model on `input` with every layer's layer_params through
/// the golden layer implementations, walking the DFG (branches and joins
/// included). Returns the flattened output of the last layer.
std::vector<Fixed16> reference_inference(const CnnModel& model, const Tensor& input);

}  // namespace fpgasim
