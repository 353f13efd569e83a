#include "cnn/model.h"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "cnn/registry.h"
#include "util/env.h"
#include "util/rng.h"

namespace fpgasim {

const char* to_string(LayerKind kind) { return layer_traits(kind).keyword; }

bool is_join(LayerKind kind) { return layer_traits(kind).join; }

long Layer::weights() const {
  const auto count = layer_traits(kind).weight_count;
  return count != nullptr ? count(*this) : 0;
}

long Layer::macs() const {
  const auto count = layer_traits(kind).mac_count;
  return count != nullptr ? count(*this) : 0;
}

int CnnModel::add(Layer layer) {
  if (layer.inputs.empty() && !layer_traits(layer.kind).source && !layers_.empty()) {
    layer.inputs = {static_cast<int>(layers_.size()) - 1};
  }
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

int CnnModel::find_layer(const std::string& name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> CnnModel::consumer_counts() const {
  std::vector<int> counts(layers_.size(), 0);
  for (const Layer& layer : layers_) {
    for (int in : layer.inputs) {
      if (in >= 0 && static_cast<std::size_t>(in) < counts.size()) {
        ++counts[static_cast<std::size_t>(in)];
      }
    }
  }
  return counts;
}

void CnnModel::infer_shapes() {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = layers_[i];
    const LayerTraits& traits = layer_traits(layer.kind);
    if (traits.source) {
      if (!layer.inputs.empty()) {
        throw std::runtime_error("input layer '" + layer.name + "' cannot have inputs");
      }
      layer.in_shape = layer.out_shape;
      if (layer.out_shape.volume() <= 0) {
        throw std::runtime_error("input layer '" + layer.name + "' has no shape");
      }
      continue;
    }
    for (int in : layer.inputs) {
      if (in < 0 || static_cast<std::size_t>(in) >= i) {
        throw std::runtime_error("layer '" + layer.name + "' has no valid input edge");
      }
    }
    if (layer.inputs.empty()) {
      throw std::runtime_error("layer '" + layer.name + "' has no valid input edge");
    }
    if (!traits.join && layer.inputs.size() != 1) {
      throw std::runtime_error("layer '" + layer.name + "' (" + traits.keyword +
                               ") takes exactly one input");
    }
    layer.in_shape = layers_[static_cast<std::size_t>(layer.inputs[0])].out_shape;
    traits.infer(layers_, layer);
  }
}

CnnModel::Stats CnnModel::stats() const {
  Stats stats;
  for (const Layer& layer : layers_) {
    const StatsBucket bucket = layer_traits(layer.kind).stats_bucket;
    if (bucket == StatsBucket::kConv) {
      ++stats.conv_layers;
      stats.conv_weights += layer.weights();
      stats.conv_macs += layer.macs();
    } else if (bucket == StatsBucket::kFc) {
      ++stats.fc_layers;
      stats.fc_weights += layer.weights();
      stats.fc_macs += layer.macs();
    }
  }
  return stats;
}

CnnModel make_lenet5() {
  CnnModel model("lenet5");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{1, 32, 32}});
  model.add(Layer{.kind = LayerKind::kConv, .name = "conv1", .kernel = 5, .out_c = 6});
  model.add(Layer{.kind = LayerKind::kPool, .name = "pool1", .kernel = 2, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kConv, .name = "conv2", .kernel = 5, .out_c = 16});
  model.add(Layer{.kind = LayerKind::kPool, .name = "pool2", .kernel = 2, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kFc, .name = "fc1", .out_c = 120});
  model.add(Layer{.kind = LayerKind::kFc, .name = "fc2", .out_c = 10});
  model.infer_shapes();
  return model;
}

CnnModel make_vgg16() {
  CnnModel model("vgg16");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{3, 224, 224}});
  const int widths[5] = {64, 128, 256, 512, 512};
  const int convs_per_block[5] = {2, 2, 3, 3, 3};
  int conv_id = 0;
  for (int blk = 0; blk < 5; ++blk) {
    for (int i = 0; i < convs_per_block[blk]; ++i) {
      // VGG uses 'same' padding; our datapaths are valid-padding, so the
      // model keeps the canonical VGG feature-map sizes by construction:
      // we register conv as 3x3/s1 with pre-padded inputs. For weight/MAC
      // accounting this is exact.
      model.add(Layer{.kind = LayerKind::kConv,
                      .name = "conv" + std::to_string(blk + 1) + "_" + std::to_string(i + 1),
                      .kernel = 3,
                      .out_c = widths[blk],
                      .fuse_relu = true});
      ++conv_id;
    }
    model.add(Layer{.kind = LayerKind::kPool,
                    .name = "pool" + std::to_string(blk + 1),
                    .kernel = 2});
  }
  model.add(Layer{.kind = LayerKind::kFc, .name = "fc6", .out_c = 4096});
  model.add(Layer{.kind = LayerKind::kFc, .name = "fc7", .out_c = 4096});
  model.add(Layer{.kind = LayerKind::kFc, .name = "fc8", .out_c = 1000});

  // VGG uses 'same' padding, which our valid-padding shape inference does
  // not model; assign the canonical VGG shapes directly (conv preserves
  // H x W, pool halves). Weight/MAC accounting is exact either way.
  auto& layers = model.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer& layer = layers[i];
    if (i > 0) layer.in_shape = layers[static_cast<std::size_t>(layer.input())].out_shape;
    if (layer.kind == LayerKind::kConv) {
      layer.out_shape = Shape{layer.out_c, layer.in_shape.h, layer.in_shape.w};
    } else if (layer.kind == LayerKind::kPool) {
      layer.out_shape = Shape{layer.in_shape.c, layer.in_shape.h / 2, layer.in_shape.w / 2};
    } else if (layer.kind == LayerKind::kFc) {
      layer.out_shape = Shape{layer.out_c, 1, 1};
    } else {
      layer.in_shape = layer.out_shape;  // input layer: shape already set
    }
  }
  return model;
}

CnnModel make_resblock_net() {
  CnnModel model("resblock");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{2, 8, 8}});
  const int c1 =
      model.add(Layer{.kind = LayerKind::kConv, .name = "c1", .kernel = 3, .out_c = 4});
  // Residual branch: two 1x1 convolutions (valid padding keeps 6x6, so the
  // element-wise add sees identical shapes on both arms).
  const int c2a = model.add(Layer{
      .kind = LayerKind::kConv, .name = "c2a", .kernel = 1, .out_c = 4, .inputs = {c1}});
  const int c2b = model.add(Layer{
      .kind = LayerKind::kConv, .name = "c2b", .kernel = 1, .out_c = 4, .inputs = {c2a}});
  const int join = model.add(
      Layer{.kind = LayerKind::kAdd, .name = "add1", .inputs = {c1, c2b}});
  model.add(Layer{.kind = LayerKind::kPool,
                  .name = "p1",
                  .kernel = 2,
                  .fuse_relu = true,
                  .inputs = {join}});
  model.add(Layer{.kind = LayerKind::kFc, .name = "f1", .out_c = 8});
  model.infer_shapes();
  return model;
}

CnnModel parse_arch_def(const std::string& text) {
  CnnModel model;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& msg) {
    throw std::runtime_error("arch def line " + std::to_string(line_no) + ": " + msg);
  };
  // The value of attribute `token` ("k=3") after its `prefix_len`-char key:
  // a whole number within int, with no sign or suffix.
  auto number = [&](const std::string& token, std::size_t prefix_len) {
    const auto value = parse_count(std::string_view(token).substr(prefix_len));
    if (!value || *value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      fail(token.substr(0, prefix_len) + " expects a whole number, got '" +
           token.substr(prefix_len) + "'");
    }
    return static_cast<int>(*value);
  };
  auto register_name = [&](const std::string& name) {
    if (model.find_layer(name) != -1) fail("duplicate layer name '" + name + "'");
  };
  while (std::getline(stream, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;

    if (kind == "network") {
      std::string name;
      if (!(ls >> name)) fail("network needs a name");
      model = CnnModel(name);
      continue;
    }
    const LayerTraits* traits = layer_traits_by_keyword(kind);
    if (traits == nullptr) fail("unknown layer kind '" + kind + "'");
    Layer layer;
    layer.kind = traits->kind;
    if (traits->source) {
      layer.name = "in";
      if (!(ls >> layer.out_shape.c >> layer.out_shape.h >> layer.out_shape.w)) {
        fail("input needs: c h w");
      }
      register_name(layer.name);
      model.add(std::move(layer));
      continue;
    }

    if (!(ls >> layer.name)) fail(kind + " needs a name");
    register_name(layer.name);
    std::string token;
    while (ls >> token) {
      if (token == "relu") {
        layer.fuse_relu = true;
      } else if (token.rfind("out=", 0) == 0) {
        layer.out_c = number(token, 4);
      } else if (token.rfind("k=", 0) == 0) {
        layer.kernel = number(token, 2);
      } else if (token.rfind("f=", 0) == 0) {
        layer.kernel = number(token, 2);  // upsample factor
      } else if (token.rfind("s=", 0) == 0) {
        layer.stride = number(token, 2);
      } else if (token.rfind("from=", 0) == 0) {
        std::istringstream names(token.substr(5));
        std::string from;
        while (std::getline(names, from, ',')) {
          if (from.empty()) fail("from= has an empty layer name");
          const int idx = model.find_layer(from);
          if (idx == -1) fail("from= references unknown layer '" + from + "'");
          layer.inputs.push_back(idx);
        }
        if (layer.inputs.empty()) fail("from= needs at least one layer name");
      } else {
        fail("unknown attribute '" + token + "'");
      }
    }
    if (traits->parse_check != nullptr) {
      if (const char* err = traits->parse_check(layer)) fail(err);
    }
    if (traits->join && layer.inputs.size() < 2) {
      fail(kind + " needs from= with at least two layers");
    }
    if (!traits->join && layer.inputs.size() > 1) {
      fail(kind + " takes a single from= layer");
    }
    model.add(std::move(layer));
  }
  if (model.layers().empty() || !layer_traits(model.layers().front().kind).source) {
    throw std::runtime_error("arch def: first layer must be 'input'");
  }
  model.infer_shapes();
  return model;
}

std::string to_arch_def(const CnnModel& model) {
  std::ostringstream os;
  os << "network " << (model.name().empty() ? "cnn" : model.name()) << "\n";
  const auto& layers = model.layers();
  // `from=` is emitted whenever the predecessors differ from the implicit
  // "previous line" rule (joins always do: they have two or more).
  auto from_clause = [&](std::size_t i) -> std::string {
    const Layer& layer = layers[i];
    if (layer.inputs.size() == 1 && layer.inputs[0] == static_cast<int>(i) - 1) return "";
    std::string clause = " from=";
    for (std::size_t k = 0; k < layer.inputs.size(); ++k) {
      if (k > 0) clause += ",";
      clause += layers[static_cast<std::size_t>(layer.inputs[k])].name;
    }
    return clause;
  };
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    layer_traits(layer.kind).emit(os, layer, from_clause(i));
  }
  return os.str();
}

std::vector<Fixed16> synth_params(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fixed16> params(count);
  for (Fixed16& p : params) {
    p = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-48, 48)));
  }
  return params;
}

std::vector<Fixed16> reference_inference(const CnnModel& model, const Tensor& input,
                                         std::uint64_t seed_base) {
  const auto& layers = model.layers();
  std::vector<Tensor> outs(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    const LayerTraits& traits = layer_traits(layer.kind);
    if (traits.source) {
      outs[i] = input;
      continue;
    }
    std::vector<const Tensor*> ins;
    ins.reserve(layer.inputs.size());
    for (int in : layer.inputs) ins.push_back(&outs[static_cast<std::size_t>(in)]);
    outs[i] = traits.golden(model, i, ins, seed_base);
    if (layer.fuse_relu && !traits.activation) outs[i] = golden_relu(outs[i]);
  }
  return outs.back().data;
}

}  // namespace fpgasim
