#include "cnn/registry.h"

#include <cassert>
#include <ostream>
#include <stdexcept>

#include "synth/layers.h"

namespace fpgasim {
namespace {

// -- shared helpers ----------------------------------------------------------

const Layer& at(const CnnModel& model, int i) {
  return model.layers()[static_cast<std::size_t>(i)];
}

/// Feature-map height/width the engine is built for: the tile when the
/// implementation tiles this layer, the full map otherwise.
int eff_h(const Layer& layer, const LayerImpl& li) {
  return li.tile_h > 0 ? li.tile_h : layer.in_shape.h;
}
int eff_w(const Layer& layer, const LayerImpl& li) {
  return li.tile_w > 0 ? li.tile_w : layer.in_shape.w;
}

// -- conv --------------------------------------------------------------------

void infer_conv(const std::vector<Layer>&, Layer& layer) {
  const int oh = (layer.in_shape.h - layer.kernel) / layer.stride + 1;
  const int ow = (layer.in_shape.w - layer.kernel) / layer.stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::runtime_error("conv '" + layer.name + "' kernel larger than input");
  }
  layer.out_shape = Shape{layer.out_c, oh, ow};
}

ParamCounts conv_params(const Layer& layer) {
  return {static_cast<std::size_t>(layer.out_c) * layer.in_shape.c * layer.kernel * layer.kernel,
          static_cast<std::size_t>(layer.out_c)};
}

long conv_mac_count(const Layer& layer) {
  return static_cast<long>(layer.out_c) * layer.in_shape.c * layer.kernel * layer.kernel *
         layer.out_shape.h * layer.out_shape.w;
}

Tensor golden_conv(const CnnModel& model, std::size_t i, const std::vector<const Tensor*>& ins) {
  const Layer& layer = model.layers()[i];
  const LayerParams params = layer_params(model, i);
  return golden_conv2d(*ins[0], params.weights, params.bias, layer.out_c, layer.kernel,
                       layer.stride);
}

Netlist synth_conv(const CnnModel& model, const ModelImpl& impl, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  const LayerImpl& li = impl.layers[static_cast<std::size_t>(layer_idx)];
  ConvParams p;
  p.name = layer.name;
  p.in_c = layer.in_shape.c;
  p.out_c = layer.out_c;
  p.kernel = layer.kernel;
  p.stride = layer.stride;
  p.in_h = eff_h(layer, li);
  p.in_w = eff_w(layer, li);
  p.ic_par = li.ic_par;
  p.oc_par = li.oc_par;
  p.fuse_relu = fuse_relu || layer.fuse_relu;
  p.materialize_roms = li.materialize;
  p.weight_buffer_ocg = li.weight_buffer_ocg;
  const LayerParams params =
      li.materialize ? layer_params(model, static_cast<std::size_t>(layer_idx)) : LayerParams{};
  return make_conv_component(p, params.weights, params.bias);
}

LayerCycles cycles_conv(const Layer& layer, const LayerImpl& impl) {
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.compute = static_cast<long>(layer.out_shape.h) * layer.out_shape.w * layer.kernel *
                   layer.kernel * (layer.in_shape.c / impl.ic_par) *
                   (layer.out_c / impl.oc_par);
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

// -- max pool ----------------------------------------------------------------

void infer_pool(const std::vector<Layer>&, Layer& layer) {
  if (layer.kernel <= 0 || layer.in_shape.h % layer.kernel != 0 ||
      layer.in_shape.w % layer.kernel != 0) {
    throw std::runtime_error("pool '" + layer.name + "' does not tile its input");
  }
  layer.out_shape = Shape{layer.in_shape.c, layer.in_shape.h / layer.kernel,
                          layer.in_shape.w / layer.kernel};
}

Tensor golden_pool(const CnnModel& model, std::size_t i, const std::vector<const Tensor*>& ins) {
  return golden_maxpool(*ins[0], model.layers()[i].kernel);
}

Netlist synth_pool(const CnnModel& model, const ModelImpl& impl, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  const LayerImpl& li = impl.layers[static_cast<std::size_t>(layer_idx)];
  PoolParams p;
  p.name = layer.name;
  p.channels = layer.in_shape.c;
  p.kernel = layer.kernel;
  p.in_h = eff_h(layer, li);
  p.in_w = eff_w(layer, li);
  p.fuse_relu = fuse_relu || layer.fuse_relu;
  return make_pool_component(p);
}

LayerCycles cycles_pool(const Layer& layer, const LayerImpl&) {
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.compute = layer.out_shape.volume() * layer.kernel * layer.kernel;
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

// -- relu --------------------------------------------------------------------

void infer_relu(const std::vector<Layer>&, Layer& layer) { layer.out_shape = layer.in_shape; }

Tensor golden_relu_layer(const CnnModel&, std::size_t, const std::vector<const Tensor*>& ins) {
  return golden_relu(*ins[0]);
}

Netlist synth_relu(const CnnModel& model, const ModelImpl&, int layer_idx, bool) {
  return make_relu_component(at(model, layer_idx).name);
}

LayerCycles cycles_relu(const Layer& layer, const LayerImpl&) {
  LayerCycles cycles;
  cycles.compute = layer.in_shape.volume();  // streaming passthrough
  return cycles;
}

// -- fc ----------------------------------------------------------------------

void infer_fc(const std::vector<Layer>&, Layer& layer) {
  layer.out_shape = Shape{layer.out_c, 1, 1};
}

ParamCounts fc_params(const Layer& layer) {
  return {static_cast<std::size_t>(layer.out_c) * static_cast<std::size_t>(layer.in_shape.volume()),
          static_cast<std::size_t>(layer.out_c)};
}

long fc_mac_count(const Layer& layer) {
  return static_cast<long>(layer.out_c) * layer.in_shape.volume();
}

Tensor golden_fc_layer(const CnnModel& model, std::size_t i,
                       const std::vector<const Tensor*>& ins) {
  const Layer& layer = model.layers()[i];
  const LayerParams params = layer_params(model, i);
  return Tensor{layer.out_c, 1, 1,
                golden_fc(ins[0]->data, params.weights, params.bias, layer.out_c)};
}

Netlist synth_fc(const CnnModel& model, const ModelImpl& impl, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  const LayerImpl& li = impl.layers[static_cast<std::size_t>(layer_idx)];
  const LayerParams params =
      li.materialize ? layer_params(model, static_cast<std::size_t>(layer_idx)) : LayerParams{};
  return make_fc_component(layer.name, static_cast<int>(layer.in_shape.volume()), layer.out_c,
                           params.weights, params.bias, li.ic_par, li.oc_par, li.materialize,
                           li.weight_buffer_ocg, fuse_relu || layer.fuse_relu);
}

LayerCycles cycles_fc(const Layer& layer, const LayerImpl& impl) {
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.compute =
      layer.in_shape.volume() / impl.ic_par * (static_cast<long>(layer.out_c) / impl.oc_par);
  cycles.drain = layer.out_c;
  return cycles;
}

// -- add / concat ------------------------------------------------------------

void infer_add(const std::vector<Layer>& layers, Layer& layer) {
  if (layer.inputs.size() < 2) {
    throw std::runtime_error("add '" + layer.name + "' needs at least two inputs");
  }
  for (int in : layer.inputs) {
    if (!(layers[static_cast<std::size_t>(in)].out_shape == layer.in_shape)) {
      throw std::runtime_error("add '" + layer.name +
                               "' inputs disagree on shape (element-wise add "
                               "requires identical tensors)");
    }
  }
  layer.out_shape = layer.in_shape;
}

void infer_concat(const std::vector<Layer>& layers, Layer& layer) {
  if (layer.inputs.size() < 2) {
    throw std::runtime_error("concat '" + layer.name + "' needs at least two inputs");
  }
  int channels = 0;
  for (int in : layer.inputs) {
    const Shape& s = layers[static_cast<std::size_t>(in)].out_shape;
    if (s.h != layer.in_shape.h || s.w != layer.in_shape.w) {
      throw std::runtime_error("concat '" + layer.name + "' inputs disagree on spatial shape");
    }
    channels += s.c;
  }
  layer.out_shape = Shape{channels, layer.in_shape.h, layer.in_shape.w};
}

Tensor golden_add_layer(const CnnModel&, std::size_t, const std::vector<const Tensor*>& ins) {
  return golden_add(ins);
}

Tensor golden_concat_layer(const CnnModel&, std::size_t, const std::vector<const Tensor*>& ins) {
  return golden_concat(ins);
}

Netlist synth_add(const CnnModel& model, const ModelImpl&, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  return make_add_component(layer.name, static_cast<int>(layer.in_shape.volume()),
                            static_cast<int>(layer.inputs.size()),
                            fuse_relu || layer.fuse_relu);
}

Netlist synth_concat(const CnnModel& model, const ModelImpl&, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  std::vector<int> volumes;
  volumes.reserve(layer.inputs.size());
  for (int in : layer.inputs) {
    volumes.push_back(static_cast<int>(at(model, in).out_shape.volume()));
  }
  return make_concat_component(layer.name, volumes, fuse_relu || layer.fuse_relu);
}

LayerCycles cycles_add(const Layer& layer, const LayerImpl&) {
  // Buffers one operand, then streams the sum as the others arrive.
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

LayerCycles cycles_concat(const Layer& layer, const LayerImpl&) {
  // Pure store-and-forward: every input element is written once and read
  // once, in channel order.
  LayerCycles cycles;
  cycles.load = layer.out_shape.volume();
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

// -- depthwise conv ----------------------------------------------------------

void infer_dwconv(const std::vector<Layer>&, Layer& layer) {
  const int oh = (layer.in_shape.h - layer.kernel) / layer.stride + 1;
  const int ow = (layer.in_shape.w - layer.kernel) / layer.stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::runtime_error("dwconv '" + layer.name + "' kernel larger than input");
  }
  layer.out_shape = Shape{layer.in_shape.c, oh, ow};
}

ParamCounts dwconv_params(const Layer& layer) {
  return {static_cast<std::size_t>(layer.in_shape.c) * layer.kernel * layer.kernel,
          static_cast<std::size_t>(layer.in_shape.c)};
}

long dwconv_mac_count(const Layer& layer) {
  return static_cast<long>(layer.in_shape.c) * layer.kernel * layer.kernel *
         layer.out_shape.h * layer.out_shape.w;
}

Tensor golden_dwconv(const CnnModel& model, std::size_t i,
                     const std::vector<const Tensor*>& ins) {
  const Layer& layer = model.layers()[i];
  const LayerParams params = layer_params(model, i);
  return golden_dwconv2d(*ins[0], params.weights, params.bias, layer.kernel, layer.stride);
}

/// A 1x1/s1 convolution directly after a depthwise stage is its pointwise
/// half; fusing them into one component removes the memory controller
/// between the MobileNet dw/pw pair.
bool pointwise_fuses_into(const Layer& pred, const Layer& layer) {
  return pred.kind == LayerKind::kDwConv && layer.kernel == 1 && layer.stride == 1;
}

Netlist synth_dwconv(const CnnModel& model, const ModelImpl& impl, int layer_idx,
                     bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  const LayerImpl& li = impl.layers[static_cast<std::size_t>(layer_idx)];
  DwConvParams p;
  p.name = layer.name;
  p.channels = layer.in_shape.c;
  p.kernel = layer.kernel;
  p.stride = layer.stride;
  p.in_h = eff_h(layer, li);
  p.in_w = eff_w(layer, li);
  p.fuse_relu = fuse_relu || layer.fuse_relu;
  const LayerParams params = layer_params(model, static_cast<std::size_t>(layer_idx));
  return make_dwconv_component(p, params.weights, params.bias);
}

LayerCycles cycles_dwconv(const Layer& layer, const LayerImpl&) {
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.compute = static_cast<long>(layer.in_shape.c) * layer.out_shape.h *
                   layer.out_shape.w * layer.kernel * layer.kernel;
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

// -- average pool / global average pool --------------------------------------

void check_pow2_window(const char* kind, const Layer& layer, int count) {
  if (count <= 0 || (count & (count - 1)) != 0 || count > 256) {
    throw std::runtime_error(std::string(kind) + " '" + layer.name +
                             "' window must be a power of two <= 256");
  }
}

void infer_avgpool(const std::vector<Layer>&, Layer& layer) {
  if (layer.kernel <= 0 || layer.in_shape.h % layer.kernel != 0 ||
      layer.in_shape.w % layer.kernel != 0) {
    throw std::runtime_error("avgpool '" + layer.name + "' does not tile its input");
  }
  check_pow2_window("avgpool", layer, layer.kernel * layer.kernel);
  layer.out_shape = Shape{layer.in_shape.c, layer.in_shape.h / layer.kernel,
                          layer.in_shape.w / layer.kernel};
}

void infer_gavgpool(const std::vector<Layer>&, Layer& layer) {
  check_pow2_window("gavgpool", layer, layer.in_shape.h * layer.in_shape.w);
  layer.out_shape = Shape{layer.in_shape.c, 1, 1};
}

Tensor golden_avgpool_layer(const CnnModel& model, std::size_t i,
                            const std::vector<const Tensor*>& ins) {
  return golden_avgpool(*ins[0], model.layers()[i].kernel);
}

Tensor golden_gavgpool_layer(const CnnModel&, std::size_t,
                             const std::vector<const Tensor*>& ins) {
  return golden_global_avgpool(*ins[0]);
}

Netlist synth_avgpool(const CnnModel& model, const ModelImpl& impl, int layer_idx,
                      bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  const LayerImpl& li = impl.layers[static_cast<std::size_t>(layer_idx)];
  AvgPoolParams p;
  p.name = layer.name;
  p.channels = layer.in_shape.c;
  p.kernel_h = layer.kernel;
  p.kernel_w = layer.kernel;
  p.in_h = eff_h(layer, li);
  p.in_w = eff_w(layer, li);
  p.fuse_relu = fuse_relu || layer.fuse_relu;
  return make_avgpool_component(p);
}

Netlist synth_gavgpool(const CnnModel& model, const ModelImpl&, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  AvgPoolParams p;
  p.name = layer.name;
  p.channels = layer.in_shape.c;
  p.kernel_h = layer.in_shape.h;  // one window spanning the whole map
  p.kernel_w = layer.in_shape.w;
  p.in_h = layer.in_shape.h;
  p.in_w = layer.in_shape.w;
  p.fuse_relu = fuse_relu || layer.fuse_relu;
  return make_avgpool_component(p);
}

LayerCycles cycles_gavgpool(const Layer& layer, const LayerImpl&) {
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.compute = layer.in_shape.volume();  // one pass over every sample
  cycles.drain = layer.in_shape.c;
  return cycles;
}

// -- nearest-neighbour upsample ----------------------------------------------

void infer_upsample(const std::vector<Layer>&, Layer& layer) {
  layer.out_shape = Shape{layer.in_shape.c, layer.in_shape.h * layer.kernel,
                          layer.in_shape.w * layer.kernel};
}

Tensor golden_upsample_layer(const CnnModel& model, std::size_t i,
                             const std::vector<const Tensor*>& ins) {
  return golden_upsample_nn(*ins[0], model.layers()[i].kernel);
}

Netlist synth_upsample(const CnnModel& model, const ModelImpl&, int layer_idx, bool fuse_relu) {
  const Layer& layer = at(model, layer_idx);
  return make_upsample_component(layer.name, layer.in_shape.c, layer.in_shape.h,
                                 layer.in_shape.w, layer.kernel,
                                 fuse_relu || layer.fuse_relu);
}

LayerCycles cycles_upsample(const Layer& layer, const LayerImpl&) {
  // Store-and-forward: buffer the image, then replay with replication.
  LayerCycles cycles;
  cycles.load = layer.in_shape.volume();
  cycles.drain = layer.out_shape.volume();
  return cycles;
}

// -- arch-def emitters -------------------------------------------------------

void emit_input(std::ostream& os, const Layer& layer, const std::string&) {
  os << "input " << layer.out_shape.c << " " << layer.out_shape.h << " "
     << layer.out_shape.w << "\n";
}

void emit_conv(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "conv " << layer.name << " out=" << layer.out_c << " k=" << layer.kernel
     << " s=" << layer.stride << (layer.fuse_relu ? " relu" : "") << from << "\n";
}

void emit_dwconv(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "dwconv " << layer.name << " k=" << layer.kernel << " s=" << layer.stride
     << (layer.fuse_relu ? " relu" : "") << from << "\n";
}

void emit_pool(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "pool " << layer.name << " k=" << layer.kernel << (layer.fuse_relu ? " relu" : "")
     << from << "\n";
}

void emit_avgpool(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "avgpool " << layer.name << " k=" << layer.kernel
     << (layer.fuse_relu ? " relu" : "") << from << "\n";
}

void emit_gavgpool(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "gavgpool " << layer.name << (layer.fuse_relu ? " relu" : "") << from << "\n";
}

void emit_upsample(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "upsample " << layer.name << " f=" << layer.kernel
     << (layer.fuse_relu ? " relu" : "") << from << "\n";
}

void emit_relu(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "relu " << layer.name << from << "\n";
}

void emit_fc(std::ostream& os, const Layer& layer, const std::string& from) {
  os << "fc " << layer.name << " out=" << layer.out_c << (layer.fuse_relu ? " relu" : "")
     << from << "\n";
}

void emit_join(std::ostream& os, const Layer& layer, const std::string& from) {
  os << (layer.kind == LayerKind::kAdd ? "add" : "concat") << " " << layer.name << from
     << (layer.fuse_relu ? " relu" : "") << "\n";
}

// -- parse checks ------------------------------------------------------------

const char* check_conv(const Layer& layer) {
  return (layer.out_c <= 0 || layer.kernel <= 0) ? "conv needs out= and k=" : nullptr;
}
const char* check_dwconv(const Layer& layer) {
  return layer.kernel <= 0 ? "dwconv needs k=" : nullptr;
}
const char* check_pool(const Layer& layer) {
  return layer.kernel <= 0 ? "pool needs k=" : nullptr;
}
const char* check_avgpool(const Layer& layer) {
  return layer.kernel <= 0 ? "avgpool needs k=" : nullptr;
}
const char* check_upsample(const Layer& layer) {
  return layer.kernel <= 1 ? "upsample needs f= (>= 2)" : nullptr;
}
const char* check_fc(const Layer& layer) {
  return layer.out_c <= 0 ? "fc needs out=" : nullptr;
}

bool relu_fuses_into(const Layer&, const Layer&) { return true; }

std::vector<LayerTraits> make_registry() {
  std::vector<LayerTraits> traits(static_cast<std::size_t>(kLayerKindCount));
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kInput)];
    t.kind = LayerKind::kInput;
    t.keyword = "input";
    t.source = true;
    t.emit = emit_input;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kConv)];
    t.kind = LayerKind::kConv;
    t.keyword = "conv";
    t.uses_dsp_budget = true;
    t.stats_bucket = StatsBucket::kConv;
    t.tile = TilePolicy::kConvLike;
    t.parse_check = check_conv;
    t.emit = emit_conv;
    t.infer = infer_conv;
    t.params = conv_params;
    t.mac_count = conv_mac_count;
    t.fuses_into = pointwise_fuses_into;
    t.golden = golden_conv;
    t.synth = synth_conv;
    t.cycles = cycles_conv;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kPool)];
    t.kind = LayerKind::kPool;
    t.keyword = "pool";
    t.tile = TilePolicy::kPoolAligned;
    t.parse_check = check_pool;
    t.emit = emit_pool;
    t.infer = infer_pool;
    t.golden = golden_pool;
    t.synth = synth_pool;
    t.cycles = cycles_pool;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kRelu)];
    t.kind = LayerKind::kRelu;
    t.keyword = "relu";
    t.activation = true;
    t.emit = emit_relu;
    t.infer = infer_relu;
    t.fuses_into = relu_fuses_into;
    t.golden = golden_relu_layer;
    t.synth = synth_relu;
    t.cycles = cycles_relu;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kFc)];
    t.kind = LayerKind::kFc;
    t.keyword = "fc";
    t.uses_dsp_budget = true;
    t.flatten_input = true;
    t.stats_bucket = StatsBucket::kFc;
    t.parse_check = check_fc;
    t.emit = emit_fc;
    t.infer = infer_fc;
    t.params = fc_params;
    t.mac_count = fc_mac_count;
    t.golden = golden_fc_layer;
    t.synth = synth_fc;
    t.cycles = cycles_fc;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kAdd)];
    t.kind = LayerKind::kAdd;
    t.keyword = "add";
    t.join = true;
    t.emit = emit_join;
    t.infer = infer_add;
    t.golden = golden_add_layer;
    t.synth = synth_add;
    t.cycles = cycles_add;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kConcat)];
    t.kind = LayerKind::kConcat;
    t.keyword = "concat";
    t.join = true;
    t.emit = emit_join;
    t.infer = infer_concat;
    t.golden = golden_concat_layer;
    t.synth = synth_concat;
    t.cycles = cycles_concat;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kDwConv)];
    t.kind = LayerKind::kDwConv;
    t.keyword = "dwconv";
    t.stats_bucket = StatsBucket::kConv;
    t.tile = TilePolicy::kConvLike;
    t.parse_check = check_dwconv;
    t.emit = emit_dwconv;
    t.infer = infer_dwconv;
    t.params = dwconv_params;
    t.mac_count = dwconv_mac_count;
    t.golden = golden_dwconv;
    t.synth = synth_dwconv;
    t.cycles = cycles_dwconv;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kAvgPool)];
    t.kind = LayerKind::kAvgPool;
    t.keyword = "avgpool";
    t.tile = TilePolicy::kPoolAligned;
    t.parse_check = check_avgpool;
    t.emit = emit_avgpool;
    t.infer = infer_avgpool;
    t.golden = golden_avgpool_layer;
    t.synth = synth_avgpool;
    t.cycles = cycles_pool;  // same sweep structure as max pool
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kGlobalAvgPool)];
    t.kind = LayerKind::kGlobalAvgPool;
    t.keyword = "gavgpool";
    t.emit = emit_gavgpool;
    t.infer = infer_gavgpool;
    t.golden = golden_gavgpool_layer;
    t.synth = synth_gavgpool;
    t.cycles = cycles_gavgpool;
  }
  {
    LayerTraits& t = traits[static_cast<std::size_t>(LayerKind::kUpsample)];
    t.kind = LayerKind::kUpsample;
    t.keyword = "upsample";
    t.parse_check = check_upsample;
    t.emit = emit_upsample;
    t.infer = infer_upsample;
    t.golden = golden_upsample_layer;
    t.synth = synth_upsample;
    t.cycles = cycles_upsample;
  }
  for (std::size_t i = 0; i < traits.size(); ++i) {
    assert(traits[i].kind == static_cast<LayerKind>(i) && "registry order mismatch");
    assert(traits[i].emit != nullptr && "every kind must serialize");
    assert((traits[i].source || traits[i].infer != nullptr) && "every kind must infer");
  }
  return traits;
}

}  // namespace

const std::vector<LayerTraits>& layer_registry() {
  static const std::vector<LayerTraits> registry = make_registry();
  return registry;
}

const LayerTraits& layer_traits(LayerKind kind) {
  return layer_registry()[static_cast<std::size_t>(kind)];
}

const LayerTraits* layer_traits_by_keyword(const std::string& keyword) {
  for (const LayerTraits& t : layer_registry()) {
    if (keyword == t.keyword) return &t;
  }
  return nullptr;
}

}  // namespace fpgasim
