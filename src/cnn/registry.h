// Layer-descriptor registry: one table entry per LayerKind carrying the
// grammar keyword, classification flags, and the per-kind behaviour the
// rest of the stack needs — shape inference, parameter/MAC accounting,
// golden reference evaluation, synthesis kernel factory, and the latency
// model. Everything that used to be a `switch (LayerKind)` dispatches
// through this table, so adding a layer kind touches exactly two places:
// its registry entry (registry.cpp) and its engine (src/synth).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "netlist/netlist.h"

namespace fpgasim {

/// Synthesized parameter counts of one layer (layer_params draws them).
struct ParamCounts {
  std::size_t weights = 0;
  std::size_t bias = 0;
};

/// Which Table-I column a layer's weights/MACs are charged to.
enum class StatsBucket { kNone, kConv, kFc };

/// Feature-map tiling rule applied by choose_implementation when the
/// input is larger than max_tile.
enum class TilePolicy {
  kNone,         // never tiled (streams, joins, global reductions)
  kConvLike,     // clip both dimensions to max_tile
  kPoolAligned,  // clip, then round down to a multiple of the window
};

struct LayerTraits {
  LayerKind kind = LayerKind::kInput;
  const char* keyword = "?";  // arch-def grammar keyword
  bool source = false;        // the model-input pseudo layer
  bool join = false;          // multi-input element-wise join (>= 2 from=)
  bool activation = false;    // pure activation, fusable into a predecessor
  bool uses_dsp_budget = false;  // participates in the MAC-share DSP split
  bool flatten_input = false;    // parallelism over the flattened volume (FC)
  StatsBucket stats_bucket = StatsBucket::kNone;
  TilePolicy tile = TilePolicy::kNone;

  /// Post-parse attribute validation: an error message ("conv needs out=
  /// and k="), or nullptr when the layer line is well-formed.
  const char* (*parse_check)(const Layer&) = nullptr;
  /// Serializes one arch-def line (including the trailing newline).
  /// `from_clause` is the pre-rendered " from=..." suffix (may be empty).
  void (*emit)(std::ostream&, const Layer&, const std::string& from_clause) = nullptr;
  /// Shape inference: in_shape is already set to the first predecessor's
  /// out_shape; fills out_shape and validates (throws std::runtime_error).
  /// Null for the source kind (handled generically).
  void (*infer)(const std::vector<Layer>& layers, Layer& layer) = nullptr;
  /// Weight and bias counts of a layer that carries synthesized
  /// parameters (`_w` in checkpoint signatures when materialized). Null
  /// for a kind without weights.
  ParamCounts (*params)(const Layer&) = nullptr;
  /// MAC accounting; null means zero.
  long (*mac_count)(const Layer&) = nullptr;
  /// Grouping: true when this layer may fuse into the tail `pred` of its
  /// predecessor group (no memory controller between them). Null = never.
  /// Used for relu-into-anything and pointwise-conv-into-dwconv fusion.
  bool (*fuses_into)(const Layer& pred, const Layer& layer) = nullptr;
  /// Golden reference evaluation of layer `i` given its input tensors (in
  /// `inputs` edge order). Applies the layer's own arithmetic only; the
  /// caller layers fuse_relu on top. Null for the source kind.
  Tensor (*golden)(const CnnModel& model, std::size_t layer_index,
                   const std::vector<const Tensor*>& ins) = nullptr;
  /// Synthesis kernel factory (component netlist for one layer). Null
  /// marks the kind not synthesizable (the source kind).
  Netlist (*synth)(const CnnModel& model, const ModelImpl& impl, int layer_index,
                   bool fuse_relu) = nullptr;
  /// Latency model contribution; null means all-zero cycles.
  LayerCycles (*cycles)(const Layer&, const LayerImpl&) = nullptr;
};

/// The full registry in LayerKind enumerator order (index == enum value).
const std::vector<LayerTraits>& layer_registry();

/// Traits of one kind (O(1) table lookup).
const LayerTraits& layer_traits(LayerKind kind);

/// Keyword -> traits, or nullptr for an unknown keyword.
const LayerTraits* layer_traits_by_keyword(const std::string& keyword);

}  // namespace fpgasim
