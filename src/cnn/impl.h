// Implementation planning: per-layer parallelism selection (PE lanes, CU
// columns, feature-map tiling, weight storage policy), the component
// grouping step of the granularity exploration (Sec. IV-A1), and the
// analytic latency model used for Tables III / Fig. 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cnn/model.h"

namespace fpgasim {

/// Hardware parameters chosen for one layer.
struct LayerImpl {
  int ic_par = 1;   // input feature maps processed in parallel (PEs)
  int oc_par = 1;   // output channels computed in parallel (CU columns)
  int tile_h = 0;   // 0: process the full feature map on chip
  int tile_w = 0;
  bool materialize = true;   // weights in ROM vs streamed buffers
  int weight_buffer_ocg = 0; // buffered output groups when streaming

  long dsp_count() const { return static_cast<long>(ic_par) * oc_par; }
};

struct ModelImpl {
  std::vector<LayerImpl> layers;  // aligned with CnnModel::layers()
};

/// Distributes a DSP budget over the conv/FC layers proportionally to
/// their MAC share, picking channel-divisor parallelism, and tiles large
/// feature maps down to `max_tile`. Layers with more than
/// `rom_weight_limit` parameters switch to streamed weight buffers (the
/// VGG off-chip coefficient scheme of Sec. V-B2).
ModelImpl choose_implementation(const CnnModel& model, long dsp_budget, int max_tile = 32,
                                long rom_weight_limit = 70000);

/// Component grouping ("granularity exploration"): by default every layer
/// becomes its own component, except fusions declared in the layer
/// registry — a relu fuses into any preceding single-consumer group tail
/// (Sec. IV-B1: no memory controller needed between them) and a 1x1/s1
/// pointwise conv fuses into a preceding depthwise conv (the MobileNet
/// dw/pw pair becomes one stitched component). Branching DFGs never split
/// a branch across a group boundary mid-edge.
std::vector<std::vector<int>> default_grouping(const CnnModel& model);

// -- group-level data-flow graph --------------------------------------------

/// A stream edge between two component groups: output of `from` feeds
/// input port `to_port` of `to` (port order = the head layer's `inputs`
/// order; single-input components only use port 0).
struct GroupEdge {
  int from = -1;
  int to = -1;
  int to_port = 0;
  friend bool operator==(const GroupEdge&, const GroupEdge&) = default;
};

/// The component DAG induced by a grouping: groups are nodes, layer edges
/// that cross a group boundary become stream edges. `fanout[g]` counts the
/// outgoing edges of group g (>1 means a stream fork is required when
/// stitching). `input_group` consumes the model's kInput layer;
/// `output_group` is the unique terminal group.
struct GroupGraph {
  std::vector<GroupEdge> edges;  // sorted by (to, to_port)
  std::vector<int> fanout;       // per group
  int input_group = 0;
  int output_group = -1;
};

/// Builds and validates the group DAG. Throws std::runtime_error when a
/// grouping is not a legal topological partition: a non-head group member
/// must be fed exclusively by its in-group predecessor (single consumer),
/// the kInput layer must feed exactly one group head at port 0, and
/// exactly one group must be terminal.
GroupGraph build_group_graph(const CnnModel& model,
                             const std::vector<std::vector<int>>& groups);

/// Cycle counts of one layer under an implementation (logical, untiled
/// feature-map dimensions; tiling multiplies the sweep count but the total
/// work is identical).
struct LayerCycles {
  long load = 0, compute = 0, drain = 0;
  long total() const { return load + compute + drain; }
};
LayerCycles layer_cycles(const Layer& layer, const LayerImpl& impl);

/// Per-component and end-to-end latency at the given clock.
struct ComponentLatency {
  long cycles = 0;
  double at_mhz = 0.0;
  double latency_us() const { return cycles / at_mhz; }  // cycles/MHz == us
};
ComponentLatency group_latency(const CnnModel& model, const ModelImpl& impl,
                               const std::vector<int>& group, double fmax_mhz);

/// Image-pipelined throughput: components overlap across images (each CLE
/// processes image i while its successor works on image i-1), so the
/// initiation interval is the slowest component's cycle count.
/// Returns images/second at the given clock.
double pipeline_throughput(const CnnModel& model, const ModelImpl& impl,
                           const std::vector<std::vector<int>>& groups, double fmax_mhz);

}  // namespace fpgasim
