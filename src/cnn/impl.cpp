#include "cnn/impl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cnn/registry.h"

namespace fpgasim {
namespace {

/// Largest divisor of n that is <= cap.
int best_divisor(int n, int cap) {
  cap = std::min(cap, n);
  for (int d = cap; d >= 1; --d) {
    if (n % d == 0) return d;
  }
  return 1;
}

}  // namespace

ModelImpl choose_implementation(const CnnModel& model, long dsp_budget, int max_tile,
                                long rom_weight_limit) {
  ModelImpl impl;
  impl.layers.resize(model.layers().size());
  long total_macs = std::max<long>(1, model.stats().total_macs());

  for (std::size_t i = 0; i < model.layers().size(); ++i) {
    const Layer& layer = model.layers()[i];
    const LayerTraits& traits = layer_traits(layer.kind);
    LayerImpl& li = impl.layers[i];
    // Any spatial layer with a feature map too large for on-chip banks is
    // processed in tiles (the CLE sweeps the image tile by tile).
    if (traits.tile != TilePolicy::kNone &&
        (layer.in_shape.h > max_tile || layer.in_shape.w > max_tile)) {
      li.tile_h = std::min(layer.in_shape.h, max_tile);
      li.tile_w = std::min(layer.in_shape.w, max_tile);
      if (traits.tile == TilePolicy::kPoolAligned) {
        li.tile_h -= li.tile_h % layer.kernel;  // tiles must pool evenly
        li.tile_w -= li.tile_w % layer.kernel;
      }
    }
    if (!traits.uses_dsp_budget) continue;

    const long share = std::max<long>(
        1, static_cast<long>(std::llround(static_cast<double>(dsp_budget) * layer.macs() /
                                          static_cast<double>(total_macs))));
    const int in_c = traits.flatten_input ? static_cast<int>(layer.in_shape.volume())
                                          : layer.in_shape.c;
    const int out_c = layer.out_c;

    // Split the per-layer DSP allowance between input lanes and CU columns,
    // biased toward input parallelism (shorter accumulation loops).
    const int root = std::max(1, static_cast<int>(std::sqrt(static_cast<double>(share))));
    li.ic_par = best_divisor(in_c, 2 * root);
    li.oc_par = best_divisor(out_c, std::max(1, static_cast<int>(share) / li.ic_par));
    // Rebalance if the input dimension was the limiting factor.
    if (static_cast<long>(li.ic_par) * li.oc_par < share / 2) {
      li.oc_par = best_divisor(out_c, std::max(1, static_cast<int>(share) / li.ic_par));
      li.ic_par = best_divisor(in_c, std::max(1, static_cast<int>(share) / li.oc_par));
    }

    if (layer.weights() > rom_weight_limit) {
      li.materialize = false;
      li.weight_buffer_ocg = 1;
    }
  }
  return impl;
}

std::vector<std::vector<int>> default_grouping(const CnnModel& model) {
  std::vector<std::vector<int>> groups;
  const auto& layers = model.layers();
  const std::vector<int> consumers = model.consumer_counts();
  std::vector<int> group_of(layers.size(), -1);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Layer& layer = layers[i];
    const LayerTraits& traits = layer_traits(layer.kind);
    if (traits.source) continue;  // the streamer feeds the first component directly
    // A layer fuses into its producer's group when the registry says the
    // pair composes without a memory controller between them (relu into
    // anything, pointwise conv into depthwise), the producer has no other
    // consumer and is the tail of its group (Sec. IV-B1). A fusable layer
    // on a forked edge must stay its own component so the other branch
    // sees the un-fused stream.
    if (traits.fuses_into != nullptr && layer.inputs.size() == 1) {
      const int pred = layer.input();
      const int pred_group = pred >= 0 ? group_of[static_cast<std::size_t>(pred)] : -1;
      if (pred_group != -1 && consumers[static_cast<std::size_t>(pred)] == 1 &&
          groups[static_cast<std::size_t>(pred_group)].back() == pred &&
          traits.fuses_into(layers[static_cast<std::size_t>(pred)], layer)) {
        group_of[i] = pred_group;
        groups[static_cast<std::size_t>(pred_group)].push_back(static_cast<int>(i));
        continue;
      }
    }
    group_of[i] = static_cast<int>(groups.size());
    groups.push_back({static_cast<int>(i)});
  }
  return groups;
}

GroupGraph build_group_graph(const CnnModel& model,
                             const std::vector<std::vector<int>>& groups) {
  const auto& layers = model.layers();
  const std::vector<int> consumers = model.consumer_counts();
  std::vector<int> group_of(layers.size(), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) throw std::runtime_error("group graph: empty group");
    for (int idx : groups[g]) {
      group_of[static_cast<std::size_t>(idx)] = static_cast<int>(g);
    }
  }
  GroupGraph graph;
  graph.fanout.assign(groups.size(), 0);
  graph.output_group = -1;
  int input_consumer = -1;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<int>& group = groups[g];
    // Non-head members must be fed exclusively by their in-group
    // predecessor: a layer whose output also leaves the group would need a
    // stream fork in the middle of a fused datapath.
    for (std::size_t m = 1; m < group.size(); ++m) {
      const Layer& layer = layers[static_cast<std::size_t>(group[m])];
      if (layer.inputs.size() != 1 || layer.inputs[0] != group[m - 1] ||
          consumers[static_cast<std::size_t>(group[m - 1])] != 1) {
        throw std::runtime_error("group graph: group splits a branch mid-edge at layer '" +
                                 layer.name + "'");
      }
    }
    const Layer& head = layers[static_cast<std::size_t>(group.front())];
    for (std::size_t port = 0; port < head.inputs.size(); ++port) {
      const int pred = head.inputs[port];
      const Layer& pred_layer = layers[static_cast<std::size_t>(pred)];
      if (layer_traits(pred_layer.kind).source) {
        if (port != 0) {
          throw std::runtime_error("group graph: model input must feed port 0 of '" +
                                   head.name + "'");
        }
        if (input_consumer != -1) {
          throw std::runtime_error("group graph: model input feeds more than one group");
        }
        input_consumer = static_cast<int>(g);
        continue;
      }
      const int pred_group = group_of[static_cast<std::size_t>(pred)];
      if (pred_group == -1 ||
          groups[static_cast<std::size_t>(pred_group)].back() != pred) {
        throw std::runtime_error("group graph: layer '" + head.name +
                                 "' consumes mid-group output of '" + pred_layer.name + "'");
      }
      graph.edges.push_back(GroupEdge{pred_group, static_cast<int>(g),
                                      static_cast<int>(port)});
      ++graph.fanout[static_cast<std::size_t>(pred_group)];
    }
    // A group tail with no consumers is the design output.
    if (consumers[static_cast<std::size_t>(group.back())] == 0) {
      if (graph.output_group != -1) {
        throw std::runtime_error("group graph: more than one terminal group");
      }
      graph.output_group = static_cast<int>(g);
    }
  }
  if (input_consumer == -1) {
    throw std::runtime_error("group graph: no group consumes the model input");
  }
  if (graph.output_group == -1) {
    throw std::runtime_error("group graph: no terminal group");
  }
  graph.input_group = input_consumer;
  return graph;
}

LayerCycles layer_cycles(const Layer& layer, const LayerImpl& impl) {
  const auto cycles = layer_traits(layer.kind).cycles;
  return cycles != nullptr ? cycles(layer, impl) : LayerCycles{};
}

ComponentLatency group_latency(const CnnModel& model, const ModelImpl& impl,
                               const std::vector<int>& group, double fmax_mhz) {
  ComponentLatency latency;
  latency.at_mhz = fmax_mhz;
  for (int idx : group) {
    const Layer& layer = model.layers()[static_cast<std::size_t>(idx)];
    latency.cycles += layer_cycles(layer, impl.layers[static_cast<std::size_t>(idx)]).total();
  }
  return latency;
}

double pipeline_throughput(const CnnModel& model, const ModelImpl& impl,
                           const std::vector<std::vector<int>>& groups, double fmax_mhz) {
  long interval = 1;
  for (const auto& group : groups) {
    interval = std::max(interval, group_latency(model, impl, group, 1.0).cycles);
  }
  // cycles / (MHz * 1e6) seconds per image.
  return fmax_mhz * 1e6 / static_cast<double>(interval);
}

}  // namespace fpgasim
