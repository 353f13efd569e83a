// The combinational cell graph of a netlist, built once and shared by
// every pass that walks it: STA, the interpreter, the compiled levelizer,
// and the comb-loop checks of DRC and lint.
//
// Nodes are the is_combinational() cells (LUT/ADD/MAX/RELU and unpipelined
// DSPs). Constants and clocked cells are not nodes, so register feedback
// never forms an edge. There is one edge per input pin a node reads from
// another node's output: a cell reading one net on two pins gets two
// edges from its driver. A node's successors are stored CSR-style in
// output-pin order, then net-sink order. Out-of-range net and cell ids are
// skipped, so the graph can be built over a fuzzed checkpoint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace fpgasim {

class CombGraph {
 public:
  /// Builds the fanout and runs one Kahn pass (topological order plus
  /// longest-path levels). O(cells + nets + edges).
  explicit CombGraph(const Netlist& netlist);

  bool is_node(CellId cell) const { return node_[cell]; }
  std::size_t node_count() const { return node_count_; }
  /// Combinational successors of `cell` (empty for non-nodes).
  std::span<const CellId> successors(CellId cell) const {
    return {succ_.data() + offset_[cell], offset_[cell + 1] - offset_[cell]};
  }

  /// Kahn order: ready nodes in ascending cell id, first in first out.
  /// Nodes on or downstream of a cycle are missing.
  const std::vector<CellId>& order() const { return order_; }
  /// True when some node lies on or behind a combinational cycle.
  bool has_cycle() const { return order_.size() != node_count_; }
  /// Longest-path depth of an ordered node (0: reads no other node).
  std::uint32_t level(CellId cell) const { return level_[cell]; }
  /// Number of distinct levels among ordered nodes (0 without nodes).
  std::size_t depth() const { return depth_; }

  /// Every combinational cycle, from one iterative Tarjan pass: each
  /// strongly connected component of more than one node, and each node
  /// that feeds itself. Roots are tried in ascending cell id; components
  /// come out in completion order, each listed in DFS discovery order.
  std::vector<std::vector<CellId>> cycles() const;

 private:
  std::vector<bool> node_;
  std::vector<std::uint32_t> offset_;  // cell -> first successor; size cells + 1
  std::vector<CellId> succ_;
  std::vector<CellId> order_;
  std::vector<std::uint32_t> level_;
  std::size_t node_count_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace fpgasim
