#include "netlist/comb_graph.h"

#include <algorithm>

namespace fpgasim {

CombGraph::CombGraph(const Netlist& netlist) {
  const std::size_t cells = netlist.cell_count();
  node_.assign(cells, false);
  for (CellId c = 0; c < cells; ++c) {
    node_[c] = is_combinational(netlist.cell(c));
    node_count_ += node_[c];
  }

  offset_.assign(cells + 1, 0);
  for (CellId c = 0; c < cells; ++c) {
    offset_[c] = static_cast<std::uint32_t>(succ_.size());
    if (!node_[c]) continue;
    for (const NetId out : netlist.cell(c).outputs) {
      if (out >= netlist.net_count()) continue;
      for (const auto& [sink, pin] : netlist.net(out).sinks) {
        if (sink < cells && node_[sink]) succ_.push_back(sink);
      }
    }
  }
  offset_[cells] = static_cast<std::uint32_t>(succ_.size());

  // Kahn, with order_ itself as the FIFO of ready nodes.
  std::vector<std::uint32_t> indegree(cells, 0);
  for (const CellId s : succ_) ++indegree[s];
  level_.assign(cells, 0);
  order_.reserve(node_count_);
  for (CellId c = 0; c < cells; ++c) {
    if (node_[c] && indegree[c] == 0) order_.push_back(c);
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const CellId c = order_[head];
    depth_ = std::max<std::size_t>(depth_, level_[c] + 1);
    for (const CellId s : successors(c)) {
      level_[s] = std::max(level_[s], level_[c] + 1);
      if (--indegree[s] == 0) order_.push_back(s);
    }
  }
}

std::vector<std::vector<CellId>> CombGraph::cycles() const {
  const std::size_t cells = node_.size();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(cells, kUnvisited);
  std::vector<std::uint32_t> lowlink(cells, 0);
  std::vector<bool> on_stack(cells, false);
  std::vector<CellId> stack;  // Tarjan's component stack
  struct Frame {
    CellId cell;
    std::uint32_t next;  // index into succ_ of the next successor to try
  };
  std::vector<Frame> dfs;
  std::uint32_t next_index = 0;
  const auto visit = [&](CellId c) {
    index[c] = lowlink[c] = next_index++;
    stack.push_back(c);
    on_stack[c] = true;
    dfs.push_back({c, offset_[c]});
  };

  std::vector<std::vector<CellId>> found;
  for (CellId root = 0; root < cells; ++root) {
    if (!node_[root] || index[root] != kUnvisited) continue;
    visit(root);
    while (!dfs.empty()) {
      const CellId c = dfs.back().cell;
      if (dfs.back().next < offset_[c + 1]) {
        const CellId s = succ_[dfs.back().next++];
        if (index[s] == kUnvisited) {
          visit(s);
        } else if (on_stack[s]) {
          lowlink[c] = std::min(lowlink[c], index[s]);
        }
        continue;
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        lowlink[dfs.back().cell] = std::min(lowlink[dfs.back().cell], lowlink[c]);
      }
      if (lowlink[c] != index[c]) continue;
      // c roots a component: pop it (reverse discovery order).
      std::vector<CellId> scc;
      CellId m;
      do {
        m = stack.back();
        stack.pop_back();
        on_stack[m] = false;
        scc.push_back(m);
      } while (m != c);
      const std::span<const CellId> succ = successors(c);
      if (scc.size() > 1 || std::find(succ.begin(), succ.end(), c) != succ.end()) {
        std::reverse(scc.begin(), scc.end());
        found.push_back(std::move(scc));
      }
    }
  }
  return found;
}

}  // namespace fpgasim
