#include "route/router.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

namespace fpgasim {
namespace {

// Present-congestion pressure grows by this much per negotiation round.
constexpr double kPresentFactor = 0.7;
// Initial expansion of the per-net A* bounding box beyond its terminals
// (tiles), and the extra margin granted each time congestion rips the net
// up again (the box grows until a detour fits).
constexpr int kBboxMargin = 3;
constexpr int kBboxGrowth = 8;

struct Graph {
  int w = 0, h = 0;
  RouteOptions opt;
  // Undirected edge arrays: horizontal (x,y)-(x+1,y) and vertical
  // (x,y)-(x,y+1).
  std::vector<std::int16_t> use_h, use_v;
  std::vector<float> hist_h, hist_v;
  std::vector<float> base_h, base_v;
  // Per-edge -> routing-job reverse index (open nets only; locked nets
  // charge usage but are never ripped up, so they are not tracked). Drives
  // incremental rip-up: an overused edge dirties exactly its user jobs.
  std::vector<std::vector<std::int32_t>> users_h, users_v;

  Graph(const Device& device, const RouteOptions& options, const DelayModel& dm)
      : w(device.width()), h(device.height()), opt(options) {
    use_h.assign(static_cast<std::size_t>(w - 1) * h, 0);
    use_v.assign(static_cast<std::size_t>(w) * (h - 1), 0);
    hist_h.assign(use_h.size(), 0.f);
    hist_v.assign(use_v.size(), 0.f);
    base_h.assign(use_h.size(), 0.f);
    base_v.assign(use_v.size(), 0.f);
    users_h.resize(use_h.size());
    users_v.resize(use_v.size());
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w - 1; ++x) {
        double d = dm.wire_per_tile;
        if (device.column_type(x + 1) == ColumnType::kIo) d += dm.wire_discontinuity;
        base_h[h_idx(x, y)] = static_cast<float>(d);
      }
    }
    for (int y = 0; y < h - 1; ++y) {
      for (int x = 0; x < w; ++x) {
        base_v[v_idx(x, y)] = static_cast<float>(dm.wire_per_tile);
      }
    }
  }

  std::size_t h_idx(int x, int y) const { return static_cast<std::size_t>(y) * (w - 1) + x; }
  std::size_t v_idx(int x, int y) const { return static_cast<std::size_t>(y) * w + x; }
  int node(int x, int y) const { return y * w + x; }

  /// Canonical (horizontal?, index) of the undirected edge a-b.
  std::pair<bool, std::size_t> edge_index(TileCoord a, TileCoord b) const {
    if (a.y == b.y) return {true, h_idx(std::min(a.x, b.x), a.y)};
    return {false, v_idx(a.x, std::min(a.y, b.y))};
  }

  /// Negotiated cost of traversing one edge in the current iteration.
  double edge_cost(bool horizontal, std::size_t idx, double pressure) const {
    const float base = horizontal ? base_h[idx] : base_v[idx];
    const float hist = horizontal ? hist_h[idx] : hist_v[idx];
    const int use = horizontal ? use_h[idx] : use_v[idx];
    const int over = std::max(0, use + 1 - opt.channel_capacity);
    return base * (1.0 + hist) * (1.0 + pressure * over);
  }

  /// Final (post-negotiation) delay of an edge including congestion slowdown.
  double edge_delay(bool horizontal, std::size_t idx) const {
    const float base = horizontal ? base_h[idx] : base_v[idx];
    const int use = horizontal ? use_h[idx] : use_v[idx];
    const double load = static_cast<double>(use) / opt.channel_capacity;
    return base * (1.0 + kCongestionDelayFactor * load * load);
  }

  /// Usage of locked / pre-routed nets: no rip-up, so no reverse index.
  void charge_locked(const RouteInfo& route, int delta) {
    for (const auto& [a, b] : route.edges) {
      const auto [horizontal, idx] = edge_index(a, b);
      std::int16_t& use = horizontal ? use_h[idx] : use_v[idx];
      use = static_cast<std::int16_t>(use + delta);
    }
  }

  /// Usage + reverse index of an open routing job's current route.
  void charge_job(std::int32_t job, const RouteInfo& route, int delta) {
    for (const auto& [a, b] : route.edges) {
      const auto [horizontal, idx] = edge_index(a, b);
      std::int16_t& use = horizontal ? use_h[idx] : use_v[idx];
      use = static_cast<std::int16_t>(use + delta);
      std::vector<std::int32_t>& users = horizontal ? users_h[idx] : users_v[idx];
      if (delta > 0) {
        users.push_back(job);
      } else {
        users.erase(std::find(users.begin(), users.end(), job));
      }
    }
  }
};

struct PqEntry {
  double f;
  double g;
  int node;
  // Min-heap on f with a full deterministic order: ties prefer the larger
  // g (deeper, closer to the goal), then the smaller node id, so heap
  // order never depends on insertion order.
  bool operator<(const PqEntry& o) const {
    if (f != o.f) return f > o.f;
    if (g != o.g) return g < o.g;
    return node > o.node;
  }
};

/// Per-worker search scratch: flat epoch-stamped arrays over the tile
/// grid, so neither the A* search, the seed-tree walk nor the commit
/// re-walk allocates or hashes per node. One Scratch is private to one
/// net's routing at a time (leased from the ScratchPool below).
struct Scratch {
  std::vector<double> dist;      // A* best g per node        (search epoch)
  std::vector<int> visit_stamp;  // dist/parent validity
  std::vector<int> parent;
  std::vector<int> target_stamp;       // goal nodes of the search
  std::vector<int> target_dist;        // hops to nearest remaining target
  std::vector<int> target_dist_stamp;  // (search epoch)
  std::vector<double> tree_delay;      // driver->node delay   (tree epoch)
  std::vector<int> tree_stamp;
  std::vector<int> adj;                // 4 slots/node: route-tree adjacency
  std::vector<std::uint8_t> adj_count;
  std::vector<int> adj_stamp;          // (tree epoch)
  std::vector<int> frontier, next_frontier;  // BFS worklists
  std::vector<PqEntry> heap;                 // A* priority queue storage
  int epoch = 0;

  void ensure(std::size_t nodes) {
    if (dist.size() >= nodes) return;
    dist.resize(nodes);
    visit_stamp.assign(nodes, -1);
    parent.resize(nodes);
    target_stamp.assign(nodes, -1);
    target_dist.resize(nodes);
    target_dist_stamp.assign(nodes, -1);
    tree_delay.resize(nodes);
    tree_stamp.assign(nodes, -1);
    adj.resize(nodes * 4);
    adj_count.resize(nodes);
    adj_stamp.assign(nodes, -1);
  }

  /// Loads `edges` into the adjacency arrays under `tree_epoch` and walks
  /// the tree from `root`, stamping tree_delay with the accumulated edge
  /// delay. Nodes reached beyond the root are appended to `out` when set.
  void walk_tree(const Graph& g, const std::vector<std::pair<TileCoord, TileCoord>>& edges,
                 int root, int tree_epoch, std::vector<std::pair<int, double>>* out) {
    auto link = [&](int from, int to) {
      const std::size_t n = static_cast<std::size_t>(from);
      if (adj_stamp[n] != tree_epoch) {
        adj_stamp[n] = tree_epoch;
        adj_count[n] = 0;
      }
      if (adj_count[n] < 4) adj[n * 4 + adj_count[n]++] = to;
    };
    for (const auto& [a, b] : edges) {
      const int na = g.node(a.x, a.y), nb = g.node(b.x, b.y);
      link(na, nb);
      link(nb, na);
    }
    tree_stamp[static_cast<std::size_t>(root)] = tree_epoch;
    tree_delay[static_cast<std::size_t>(root)] = 0.0;
    frontier.clear();
    frontier.push_back(root);
    while (!frontier.empty()) {
      const int v = frontier.back();
      frontier.pop_back();
      const std::size_t vn = static_cast<std::size_t>(v);
      const double dv = tree_delay[vn];
      if (adj_stamp[vn] != tree_epoch) continue;  // leaf beyond the edges
      for (std::uint8_t k = 0; k < adj_count[vn]; ++k) {
        const int u = adj[vn * 4 + k];
        const std::size_t un = static_cast<std::size_t>(u);
        if (tree_stamp[un] == tree_epoch) continue;
        const int vx = v % g.w, vy = v / g.w, ux = u % g.w, uy = u / g.w;
        const bool horizontal = (vy == uy);
        const std::size_t eidx = horizontal ? g.h_idx(std::min(vx, ux), vy)
                                            : g.v_idx(vx, std::min(vy, uy));
        const double du = dv + g.edge_delay(horizontal, eidx);
        tree_stamp[un] = tree_epoch;
        tree_delay[un] = du;
        if (out != nullptr) out->emplace_back(u, du);
        frontier.push_back(u);
      }
    }
  }
};

/// Lease-based pool of Scratch instances: one per concurrently routing
/// net, reused across batches and iterations. Which physical Scratch a net
/// gets does not matter — every array is epoch-stamped.
class ScratchPool {
 public:
  explicit ScratchPool(std::size_t nodes) : nodes_(nodes) {}

  std::unique_ptr<Scratch> acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::unique_ptr<Scratch> s = std::move(free_.back());
        free_.pop_back();
        return s;
      }
    }
    auto s = std::make_unique<Scratch>();
    s->ensure(nodes_);
    return s;
  }

  void release(std::unique_ptr<Scratch> s) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(s));
  }

 private:
  std::size_t nodes_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

// One net to route: terminals as tile nodes.
struct Job {
  NetId net = kInvalidNet;
  int driver_node = -1;
  std::vector<int> sink_nodes;         // deduplicated, still to reach
  std::vector<int> sink_node_of_sink;  // per netlist sink: its node
  // Partial nets (stitched component ports): the locked part of the
  // route tree plus the delays of the sinks it already serves.
  std::vector<std::pair<TileCoord, TileCoord>> seed_edges;
  std::vector<double> old_delays;
  // A* search region: the terminal/seed bounding box expanded by `margin`
  // tiles and clamped to the device (and opt.region when bounded). The
  // margin grows every time congestion rips the net up, so detours always
  // eventually fit.
  Pblock base_box;
  Pblock box;
  int margin = 0;
};

void clamp_box(Job& job, const Graph& graph) {
  Pblock b = job.base_box;
  b.x0 -= job.margin;
  b.y0 -= job.margin;
  b.x1 += job.margin;
  b.y1 += job.margin;
  b.x0 = std::max(b.x0, 0);
  b.y0 = std::max(b.y0, 0);
  b.x1 = std::min(b.x1, graph.w - 1);
  b.y1 = std::min(b.y1, graph.h - 1);
  if (graph.opt.bounded) {
    b.x0 = std::max(b.x0, graph.opt.region.x0);
    b.y0 = std::max(b.y0, graph.opt.region.y0);
    b.x1 = std::min(b.x1, graph.opt.region.x1);
    b.y1 = std::min(b.y1, graph.opt.region.y1);
  }
  job.box = b;
}

void grow_box(Job& job, int x, int y) {
  job.base_box.x0 = std::min(job.base_box.x0, x);
  job.base_box.y0 = std::min(job.base_box.y0, y);
  job.base_box.x1 = std::max(job.base_box.x1, x);
  job.base_box.y1 = std::max(job.base_box.y1, y);
}

/// Splits `worklist` (ascending job indices) into batches whose search
/// boxes are pairwise disjoint. A batch's nets read and write disjoint
/// edge sets, so routing them concurrently is exactly equivalent to
/// routing them one after another — which is what makes the parallel
/// schedule byte-identical to the serial one. Conflicting boxes serialize
/// into later batches (first-fit, probed through a coarse occupancy
/// bitmap with an exact rectangle check on coarse collisions).
std::vector<std::vector<std::size_t>> make_batches(const std::vector<Job>& jobs,
                                                   const std::vector<std::size_t>& worklist,
                                                   int w, int h) {
  constexpr int kCell = 8;                // coarse grid granularity (tiles)
  constexpr std::size_t kMaxProbe = 64;   // batches tried before opening a new one
  const int gw = (w + kCell - 1) / kCell;
  const std::size_t words = (static_cast<std::size_t>(gw) * ((h + kCell - 1) / kCell) + 63) / 64;
  struct Batch {
    std::vector<std::size_t> members;
    std::vector<Pblock> boxes;
    std::vector<std::uint64_t> bits;
  };
  std::vector<Batch> batches;
  auto for_cells = [&](const Pblock& box, auto&& fn) {
    for (int cy = box.y0 / kCell; cy <= box.y1 / kCell; ++cy) {
      for (int cx = box.x0 / kCell; cx <= box.x1 / kCell; ++cx) {
        fn(static_cast<std::size_t>(cy) * gw + cx);
      }
    }
  };
  for (std::size_t j : worklist) {
    const Pblock& box = jobs[j].box;
    Batch* home = nullptr;
    const std::size_t probe = std::min(batches.size(), kMaxProbe);
    for (std::size_t b = 0; b < probe && home == nullptr; ++b) {
      Batch& cand = batches[b];
      bool coarse_hit = false;
      for_cells(box, [&](std::size_t cell) {
        coarse_hit = coarse_hit || ((cand.bits[cell >> 6] >> (cell & 63)) & 1) != 0;
      });
      if (coarse_hit) {
        // A shared coarse cell is conservative; confirm with exact tests.
        bool overlap = false;
        for (const Pblock& other : cand.boxes) {
          if (box.overlaps(other)) {
            overlap = true;
            break;
          }
        }
        if (overlap) continue;
      }
      home = &cand;
    }
    if (home == nullptr) {
      batches.emplace_back();
      home = &batches.back();
      home->bits.assign(words, 0);
    }
    home->members.push_back(j);
    home->boxes.push_back(box);
    for_cells(box, [&](std::size_t cell) {
      home->bits[cell >> 6] |= std::uint64_t{1} << (cell & 63);
    });
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(batches.size());
  for (Batch& b : batches) out.push_back(std::move(b.members));
  return out;
}

/// Routes one net inside its bounding box against the current usage.
/// Reads the graph, writes only `route` and `scratch` — never shared
/// state — so jobs of one batch can run on any thread in any order.
bool route_job(const Graph& graph, const Netlist& netlist, const DelayModel& dm,
               const Job& job, RouteInfo& route, double pressure, Scratch& s) {
  const int w = graph.w;
  const Pblock& box = job.box;
  route.edges = job.seed_edges;
  route.sink_delays_ns.clear();

  // Grow a Steiner tree: tree nodes with accumulated delay from driver.
  const int tree_epoch = ++s.epoch;
  std::vector<std::pair<int, double>> tree;
  tree.reserve(job.sink_nodes.size() + job.seed_edges.size() + 1);
  tree.emplace_back(job.driver_node, 0.0);
  s.tree_stamp[static_cast<std::size_t>(job.driver_node)] = tree_epoch;
  s.tree_delay[static_cast<std::size_t>(job.driver_node)] = 0.0;
  // Seed with the locked part of a partial net (delay accumulates outward
  // from the driver along its edges).
  if (!job.seed_edges.empty()) {
    s.walk_tree(graph, job.seed_edges, job.driver_node, tree_epoch, &tree);
  }

  std::vector<int> remaining = job.sink_nodes;
  while (!remaining.empty()) {
    const int search = ++s.epoch;
    for (int t : remaining) s.target_stamp[static_cast<std::size_t>(t)] = search;

    // Admissible A* heuristic: distance to the nearest remaining target.
    // Small fanouts use a direct min-scan; wide fanouts precompute a
    // nearest-target distance grid with one multi-source BFS across the
    // box (exact min-Manhattan on the unobstructed rectangle), so the
    // heuristic stays O(1) per node instead of degenerating to Dijkstra.
    const bool small_fanout = remaining.size() <= 8;
    if (!small_fanout) {
      s.frontier.clear();
      for (int t : remaining) {
        const std::size_t tn = static_cast<std::size_t>(t);
        if (s.target_dist_stamp[tn] != search) {
          s.target_dist_stamp[tn] = search;
          s.target_dist[tn] = 0;
          s.frontier.push_back(t);
        }
      }
      int level = 0;
      while (!s.frontier.empty()) {
        s.next_frontier.clear();
        ++level;
        for (int v : s.frontier) {
          const int x = v % w, y = v / w;
          auto visit = [&](int nx, int ny) {
            const std::size_t nn = static_cast<std::size_t>(ny * w + nx);
            if (s.target_dist_stamp[nn] != search) {
              s.target_dist_stamp[nn] = search;
              s.target_dist[nn] = level;
              s.next_frontier.push_back(static_cast<int>(nn));
            }
          };
          if (x + 1 <= box.x1) visit(x + 1, y);
          if (x - 1 >= box.x0) visit(x - 1, y);
          if (y + 1 <= box.y1) visit(x, y + 1);
          if (y - 1 >= box.y0) visit(x, y - 1);
        }
        s.frontier.swap(s.next_frontier);
      }
    }
    auto heuristic = [&](int node) -> double {
      const std::size_t n = static_cast<std::size_t>(node);
      if (small_fanout) {
        const int x = node % w, y = node / w;
        int best = 1 << 30;
        for (int t : remaining) {
          best = std::min(best, std::abs(x - t % w) + std::abs(y - t / w));
        }
        return best * dm.wire_per_tile;
      }
      return s.target_dist_stamp[n] == search ? s.target_dist[n] * dm.wire_per_tile : 0.0;
    };

    // Multi-source: seed with every tree node at its true delay.
    s.heap.clear();
    for (const auto& [node, delay] : tree) {
      const std::size_t n = static_cast<std::size_t>(node);
      s.dist[n] = delay;
      s.visit_stamp[n] = search;
      s.parent[n] = -1;
      s.heap.push_back({delay + heuristic(node), delay, node});
    }
    std::make_heap(s.heap.begin(), s.heap.end());

    int reached = -1;
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const PqEntry top = s.heap.back();
      s.heap.pop_back();
      if (top.g > s.dist[static_cast<std::size_t>(top.node)] + 1e-12) continue;
      if (s.target_stamp[static_cast<std::size_t>(top.node)] == search) {
        reached = top.node;
        break;
      }
      const int x = top.node % w;
      const int y = top.node / w;
      auto relax = [&](int nx, int ny, bool horizontal, std::size_t eidx) {
        const int nn = ny * w + nx;
        const std::size_t n = static_cast<std::size_t>(nn);
        const double ng = top.g + graph.edge_cost(horizontal, eidx, pressure);
        if (s.visit_stamp[n] != search || ng < s.dist[n] - 1e-12) {
          s.visit_stamp[n] = search;
          s.dist[n] = ng;
          s.parent[n] = top.node;
          s.heap.push_back({ng + heuristic(nn), ng, nn});
          std::push_heap(s.heap.begin(), s.heap.end());
        }
      };
      if (x + 1 <= box.x1) relax(x + 1, y, true, graph.h_idx(x, y));
      if (x - 1 >= box.x0) relax(x - 1, y, true, graph.h_idx(x - 1, y));
      if (y + 1 <= box.y1) relax(x, y + 1, false, graph.v_idx(x, y));
      if (y - 1 >= box.y0) relax(x, y - 1, false, graph.v_idx(x, y - 1));
    }
    if (reached < 0) return false;  // target outside the bounded region

    // Walk back, add path edges to the tree with *delay* accumulation.
    std::vector<int> path;
    for (int v = reached; v != -1; v = s.parent[static_cast<std::size_t>(v)]) {
      path.push_back(v);
      if (s.tree_stamp[static_cast<std::size_t>(v)] == tree_epoch) break;
    }
    std::reverse(path.begin(), path.end());
    double delay = s.tree_delay[static_cast<std::size_t>(path.front())];
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int a = path[i - 1], b = path[i];
      const int ax = a % w, ay = a / w, bx = b % w, by = b / w;
      const bool horizontal = (ay == by);
      const std::size_t eidx = horizontal ? graph.h_idx(std::min(ax, bx), ay)
                                          : graph.v_idx(ax, std::min(ay, by));
      delay += graph.edge_delay(horizontal, eidx);
      route.edges.emplace_back(TileCoord{ax, ay}, TileCoord{bx, by});
      const std::size_t bn = static_cast<std::size_t>(b);
      if (s.tree_stamp[bn] != tree_epoch) {
        s.tree_stamp[bn] = tree_epoch;
        s.tree_delay[bn] = delay;
        tree.emplace_back(b, delay);
      }
    }
    remaining.erase(std::remove(remaining.begin(), remaining.end(), reached),
                    remaining.end());
  }

  // Per-sink delays in netlist sink order.
  const Net& net = netlist.net(job.net);
  route.sink_delays_ns.resize(net.sinks.size(), dm.wire_unplaced);
  const double fanout_term =
      dm.wire_per_fanout *
      (net.sinks.size() > 1 ? static_cast<double>(net.sinks.size() - 1) : 0.0);
  for (std::size_t sk = 0; sk < net.sinks.size(); ++sk) {
    if (sk < job.old_delays.size()) {
      route.sink_delays_ns[sk] = job.old_delays[sk];  // locked internal sink
      continue;
    }
    const int node = job.sink_node_of_sink[sk];
    if (node < 0) continue;
    const std::size_t n = static_cast<std::size_t>(node);
    const double tree_d = s.tree_stamp[n] == tree_epoch ? s.tree_delay[n] : 0.0;
    route.sink_delays_ns[sk] = dm.wire_base + tree_d + fanout_term;
  }
  route.routed = true;
  return true;
}

}  // namespace

RouteResult route_design(const Device& device, const Netlist& netlist, PhysState& phys,
                         const RouteOptions& opt, const DelayModel& dm) {
  RouteResult result;
  phys.resize_for(netlist);
  Graph graph(device, opt, dm);
  const int w = graph.w, h = graph.h;
  const std::size_t nodes = static_cast<std::size_t>(w) * h;

  // Collect the nets to route. `sink_seen` deduplicates sink tiles in O(1)
  // per sink (stamped with the per-net sequence number), replacing the old
  // O(fanout^2) std::find scan over sink_nodes.
  std::vector<Job> jobs;
  std::vector<int> sink_seen(nodes, -1);
  int job_seq = 0;
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const Net& net = netlist.net(n);
    const RouteInfo& existing = phys.routes[n];
    const bool partial = existing.routed && existing.sink_delays_ns.size() < net.sinks.size();
    if (existing.routed && !partial) {
      graph.charge_locked(existing, +1);  // fully locked: usage only
      continue;
    }
    // A routing_locked net with no recorded route has nothing to preserve:
    // a component output port net has no sinks inside its checkpoint, so it
    // is only routable once stitching gives it inter-component sinks.
    if (net.sinks.empty()) continue;

    TileCoord driver_loc = kUnplaced;
    if (net.driver != kInvalidCell) {
      driver_loc = phys.cell_loc[net.driver];
    } else if (auto it = opt.fixed_terminals.find(n); it != opt.fixed_terminals.end()) {
      driver_loc = it->second;
    }
    if (driver_loc == kUnplaced) continue;  // unplaced endpoints: STA estimates

    ++job_seq;
    Job job;
    job.net = n;
    job.driver_node = graph.node(driver_loc.x, driver_loc.y);
    job.base_box = Pblock{driver_loc.x, driver_loc.y, driver_loc.x, driver_loc.y};
    sink_seen[static_cast<std::size_t>(job.driver_node)] = job_seq;
    if (partial) {
      job.seed_edges = existing.edges;
      job.old_delays = existing.sink_delays_ns;
      for (const auto& [a, b] : job.seed_edges) {
        grow_box(job, a.x, a.y);
        grow_box(job, b.x, b.y);
      }
    }
    job.sink_node_of_sink.reserve(net.sinks.size());
    for (std::size_t sk = 0; sk < net.sinks.size(); ++sk) {
      const TileCoord loc = phys.cell_loc[net.sinks[sk].first];
      if (loc == kUnplaced) {
        job.sink_node_of_sink.push_back(-1);
        continue;
      }
      const int node = graph.node(loc.x, loc.y);
      job.sink_node_of_sink.push_back(node);
      if (sk < job.old_delays.size()) continue;  // already served by the seed
      if (sink_seen[static_cast<std::size_t>(node)] != job_seq) {
        sink_seen[static_cast<std::size_t>(node)] = job_seq;
        job.sink_nodes.push_back(node);
        grow_box(job, loc.x, loc.y);
      }
    }
    // Extra fixed terminal (partition pin) routes like one more sink.
    if (net.driver != kInvalidCell) {
      if (auto it = opt.fixed_terminals.find(n); it != opt.fixed_terminals.end()) {
        const int node = graph.node(it->second.x, it->second.y);
        if (sink_seen[static_cast<std::size_t>(node)] != job_seq) {
          sink_seen[static_cast<std::size_t>(node)] = job_seq;
          job.sink_nodes.push_back(node);
          grow_box(job, it->second.x, it->second.y);
        }
      }
    }
    job.margin = kBboxMargin;
    clamp_box(job, graph);
    jobs.push_back(std::move(job));
  }

  // Per-job routing state kept across iterations for incremental rip-up.
  std::vector<RouteInfo> job_routes(jobs.size());
  std::vector<char> dirty(jobs.size(), 1);  // iteration 1 routes everything
  ScratchPool scratches(nodes);
  ThreadPool* pool = opt.pool;

  // PathFinder negotiation.
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    const double pressure = kPresentFactor * (iter + 1);

    std::vector<std::size_t> worklist;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (dirty[j] != 0) worklist.push_back(j);
    }
    // Rip up every dirty net before any reroutes, so a batch negotiates
    // against exactly the usage the serial router would see.
    for (std::size_t j : worklist) {
      if (job_routes[j].routed) graph.charge_job(static_cast<std::int32_t>(j), job_routes[j], -1);
      job_routes[j].routed = false;
    }

    const std::vector<std::vector<std::size_t>> batches = make_batches(jobs, worklist, w, h);
    std::string error;
    for (const std::vector<std::size_t>& batch : batches) {
      // Disjoint boxes: the nets of a batch touch disjoint edge sets, so
      // routing them concurrently and committing usage afterwards in
      // net-index order is byte-identical to routing them one by one —
      // at any pool width, including 1.
      std::vector<char> ok(batch.size(), 0);
      parallel_for(
          0, batch.size(),
          [&](std::size_t k) {
            std::unique_ptr<Scratch> scratch = scratches.acquire();
            ok[k] = route_job(graph, netlist, dm, jobs[batch[k]], job_routes[batch[k]],
                              pressure, *scratch)
                        ? 1
                        : 0;
            scratches.release(std::move(scratch));
          },
          pool);
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::size_t j = batch[k];
        if (ok[k] == 0) {
          if (error.empty()) error = "unroutable net #" + std::to_string(jobs[j].net);
          job_routes[j].routed = false;
          continue;
        }
        graph.charge_job(static_cast<std::int32_t>(j), job_routes[j], +1);
      }
      if (!error.empty()) break;
    }
    if (!error.empty()) {
      result.error = std::move(error);
      return result;
    }

    // Overuse accounting, history update and incremental dirty marking:
    // an overused edge dirties exactly the jobs in its reverse index.
    std::fill(dirty.begin(), dirty.end(), 0);
    int max_over = 0;
    long over_edges = 0;
    bool job_congestion = false;
    auto scan = [&](std::vector<std::int16_t>& use, std::vector<float>& hist,
                    std::vector<std::vector<std::int32_t>>& users) {
      for (std::size_t e = 0; e < use.size(); ++e) {
        const int over = use[e] - opt.channel_capacity;
        if (over > 0) {
          ++over_edges;
          max_over = std::max(max_over, over);
          hist[e] += static_cast<float>(opt.history_factor * over);
          for (std::int32_t j : users[e]) {
            dirty[static_cast<std::size_t>(j)] = 1;
            job_congestion = true;
          }
        }
      }
    };
    scan(graph.use_h, graph.hist_h, graph.users_h);
    scan(graph.use_v, graph.hist_v, graph.users_v);
    // Congestion-induced rips get a wider search box: the escape route may
    // not fit the current rectangle.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (dirty[j] != 0) {
        jobs[j].margin += kBboxGrowth;
        clamp_box(jobs[j], graph);
      }
    }
    if (!opt.incremental && over_edges > 0) std::fill(dirty.begin(), dirty.end(), 1);

    RouteIterationStats stats;
    stats.nets_rerouted = static_cast<int>(worklist.size());
    stats.overused_edges = over_edges;
    stats.max_overuse = max_over;
    stats.batches = static_cast<int>(batches.size());
    result.iteration_stats.push_back(stats);
    result.iterations = iter + 1;
    result.max_overuse = max_over;
    if (over_edges == 0) break;
    // Residual overuse that involves no open net (locked routes alone
    // oversubscribe an edge) cannot be negotiated away: stop early.
    if (!job_congestion) break;
  }

  // Commit: recompute per-sink delays with the settled usage. During
  // negotiation each net computed its delays while its own usage was ripped
  // up and other nets were still mid-iteration, so the recorded values
  // reflect a stale congestion snapshot. Re-walk every final route tree
  // from the driver against the final use_h/use_v before committing.
  parallel_for(
      0, jobs.size(),
      [&](std::size_t j) {
        RouteInfo& route = job_routes[j];
        const Job& job = jobs[j];
        std::unique_ptr<Scratch> scratch = scratches.acquire();
        Scratch& s = *scratch;
        const int settled_epoch = ++s.epoch;
        s.tree_stamp[static_cast<std::size_t>(job.driver_node)] = settled_epoch;
        s.tree_delay[static_cast<std::size_t>(job.driver_node)] = 0.0;
        if (!route.edges.empty()) {
          s.walk_tree(graph, route.edges, job.driver_node, settled_epoch, nullptr);
        }
        const Net& net = netlist.net(job.net);
        const double fanout_term =
            dm.wire_per_fanout *
            (net.sinks.size() > 1 ? static_cast<double>(net.sinks.size() - 1) : 0.0);
        for (std::size_t sk = 0; sk < net.sinks.size(); ++sk) {
          if (sk < job.old_delays.size()) continue;  // locked internal sink: keep
          const int node = job.sink_node_of_sink[sk];
          if (node < 0) continue;  // unplaced sink: keep the fallback estimate
          const std::size_t nn = static_cast<std::size_t>(node);
          if (s.tree_stamp[nn] != settled_epoch) continue;
          route.sink_delays_ns[sk] = dm.wire_base + s.tree_delay[nn] + fanout_term;
        }
        scratches.release(std::move(scratch));
      },
      pool);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.edges_used += job_routes[j].edges.size();
    result.total_wirelength += static_cast<double>(job_routes[j].edges.size());
    ++result.nets_routed;
    phys.routes[jobs[j].net] = std::move(job_routes[j]);
  }
  result.success = true;
  return result;
}

}  // namespace fpgasim
