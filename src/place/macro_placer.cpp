#include "place/macro_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>

#include "place/macro_cost.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fpgasim {
namespace {

// Eq. (1)/(3) weights and the per-start search budgets.
constexpr double kTimingWeight = 1.0;
constexpr double kCongestionWeight = 24.0;
constexpr int kMaxCandidates = 1600;  // anchors evaluated per component
constexpr int kMaxBacktracks = 96;    // unplace-and-retry budget per start

/// Tile-occupancy bitmap (one bit per tile, 64 columns per word): O(1)-ish
/// rectangle overlap probes independent of how many components are placed,
/// updated on every place/unplace. Replaces the O(n) pairwise pblock scan.
/// A per-band summary (the OR of kBandRows rows) lets a probe dismiss or
/// confirm whole bands with one word test; only the partial bands at the
/// rectangle's top and bottom edges ever descend to individual rows.
class OccupancyGrid {
 public:
  OccupancyGrid(int width, int height)
      : width_(width),
        height_(height),
        words_((width + 63) / 64),
        bits_(static_cast<std::size_t>(words_) * height_, 0),
        bands_(static_cast<std::size_t>(words_) * ((height + kBandRows - 1) / kBandRows), 0) {}

  void fill(const Pblock& block, bool set) {
    const auto [x0, x1, y0, y1] = clamp(block);
    if (x0 > x1 || y0 > y1) return;
    for (int y = y0; y <= y1; ++y) {
      std::uint64_t* row = &bits_[static_cast<std::size_t>(y) * words_];
      for (int w = x0 / 64; w <= x1 / 64; ++w) {
        if (set) {
          row[w] |= range_mask(w, x0, x1);
        } else {
          row[w] &= ~range_mask(w, x0, x1);
        }
      }
    }
    for (int b = y0 / kBandRows; b <= y1 / kBandRows; ++b) {
      const int rows_end = std::min(height_, (b + 1) * kBandRows);
      for (int w = x0 / 64; w <= x1 / 64; ++w) {
        std::uint64_t merged = 0;
        for (int y = b * kBandRows; y < rows_end; ++y) {
          merged |= bits_[static_cast<std::size_t>(y) * words_ + w];
        }
        bands_[static_cast<std::size_t>(b) * words_ + w] = merged;
      }
    }
  }

  bool overlaps(const Pblock& block) const {
    const auto [x0, x1, y0, y1] = clamp(block);
    if (x0 > x1 || y0 > y1) return false;
    for (int b = y0 / kBandRows; b <= y1 / kBandRows; ++b) {
      const int band_y0 = b * kBandRows;
      const int band_y1 = std::min(height_ - 1, band_y0 + kBandRows - 1);
      const bool whole_band = y0 <= band_y0 && band_y1 <= y1;
      const std::uint64_t* band = &bands_[static_cast<std::size_t>(b) * words_];
      for (int w = x0 / 64; w <= x1 / 64; ++w) {
        if ((band[w] & range_mask(w, x0, x1)) == 0) continue;
        // The band holds a bit in range: exact when the probe spans the
        // full band, otherwise check the covered rows individually.
        if (whole_band) return true;
        for (int y = std::max(y0, band_y0); y <= std::min(y1, band_y1); ++y) {
          if ((bits_[static_cast<std::size_t>(y) * words_ + w] & range_mask(w, x0, x1)) != 0) {
            return true;
          }
        }
      }
    }
    return false;
  }

 private:
  static constexpr int kBandRows = 8;
  struct Clamped {
    int x0, x1, y0, y1;
  };
  Clamped clamp(const Pblock& block) const {
    return Clamped{std::max(0, block.x0), std::min(width_ - 1, block.x1),
                   std::max(0, block.y0), std::min(height_ - 1, block.y1)};
  }
  /// Bits of word `w` covered by the column range [x0, x1].
  static std::uint64_t range_mask(int w, int x0, int x1) {
    const int lo = std::max(x0 - w * 64, 0);
    const int hi = std::min(x1 - w * 64, 63);
    return (~0ULL >> (63 - hi)) & (~0ULL << lo);
  }

  int width_;
  int height_;
  int words_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> bands_;  // per-band OR of its rows' words
};

/// Contiguous run of one dx column inside an item's anchors_lb list
/// (entries share `dx`, ascending dy). Lets the centroid ranking walk a
/// column outward from any target row without scanning the whole list.
struct AnchorColumn {
  int dx = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Inputs shared (read-only) by every start.
struct StartInputs {
  const Device* device = nullptr;
  const std::vector<MacroItem>* items = nullptr;
  const std::vector<MacroNet>* nets = nullptr;
  const MacroPlaceOptions* opt = nullptr;
  std::vector<std::vector<std::pair<int, int>>> anchors;     // relocation_offsets
  std::vector<std::vector<std::pair<int, int>>> anchors_bl;  // bottom-left order
  std::vector<std::vector<std::pair<int, int>>> anchors_lb;  // left-bottom order
  std::vector<std::vector<AnchorColumn>> columns;            // over anchors_lb
  std::vector<std::vector<std::int32_t>> adj;                // DFG adjacency
  std::vector<std::int32_t> bfs;                             // base BFS order
};

/// Everything one independent start produces. The winner's fields are
/// copied into the MacroPlaceResult; the counters are aggregated from all
/// starts in start order.
struct StartOutcome {
  bool success = false;
  std::vector<std::pair<int, int>> offsets;
  std::vector<Pblock> placed;
  double timing = 0.0;
  double congestion = 0.0;
  int backtracks = 0;
  long cost_evals = 0;
  long nets_touched = 0;
  long overlap_tests = 0;
};

/// BFS over the DFG from item 0, lower-index roots first (Algorithm 1).
std::vector<std::int32_t> bfs_order(const std::vector<std::vector<std::int32_t>>& adj,
                                    std::size_t root_rotation) {
  const std::size_t n = adj.size();
  std::vector<std::int32_t> bfs;
  bfs.reserve(n);
  std::vector<bool> seen(n, false);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t root = (r + root_rotation) % n;
    if (seen[root]) continue;
    std::size_t head = bfs.size();
    bfs.push_back(static_cast<std::int32_t>(root));
    seen[root] = true;
    while (head < bfs.size()) {
      const std::int32_t v = bfs[head++];
      for (std::int32_t w : adj[static_cast<std::size_t>(v)]) {
        if (!seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          bfs.push_back(w);
        }
      }
    }
  }
  return bfs;
}

/// splitmix64 finalizer; decorrelates anchor tie-breaks across starts.
std::uint32_t mix_tie(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x);
}

/// One fully independent placement attempt. `start` selects the variant:
/// starts 0..2 are the centroid / bottom-left / left-bottom ranking modes
/// over the base BFS order; starts >= 3 are seed-perturbed — BFS from a
/// rotated root over shuffled adjacency, with hashed anchor tie-order.
/// Depends only on (inputs, start), never on scheduling, so any pool width
/// reproduces the same outcome.
StartOutcome run_start(const StartInputs& in, int start) {
  const Device& device = *in.device;
  const std::vector<MacroItem>& items = *in.items;
  const std::vector<MacroNet>& nets = *in.nets;
  const MacroPlaceOptions& opt = *in.opt;
  const std::size_t n = items.size();
  const int mode = start < 3 ? start : 0;
  const std::uint64_t salt = opt.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(start);

  StartOutcome out;
  out.offsets.assign(n, {0, 0});
  out.placed.assign(n, Pblock{});

  // All starts share the precomputed read-only anchor lists; perturbed
  // starts diversify via their BFS order and anchor tie-break hash.
  std::vector<std::int32_t> order = in.bfs;
  if (start >= 3) {
    Rng rng(salt);
    std::vector<std::vector<std::int32_t>> adj = in.adj;
    for (auto& list : adj) std::shuffle(list.begin(), list.end(), rng);
    order = bfs_order(adj, static_cast<std::size_t>(start) % n);
  }

  MacroCostModel kernel(device, nets, n, opt.incremental);
  OccupancyGrid occ(device.width(), device.height());
  std::vector<int> anchor_cursor(n, 0);  // next candidate to try on backtrack

  // Centroid ranking (mode 0) enumerates candidates in ascending Manhattan
  // distance to the placed-neighbour centroid via a k-way merge over
  // per-column frontiers: each dx column of anchors_lb contributes its two
  // dy cursors (below / at-or-above the target row) to a min-heap, and
  // every consumed candidate advances one cursor. The per-attempt cost is
  // a binary search per column plus a heap op per candidate actually
  // scanned — never a pass over the full anchor list. The order is the
  // deterministic total order (distance, tie, anchors_lb index); tie == 0
  // for the three base starts, a per-start hash for perturbed ones.
  struct Frontier {
    int dist;
    std::uint32_t tie;
    std::uint32_t pos;  // index into anchors_lb[i]
    std::uint32_t col;  // column whose cursor this entry is
    int dir;            // -1: walking dy downward, +1: upward
  };
  const auto frontier_after = [](const Frontier& a, const Frontier& b) {  // min-heap
    return std::tie(a.dist, a.tie, a.pos) > std::tie(b.dist, b.tie, b.pos);
  };
  std::vector<Frontier> frontier;  // scratch, reused across place_one calls
  std::vector<int> col_dist;       // scratch |column x - target x|

  auto anchor_tie = [&](std::size_t i, std::uint32_t pos) -> std::uint32_t {
    return start >= 3 ? mix_tie(salt ^ (static_cast<std::uint64_t>(i) << 32) ^ pos) : 0;
  };

  auto centroid_target = [&](std::size_t i) {
    TileCoord target{device.width() / 2, device.height() / 2};
    int neighbours = 0;
    long sx = 0, sy = 0;
    for (std::int32_t net : kernel.incidence()[i]) {
      for (std::int32_t item : nets[static_cast<std::size_t>(net)].items) {
        if (item == static_cast<std::int32_t>(i) ||
            !kernel.is_placed()[static_cast<std::size_t>(item)]) {
          continue;
        }
        const TileCoord c = macro_center(kernel.placed()[static_cast<std::size_t>(item)]);
        sx += c.x;
        sy += c.y;
        ++neighbours;
      }
    }
    if (neighbours > 0) {
      target = TileCoord{static_cast<int>(sx / neighbours), static_cast<int>(sy / neighbours)};
    }
    return target;
  };

  // Evaluated costs of the accepted anchor, reported so the BFS loop's
  // acceptance gate reuses them instead of recomputing the design cost.
  struct Best {
    double cost = std::numeric_limits<double>::infinity();
    double timing = 0.0;
    double congestion = 0.0;
    std::pair<int, int> anchor{0, 0};
    bool found = false;
  };

  auto place_one = [&](std::size_t i, int skip_best, Best& best) -> bool {
    const std::vector<std::pair<int, int>>& cand =
        mode == 1 ? in.anchors_bl[i] : in.anchors_lb[i];
    const std::vector<AnchorColumn>& cols = in.columns[i];
    const int ncols = static_cast<int>(cols.size());
    int want_dx = 0, want_dy = 0;           // target, in anchor-offset coordinates
    int act_left = -1, act_right = ncols;   // next column to activate per side
    if (mode == 0) {
      const TileCoord target = centroid_target(i);
      const TileCoord base = macro_center(items[i].footprint);
      want_dx = target.x - base.x;
      want_dy = target.y - base.y;
      frontier.clear();
      col_dist.resize(cols.size());
      act_right = static_cast<int>(
          std::lower_bound(cols.begin(), cols.end(), want_dx,
                           [](const AnchorColumn& c, int dx) { return c.dx < dx; }) -
          cols.begin());
      act_left = act_right - 1;
    }
    // Columns activate lazily, nearest dx first: a column only joins the
    // merge once the heap minimum reaches its x-distance, so a scan that
    // stops after a few dozen candidates never touches the far columns.
    auto activate = [&](int c) {
      col_dist[static_cast<std::size_t>(c)] = std::abs(cols[static_cast<std::size_t>(c)].dx - want_dx);
      const AnchorColumn& column = cols[static_cast<std::size_t>(c)];
      const auto begin = cand.begin() + column.begin;
      const auto end = cand.begin() + column.end;
      const auto it = std::lower_bound(
          begin, end, want_dy,
          [](const std::pair<int, int>& a, int y) { return a.second < y; });
      const int cd = col_dist[static_cast<std::size_t>(c)];
      if (it != begin) {
        const auto pos = static_cast<std::uint32_t>(it - 1 - cand.begin());
        frontier.push_back(Frontier{cd + (want_dy - cand[pos].second), anchor_tie(i, pos),
                                    pos, static_cast<std::uint32_t>(c), -1});
        std::push_heap(frontier.begin(), frontier.end(), frontier_after);
      }
      if (it != end) {
        const auto pos = static_cast<std::uint32_t>(it - cand.begin());
        frontier.push_back(Frontier{cd + (cand[pos].second - want_dy), anchor_tie(i, pos),
                                    pos, static_cast<std::uint32_t>(c), +1});
        std::push_heap(frontier.begin(), frontier.end(), frontier_after);
      }
    };
    const int limit = std::min<int>(static_cast<int>(cand.size()), kMaxCandidates);
    std::size_t cursor = 0;  // modes 1/2: next entry of the static order
    auto next = [&]() -> const std::pair<int, int>* {
      if (mode == 0) {
        // A column with x-distance <= the current heap minimum could hold
        // an equal-or-better candidate, so it must activate before we pop.
        for (;;) {
          const int dl = act_left >= 0 ? std::abs(cols[static_cast<std::size_t>(act_left)].dx - want_dx)
                                       : std::numeric_limits<int>::max();
          const int dr = act_right < ncols
                             ? std::abs(cols[static_cast<std::size_t>(act_right)].dx - want_dx)
                             : std::numeric_limits<int>::max();
          if (std::min(dl, dr) == std::numeric_limits<int>::max() ||
              (!frontier.empty() && frontier.front().dist < std::min(dl, dr))) {
            break;
          }
          if (dl <= dr) {
            activate(act_left--);
          } else {
            activate(act_right++);
          }
        }
        std::pop_heap(frontier.begin(), frontier.end(), frontier_after);
        const Frontier f = frontier.back();
        frontier.pop_back();
        const AnchorColumn& column = cols[f.col];
        if (f.dir < 0 ? f.pos > column.begin : f.pos + 1 < column.end) {
          const std::uint32_t pos = f.dir < 0 ? f.pos - 1 : f.pos + 1;
          frontier.push_back(Frontier{col_dist[f.col] + std::abs(cand[pos].second - want_dy),
                                      anchor_tie(i, pos), pos, f.col, f.dir});
          std::push_heap(frontier.begin(), frontier.end(), frontier_after);
        }
        return &cand[f.pos];
      }
      return &cand[cursor++];
    };
    best = Best{};
    int valid = 0;       // non-overlapping anchors encountered
    bool probed = false;  // item i currently sits at the last probed anchor
    for (int k = 0; k < limit; ++k) {
      const std::pair<int, int>& offset = *next();
      const Pblock moved = items[i].footprint.translated(offset.first, offset.second);
      ++out.overlap_tests;
      if (occ.overlaps(moved)) continue;
      // Backtracking: genuinely skip the choices already tried so retries
      // explore new anchors instead of re-picking the same one.
      if (valid++ < skip_best) continue;
      // Move the item from the previous candidate instead of a full
      // place/unplace round trip: consecutive candidates are spatially
      // adjacent, so the incremental kernel's box diffs stay tiny.
      kernel.place(i, moved);
      probed = true;
      const MacroCostTotals t = kernel.totals();
      const double cost = kTimingWeight * t.timing + kCongestionWeight * t.congestion;
      if (cost < best.cost) best = Best{cost, t.timing, t.congestion, offset, true};
      if (valid > skip_best + 24) break;  // bounded scan past the cursor
    }
    if (!best.found) {
      if (probed) kernel.unplace(i);
      return false;
    }
    out.offsets[i] = best.anchor;
    out.placed[i] = items[i].footprint.translated(out.offsets[i].first, out.offsets[i].second);
    kernel.place(i, out.placed[i]);  // move from the last probe to the winner
    occ.fill(out.placed[i], true);
    return true;
  };

  // BFS placement loop with bounded unplace-and-retry and a relaxing
  // acceptance threshold.
  double threshold = opt.accept_threshold;
  bool failed = false;
  for (std::size_t pos = 0; pos < order.size();) {
    const std::size_t i = static_cast<std::size_t>(order[pos]);
    Best best;
    const bool ok = place_one(i, anchor_cursor[i], best);
    if (ok) {
      const double gate =
          kTimingWeight * best.timing / static_cast<double>(std::max<std::size_t>(1, pos + 1)) +
          kCongestionWeight * best.congestion;
      if (gate <= threshold || pos == 0) {
        ++pos;
        continue;
      }
      // Cost gate failed: treat as placement failure.
      kernel.unplace(i);
      occ.fill(out.placed[i], false);
    }
    if (out.backtracks >= kMaxBacktracks || pos == 0) {
      threshold *= 1.5;  // relax the gate rather than fail outright
      ++out.backtracks;
      if (out.backtracks > kMaxBacktracks + 16) {
        failed = true;
        break;
      }
      continue;
    }
    // Backtrack: unplace the previous component and advance its cursor.
    ++out.backtracks;
    const std::size_t prev = static_cast<std::size_t>(order[pos - 1]);
    kernel.unplace(prev);
    occ.fill(out.placed[prev], false);
    ++anchor_cursor[prev];
    anchor_cursor[i] = 0;
    --pos;
  }
  if (!failed) {
    const MacroCostTotals t = kernel.totals();
    out.timing = t.timing;
    out.congestion = t.congestion;
    out.success = true;
  }
  out.cost_evals = kernel.cost_evals();
  out.nets_touched = kernel.nets_touched();
  return out;
}

/// Last-resort packer: first-fit decreasing by area over the precomputed
/// bottom-left anchor orders, no cost gate. Used only when every
/// cost-driven start fails; guarantees a placement whenever one is
/// greedily packable.
bool first_fit_decreasing(const StartInputs& in, MacroPlaceResult& result) {
  const std::vector<MacroItem>& items = *in.items;
  const std::size_t n = items.size();
  OccupancyGrid occ(in.device->width(), in.device->height());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto area_a = items[a].footprint.area();
    const auto area_b = items[b].footprint.area();
    return area_a != area_b ? area_a > area_b : a < b;
  });
  for (std::size_t i : order) {
    bool placed = false;
    for (const auto& [dx, dy] : in.anchors_bl[i]) {
      const Pblock moved = items[i].footprint.translated(dx, dy);
      ++result.stats.overlap_tests;
      if (occ.overlaps(moved)) continue;
      result.placed[i] = moved;
      result.offsets[i] = {dx, dy};
      occ.fill(moved, true);
      placed = true;
      break;
    }
    if (!placed) {
      result.error = "macro placement failed for '" + items[i].name + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

MacroPlaceResult place_macros(const Device& device, const std::vector<MacroItem>& items,
                              const std::vector<MacroNet>& nets,
                              const MacroPlaceOptions& opt) {
  MacroPlaceResult result;
  const std::size_t n = items.size();
  result.offsets.assign(n, {0, 0});
  result.placed.assign(n, Pblock{});
  if (n == 0) {
    result.success = true;
    return result;
  }

  StartInputs in;
  in.device = &device;
  in.items = &items;
  in.nets = &nets;
  in.opt = &opt;

  // Legal anchors per item (column-compatible, parity preserving), plus
  // the two static packing orders — computed once, shared by every start
  // and by the fallback packer.
  in.anchors.resize(n);
  in.anchors_bl.resize(n);
  in.anchors_lb.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.anchors[i] = relocation_offsets(device, items[i].footprint);
    if (in.anchors[i].empty()) {
      result.error = "component '" + items[i].name + "' has no legal anchor";
      return result;
    }
    in.anchors_bl[i] = in.anchors[i];
    std::sort(in.anchors_bl[i].begin(), in.anchors_bl[i].end(),
              [](const auto& a, const auto& b) {
                return std::pair(a.second, a.first) < std::pair(b.second, b.first);
              });
    in.anchors_lb[i] = in.anchors[i];
    std::sort(in.anchors_lb[i].begin(), in.anchors_lb[i].end());
  }

  // Column index over anchors_lb: runs of equal dx, ascending dy. The
  // centroid ranking's frontier merge walks these instead of re-sorting
  // anchors per attempt.
  in.columns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& lb = in.anchors_lb[i];
    for (std::uint32_t k = 0; k < lb.size(); ++k) {
      if (in.columns[i].empty() || in.columns[i].back().dx != lb[k].first) {
        in.columns[i].push_back(AnchorColumn{lb[k].first, k, k + 1});
      } else {
        in.columns[i].back().end = k + 1;
      }
    }
  }

  in.adj.resize(n);
  for (const MacroNet& net : nets) {
    for (std::size_t a = 0; a < net.items.size(); ++a) {
      for (std::size_t b = a + 1; b < net.items.size(); ++b) {
        in.adj[static_cast<std::size_t>(net.items[a])].push_back(net.items[b]);
        in.adj[static_cast<std::size_t>(net.items[b])].push_back(net.items[a]);
      }
    }
  }
  in.bfs = bfs_order(in.adj, 0);

  // Independent starts in parallel; each outcome is keyed by its index, so
  // every pool width produces the same winner.
  const int starts = 3 + kMacroPerturbedStarts;
  std::vector<StartOutcome> outcomes(static_cast<std::size_t>(starts));
  parallel_for(
      0, static_cast<std::size_t>(starts),
      [&](std::size_t s) { outcomes[s] = run_start(in, static_cast<int>(s)); }, opt.pool);

  result.stats.starts = starts;
  int winner = -1;
  double winner_cost = std::numeric_limits<double>::infinity();
  for (int s = 0; s < starts; ++s) {
    const StartOutcome& out = outcomes[static_cast<std::size_t>(s)];
    result.stats.cost_evals += out.cost_evals;
    result.stats.nets_touched += out.nets_touched;
    result.stats.overlap_tests += out.overlap_tests;
    result.stats.backtracks_per_start.push_back(out.backtracks);
    if (!out.success) continue;
    const double cost =
        kTimingWeight * out.timing + kCongestionWeight * out.congestion;
    if (winner < 0 || cost < winner_cost) {
      winner = s;
      winner_cost = cost;
    }
  }

  if (winner >= 0) {
    StartOutcome& out = outcomes[static_cast<std::size_t>(winner)];
    result.offsets = std::move(out.offsets);
    result.placed = std::move(out.placed);
    result.timing_cost = out.timing;
    result.congestion_cost = out.congestion;
    result.backtracks = out.backtracks;
    result.stats.winner_start = winner;
    result.success = true;
  } else {
    // Every cost-driven start failed: pure packing fallback.
    for (const StartOutcome& out : outcomes) result.backtracks += out.backtracks;
    if (!first_fit_decreasing(in, result)) return result;
    const std::vector<bool> all_placed(n, true);
    const MacroCostTotals t = full_macro_costs(device, nets, result.placed, all_placed);
    result.timing_cost = t.timing;
    result.congestion_cost = t.congestion;
    result.stats.used_fallback = true;
    result.success = true;
    result.error.clear();
  }
  return result;
}

}  // namespace fpgasim
