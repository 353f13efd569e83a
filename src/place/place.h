// Placement engines.
//
// * SaPlacer: simulated-annealing min-HPWL placement of items (cells or
//   clusters) onto a bin grid with per-resource capacities. Used both by
//   the monolithic baseline flow (whole device, clustered) and by the OOC
//   function-optimization flow (single-tile bins inside a pblock).
// * cluster_netlist: connectivity-driven clustering for large flat designs.
// * assign_cells_to_tiles: refine an item placement into per-cell tile
//   coordinates for STA and routing.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

/// One placeable object (a cell or a cluster of cells).
struct PlaceItem {
  ResourceVec res;
  bool fixed = false;  // pre-assigned bin (port terminals, locked cells)
  int fixed_x = -1;    // tile coords when fixed
  int fixed_y = -1;
};

/// Connectivity between items: each net lists the item ids it touches.
/// Weight scales its HPWL contribution (e.g. timing criticality).
struct PlaceNet {
  std::vector<std::int32_t> items;
  double weight = 1.0;
};

struct SaOptions {
  Pblock region;            // placement area (tile coords)
  int bin_tiles = 1;        // bin edge length in tiles
  double moves_per_item = 160.0;
  std::uint64_t seed = 1;
};

struct SaResult {
  std::vector<int> item_bin;  // bin index per item
  int bins_x = 0;
  int bins_y = 0;
  double final_cost = 0.0;
  double final_hpwl = 0.0;
  std::size_t moves = 0;

  /// Center tile of a bin.
  TileCoord bin_center(const SaOptions& opt, int bin) const;
};

/// Runs annealing. Items marked fixed are pinned to the bin containing
/// (fixed_x, fixed_y). Throws std::runtime_error if the region cannot hold
/// the items at all.
SaResult place_sa(const Device& device, const std::vector<PlaceItem>& items,
                  const std::vector<PlaceNet>& nets, const SaOptions& opt);

// ---------------------------------------------------------------------------

struct Clustering {
  std::vector<std::int32_t> cell_cluster;  // cluster id per cell
  std::size_t num_clusters = 0;
};

/// Groups cells into connectivity-coherent clusters of roughly
/// `target_size` cells (BFS seeding over the netlist graph). DSP and BRAM
/// cells are kept in the clusters of their neighbours.
Clustering cluster_netlist(const Netlist& netlist, int target_size);

/// Builds the item/net model for place_sa from a netlist + clustering.
/// Pass an identity clustering (target_size == 1) for cell-level placement.
void build_place_model(const Netlist& netlist, const Clustering& clustering,
                       std::vector<PlaceItem>& items, std::vector<PlaceNet>& nets);

/// Distributes each cell into a concrete tile inside its item's bin,
/// respecting tile capacities; spills to the nearest tile with space.
/// Fills phys.cell_loc (resizing it for the netlist first).
void assign_cells_to_tiles(const Device& device, const Netlist& netlist,
                           const Clustering& clustering, const SaResult& placement,
                           const SaOptions& opt, PhysState& phys);

}  // namespace fpgasim
