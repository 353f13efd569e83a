#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "place/place.h"
#include "synth/builder.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

/// Two cliques of items; the annealer should pull each clique together.
TEST(PlaceSa, ConnectedItemsEndUpClose) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(8);
  for (auto& item : items) item.res = ResourceVec{.lut = 4, .ff = 4};
  std::vector<PlaceNet> nets;
  nets.push_back(PlaceNet{{0, 1, 2, 3}, 1.0});
  nets.push_back(PlaceNet{{4, 5, 6, 7}, 1.0});

  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.bin_tiles = 2;
  opt.moves_per_item = 500;
  const SaResult result = place_sa(device, items, nets, opt);

  auto span = [&](std::initializer_list<int> group) {
    int min_x = 1 << 30, max_x = 0, min_y = 1 << 30, max_y = 0;
    for (int i : group) {
      const TileCoord c = result.bin_center(opt, result.item_bin[static_cast<std::size_t>(i)]);
      min_x = std::min(min_x, c.x);
      max_x = std::max(max_x, c.x);
      min_y = std::min(min_y, c.y);
      max_y = std::max(max_y, c.y);
    }
    return (max_x - min_x) + (max_y - min_y);
  };
  EXPECT_LE(span({0, 1, 2, 3}), 8);
  EXPECT_LE(span({4, 5, 6, 7}), 8);
  EXPECT_LE(result.final_hpwl, 16.0);
}

TEST(PlaceSa, FixedItemsStayPut) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(3);
  items[0].res = ResourceVec{.lut = 1};
  items[1].res = ResourceVec{.lut = 1};
  items[2].fixed = true;
  items[2].fixed_x = 20;
  items[2].fixed_y = 28;
  std::vector<PlaceNet> nets{PlaceNet{{0, 1, 2}, 1.0}};

  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.bin_tiles = 4;
  const SaResult result = place_sa(device, items, nets, opt);
  const TileCoord c = result.bin_center(opt, result.item_bin[2]);
  EXPECT_EQ(result.item_bin[2], (28 / 4) * result.bins_x + 20 / 4);
  // The movable items gravitate toward the fixed terminal.
  const TileCoord c0 = result.bin_center(opt, result.item_bin[0]);
  EXPECT_LE(std::abs(c0.x - c.x) + std::abs(c0.y - c.y), 12);
}

TEST(PlaceSa, ThrowsOnFixedItemOutsideRegion) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(2);
  items[0].res = ResourceVec{.lut = 1};
  items[1].fixed = true;
  items[1].fixed_x = 1;  // left of and below the region: used to produce a
  items[1].fixed_y = 2;  // negative bin index and out-of-bounds writes
  SaOptions opt;
  opt.region = Pblock{4, 4, 20, 28};
  opt.bin_tiles = 4;
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);

  items[1].fixed_x = 22;  // right of / above the region is just as illegal
  items[1].fixed_y = 30;
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);
}

TEST(PlaceSa, ThrowsWhenDemandExceedsRegion) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(1);
  items[0].res = ResourceVec{.dsp = 10000};
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);
}

TEST(PlaceSa, DeterministicForSameSeed) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(20);
  for (auto& item : items) item.res = ResourceVec{.lut = 2, .ff = 2};
  std::vector<PlaceNet> nets;
  for (int i = 0; i + 1 < 20; ++i) nets.push_back(PlaceNet{{i, i + 1}, 1.0});
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.seed = 99;
  const SaResult a = place_sa(device, items, nets, opt);
  const SaResult b = place_sa(device, items, nets, opt);
  EXPECT_EQ(a.item_bin, b.item_bin);
}

TEST(Clusterer, IdentityClusteringForTargetOne) {
  ConvParams p;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 3;
  p.in_h = 4;
  p.in_w = 4;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  EXPECT_EQ(clustering.num_clusters, nl.cell_count());
}

TEST(Clusterer, CoversEveryCellOnce) {
  ConvParams p;
  p.in_c = 2;
  p.out_c = 4;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 16);
  EXPECT_GT(clustering.num_clusters, 0u);
  EXPECT_LT(clustering.num_clusters, nl.cell_count());
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    ASSERT_GE(clustering.cell_cluster[c], 0);
    ASSERT_LT(static_cast<std::size_t>(clustering.cell_cluster[c]), clustering.num_clusters);
  }
}

TEST(Clusterer, LargerTargetGivesFewerClusters) {
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 8;
  p.in_w = 8;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const auto small = cluster_netlist(nl, 4);
  const auto large = cluster_netlist(nl, 64);
  EXPECT_GT(small.num_clusters, large.num_clusters);
}

TEST(PlaceModel, SkipsSingleClusterNets) {
  ConvParams p;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 2;
  p.in_h = 4;
  p.in_w = 4;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  // One giant cluster: every net is internal, so no placement nets remain.
  const Clustering clustering = cluster_netlist(nl, 100000);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  EXPECT_EQ(items.size(), clustering.num_clusters);
  if (clustering.num_clusters == 1) {
    EXPECT_TRUE(nets.empty());
  }
  ResourceVec total;
  for (const auto& item : items) total += item.res;
  EXPECT_EQ(total, nl.stats().resources);
}

TEST(AssignCells, RespectsTileCapacities) {
  const Device device = make_tiny_device();
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.moves_per_item = 60;
  const SaResult placement = place_sa(device, items, nets, opt);
  PhysState phys;
  assign_cells_to_tiles(device, nl, clustering, placement, opt, phys);

  // Every cell with a footprint is placed in bounds; per-tile usage,
  // accounting for multi-tile spill, never exceeds the device total.
  ResourceVec used;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const TileCoord loc = phys.cell_loc[c];
    ASSERT_TRUE(device.in_bounds(loc.x, loc.y)) << nl.cell(c).name;
    used += Netlist::cell_footprint(nl.cell(c));
  }
  EXPECT_TRUE(used.fits_in(device.total()));
}

TEST(AssignCells, DspCellsAnchorInDspColumns) {
  const Device device = make_tiny_device();
  NetlistBuilder b("d");
  const NetId a = b.in_port("a", 16);
  b.out_port("p", b.dsp(a, a, kInvalidNet, 8, 1, 16));
  const Netlist nl = std::move(b).take();
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  const SaResult placement = place_sa(device, items, nets, opt);
  PhysState phys;
  assign_cells_to_tiles(device, nl, clustering, placement, opt, phys);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (nl.cell(c).type == CellType::kDsp) {
      EXPECT_EQ(device.column_type(phys.cell_loc[c].x), ColumnType::kDsp);
    }
  }
}

}  // namespace
}  // namespace fpgasim
