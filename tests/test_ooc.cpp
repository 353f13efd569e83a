#include <gtest/gtest.h>

#include "flow/ooc.h"
#include "stream_harness.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

using testhelpers::random_params;

Netlist small_conv(bool materialize = true) {
  ConvParams p;
  p.name = "conv_ooc";
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  p.materialize_roms = materialize;
  return make_conv_component(p, materialize ? random_params(36, 501) : std::vector<Fixed16>{},
                             materialize ? random_params(2, 502) : std::vector<Fixed16>{});
}

TEST(OocFlow, ProducesLockedPlacedRoutedCheckpoint) {
  const Device device = make_xcku5p_sim();
  const OocResult result = implement_ooc(device, small_conv());
  const Checkpoint& cp = result.checkpoint;

  EXPECT_GT(result.timing.fmax_mhz, 50.0);
  EXPECT_EQ(cp.meta.device, "xcku5p_sim");
  EXPECT_DOUBLE_EQ(cp.meta.fmax_mhz, result.timing.fmax_mhz);

  // Logic locking: everything locked after function optimization.
  for (CellId c = 0; c < cp.netlist.cell_count(); ++c) {
    EXPECT_TRUE(cp.netlist.cell(c).placement_locked);
  }
  // Every cell placed inside the pblock.
  for (CellId c = 0; c < cp.netlist.cell_count(); ++c) {
    const TileCoord loc = cp.phys.cell_loc[c];
    EXPECT_TRUE(cp.pblock.contains(loc.x, loc.y))
        << cp.netlist.cell(c).name << " at " << loc.x << "," << loc.y << " outside "
        << cp.pblock.to_string();
  }
  // Every routed edge stays inside the pblock (relocation legality).
  for (const RouteInfo& route : cp.phys.routes) {
    for (const auto& [a, b] : route.edges) {
      EXPECT_TRUE(cp.pblock.contains(a.x, a.y));
      EXPECT_TRUE(cp.pblock.contains(b.x, b.y));
    }
  }
  // The pblock provides enough resources for the component.
  EXPECT_TRUE(
      cp.netlist.stats().resources.fits_in(pblock_resources(device, cp.pblock)));
}

TEST(OocFlow, StrategiesPickTheBest) {
  const Device device = make_xcku5p_sim();
  OocOptions one;
  one.strategies = 1;
  one.seed = 3;
  OocOptions many;
  many.strategies = 4;
  many.seed = 3;
  const double single = implement_ooc(device, small_conv(), one).timing.fmax_mhz;
  const double best = implement_ooc(device, small_conv(), many).timing.fmax_mhz;
  EXPECT_GE(best, single - 1e-9);  // exploration can only help
}

TEST(OocFlow, PortPlanningBeatsRandomPins) {
  const Device device = make_xcku5p_sim();
  OocOptions planned;
  planned.seed = 5;
  OocOptions unplanned = planned;
  unplanned.port_planning = false;
  const auto with = implement_ooc(device, small_conv(), planned);
  const auto without = implement_ooc(device, small_conv(), unplanned);
  // Random interior pins should not be better; usually strictly worse.
  EXPECT_GE(with.timing.fmax_mhz, without.timing.fmax_mhz * 0.9);
}

TEST(OocFlow, EveryResultIsFullyLocked) {
  // Logic locking is not optional: with the exploration options off their
  // defaults too, the winner leaves function optimization with every cell
  // locked (ProducesLockedPlacedRoutedCheckpoint covers the defaults).
  const Device device = make_xcku5p_sim();
  OocOptions unplanned;
  unplanned.port_planning = false;
  OocOptions single;
  single.strategies = 1;
  single.seed = 9;
  for (const OocOptions& opt : {unplanned, single}) {
    const OocResult result = implement_ooc(device, small_conv(), opt);
    const Netlist& netlist = result.checkpoint.netlist;
    for (CellId c = 0; c < netlist.cell_count(); ++c) {
      EXPECT_TRUE(netlist.cell(c).placement_locked) << netlist.cell(c).name;
    }
  }
}

TEST(OocFlow, ResidualOveruseIsNoImplementation) {
  // One wire per tile edge: every strategy's route ends with channel
  // overuse, so no strategy may win and enter the store.
  const Device device = make_xcku5p_sim();
  OocOptions opt;
  opt.route.channel_capacity = 1;
  try {
    const OocResult result = implement_ooc(device, small_conv(), opt);
    FAIL() << "strategy " << result.strategy << " won with max overuse "
           << result.route.max_overuse;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no strategy succeeded"), std::string::npos)
        << e.what();
  }
}

TEST(OocFlow, ThrowsWhenComponentCannotFitDevice) {
  const Device device = make_tiny_device();  // only 3 DSP columns x 16 sites
  ConvParams p;
  p.in_c = 16;
  p.out_c = 16;
  p.kernel = 3;
  p.in_h = 8;
  p.in_w = 8;
  p.ic_par = 16;
  p.oc_par = 16;  // 256 DSPs: cannot fit
  p.materialize_roms = false;
  Netlist big = make_conv_component(p, {}, {});
  EXPECT_THROW(implement_ooc(device, std::move(big)), std::runtime_error);
}

TEST(OocFlow, CheckpointStillSimulatesCorrectly) {
  // Function optimization must not alter logic: the locked checkpoint
  // still computes the convolution.
  const Device device = make_xcku5p_sim();
  ConvParams p;
  p.in_c = 1;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 5;
  p.in_w = 5;
  const auto weights = random_params(18, 601);
  const auto bias = random_params(2, 602);
  const OocResult result =
      implement_ooc(device, make_conv_component(p, weights, bias));

  const Tensor input = testhelpers::random_tensor(1, 5, 5, 603);
  const Tensor expected = golden_conv2d(input, weights, bias, 2, 3, 1);
  Simulator sim(result.checkpoint.netlist);
  const auto out = testhelpers::run_stream(sim, input.data, expected.data.size());
  testhelpers::expect_tensor_eq(out, expected.data);
}

}  // namespace
}  // namespace fpgasim
