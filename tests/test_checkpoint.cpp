#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "lint/lint.h"
#include "netlist/checkpoint.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

Checkpoint make_sample() {
  NetlistBuilder b("sample");
  const NetId a = b.in_port("in_data", 16);
  const std::int32_t rom = b.rom({11, 22, 33, 44});
  const NetId data = b.bram(a, kInvalidNet, kInvalidNet, 4, 16, rom, "rom");
  b.out_port("out_data", b.ff(data, kInvalidNet, 16, "oreg"));
  Checkpoint cp;
  cp.netlist = std::move(b).take();
  cp.netlist.lock_all();
  cp.phys.resize_for(cp.netlist);
  cp.phys.cell_loc[0] = TileCoord{3, 4};
  cp.phys.cell_loc[1] = TileCoord{5, 6};
  cp.phys.routes[0].routed = true;
  cp.phys.routes[0].edges = {{TileCoord{3, 4}, TileCoord{4, 4}}};
  cp.phys.routes[0].sink_delays_ns = {0.42};
  cp.pblock = Pblock{2, 2, 8, 10};
  cp.meta.fmax_mhz = 512.5;
  cp.meta.critical_path_ns = 1.95;
  cp.meta.strategy = "aspect_1";
  cp.meta.device = "xcku5p_sim";
  return cp;
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/roundtrip.fdcp";
  const Checkpoint original = make_sample();
  save_checkpoint(path, original);
  const Checkpoint loaded = load_checkpoint(path);

  EXPECT_EQ(loaded.netlist.name(), original.netlist.name());
  ASSERT_EQ(loaded.netlist.cell_count(), original.netlist.cell_count());
  ASSERT_EQ(loaded.netlist.net_count(), original.netlist.net_count());
  for (CellId c = 0; c < original.netlist.cell_count(); ++c) {
    const Cell& a = original.netlist.cell(c);
    const Cell& b = loaded.netlist.cell(c);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.inputs, b.inputs);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.placement_locked, b.placement_locked);
    EXPECT_EQ(a.rom_id, b.rom_id);
  }
  for (NetId n = 0; n < original.netlist.net_count(); ++n) {
    EXPECT_EQ(loaded.netlist.net(n).driver, original.netlist.net(n).driver);
    EXPECT_EQ(loaded.netlist.net(n).sinks, original.netlist.net(n).sinks);
    EXPECT_EQ(loaded.netlist.net(n).routing_locked, original.netlist.net(n).routing_locked);
  }
  ASSERT_EQ(loaded.netlist.rom_count(), 1u);
  EXPECT_EQ(loaded.netlist.rom(0), original.netlist.rom(0));
  EXPECT_EQ(loaded.netlist.ports().size(), original.netlist.ports().size());

  EXPECT_EQ(loaded.phys.cell_loc, original.phys.cell_loc);
  ASSERT_EQ(loaded.phys.routes.size(), original.phys.routes.size());
  EXPECT_EQ(loaded.phys.routes[0].edges, original.phys.routes[0].edges);
  EXPECT_EQ(loaded.phys.routes[0].sink_delays_ns, original.phys.routes[0].sink_delays_ns);

  EXPECT_EQ(loaded.pblock, original.pblock);
  EXPECT_DOUBLE_EQ(loaded.meta.fmax_mhz, 512.5);
  EXPECT_EQ(loaded.meta.strategy, "aspect_1");
  EXPECT_EQ(loaded.meta.device, "xcku5p_sim");
}

TEST(Checkpoint, SimulatesIdenticallyAfterReload) {
  const std::string path = testing::TempDir() + "/sim.fdcp";
  save_checkpoint(path, make_sample());
  const Checkpoint loaded = load_checkpoint(path);
  EXPECT_TRUE(loaded.netlist.validate().empty());
}

TEST(Checkpoint, RejectsBadMagic) {
  const std::string path = testing::TempDir() + "/bad.fdcp";
  std::ofstream(path) << "this is not a checkpoint";
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, RejectsTruncatedFile) {
  const std::string path = testing::TempDir() + "/trunc.fdcp";
  save_checkpoint(path, make_sample());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, RejectsMissingFile) {
  EXPECT_THROW(load_checkpoint("/nonexistent/nope.fdcp"), std::runtime_error);
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, RejectsUnsupportedVersions) {
  const std::string path = testing::TempDir() + "/version.fdcp";
  save_checkpoint(path, make_sample());
  std::vector<char> bytes = slurp(path);
  for (const std::uint32_t version : {0u, 1u, 99u}) {
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    spit(path, bytes);
    EXPECT_THROW(load_checkpoint(path), std::runtime_error) << "version " << version;
  }
}

TEST(Checkpoint, RejectsTruncationAtEveryPrefix) {
  const std::string base = testing::TempDir() + "/prefix.fdcp";
  save_checkpoint(base, make_sample());
  const std::vector<char> bytes = slurp(base);
  ASSERT_GT(bytes.size(), 16u);
  // No strict prefix of a valid file may load: every length field is
  // bounds-checked and trailing truncation is caught by the final checks.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(base, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    EXPECT_THROW(load_checkpoint(base), std::runtime_error) << "prefix " << len;
  }
}

TEST(Checkpoint, RejectsHugeCountWithoutAllocating) {
  const std::string path = testing::TempDir() + "/huge.fdcp";
  save_checkpoint(path, make_sample());
  std::vector<char> bytes = slurp(path);
  // Netlist name is "sample": the cell count lives right after
  // magic(4) + version(4) + name length(4) + name(6).
  const std::size_t cell_count_at = 18;
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + cell_count_at, &huge, sizeof(huge));
  spit(path, bytes);
  // Must reject via the bounds check, not by attempting a ~100 GB resize.
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, RejectsHugeStringLength) {
  const std::string path = testing::TempDir() + "/hugestr.fdcp";
  save_checkpoint(path, make_sample());
  std::vector<char> bytes = slurp(path);
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));  // name length field
  spit(path, bytes);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  const std::string path = testing::TempDir() + "/trailing.fdcp";
  save_checkpoint(path, make_sample());
  std::vector<char> bytes = slurp(path);
  bytes.insert(bytes.end(), {'j', 'u', 'n', 'k'});
  spit(path, bytes);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(Checkpoint, SingleByteCorruptionNeverYieldsInvalidNetlist) {
  const std::string path = testing::TempDir() + "/flip.fdcp";
  save_checkpoint(path, make_sample());
  const std::vector<char> pristine = slurp(path);
  // Deterministic fuzz sweep: flip one byte at a time across the file.
  // The loader must either reject the file or hand back a checkpoint
  // whose netlist still passes structural validation — never crash and
  // never return garbage.
  std::uint64_t lcg = 0x243F6A8885A308D3ull;
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::vector<char> bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ static_cast<char>(1u << (lcg >> 61)));
    spit(path, bytes);
    try {
      const Checkpoint loaded = load_checkpoint(path);
      EXPECT_TRUE(loaded.netlist.validate().empty()) << "flip at byte " << pos;
      EXPECT_EQ(loaded.phys.cell_loc.size(), loaded.netlist.cell_count());
      EXPECT_EQ(loaded.phys.routes.size(), loaded.netlist.net_count());
      // Whatever netlist survives loading, the analyzer must cope: lint is
      // a gate on load_dir, so a crash here is a denial of service on the
      // whole component database.
      const FindingsReport report = lint::run(loaded.netlist);
      EXPECT_GE(report.rules_run(), 9u) << "flip at byte " << pos;
    } catch (const std::runtime_error&) {
      // Rejection is the expected outcome for most positions.
    }
  }
}

TEST(Checkpoint, PortPinsRoundTrip) {
  const std::string path = testing::TempDir() + "/pins.fdcp";
  Checkpoint cp = make_sample();
  cp.port_pins = {TileCoord{2, 5}, TileCoord{8, 7}};
  save_checkpoint(path, cp);
  const Checkpoint loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.port_pins.size(), 2u);
  EXPECT_EQ(loaded.port_pins[0], (TileCoord{2, 5}));
  EXPECT_EQ(loaded.port_pins[1], (TileCoord{8, 7}));
}

TEST(Checkpoint, RejectsMisalignedPortPinPlan) {
  const std::string path = testing::TempDir() + "/badpins.fdcp";
  Checkpoint cp = make_sample();
  cp.port_pins = {TileCoord{2, 5}};  // two ports, one pin
  save_checkpoint(path, cp);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
}

TEST(PhysState, TranslateShiftsPlacementAndRoutes) {
  Checkpoint cp = make_sample();
  cp.phys.translate(10, -2);
  EXPECT_EQ(cp.phys.cell_loc[0], (TileCoord{13, 2}));
  EXPECT_EQ(cp.phys.routes[0].edges[0].first, (TileCoord{13, 2}));
  // Delays are translation-invariant and untouched.
  EXPECT_DOUBLE_EQ(cp.phys.routes[0].sink_delays_ns[0], 0.42);
}

TEST(PhysState, TranslateLeavesUnplacedCellsAlone) {
  PhysState phys;
  phys.cell_loc = {kUnplaced, TileCoord{1, 1}};
  phys.routes.resize(1);
  phys.translate(5, 5);
  EXPECT_EQ(phys.cell_loc[0], kUnplaced);
  EXPECT_EQ(phys.cell_loc[1], (TileCoord{6, 6}));
}

}  // namespace
}  // namespace fpgasim
