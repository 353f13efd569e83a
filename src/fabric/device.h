// Simulated columnar FPGA fabric in the style of Xilinx UltraScale+.
//
// The device is a W x H grid of tiles. Each column carries a single
// resource type (CLB, DSP, BRAM or IO), mirroring the column-wise
// replication of resources on real UltraScale parts: the property the
// paper's pre-implemented relocation depends on. IO columns interrupt the
// fabric ("fabric discontinuities", Sec. V-E of the paper) and carry a wire
// delay penalty in the routing model. Clock regions tile the grid
// vertically; relocation anchors preserve column signature and row parity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/resources.h"

namespace fpgasim {

/// Interconnect wires per tile edge per direction: the router's channel
/// capacity and the DRC's overuse threshold (RouteOptions, DrcContext).
inline constexpr int kChannelCapacity = 14;

enum class ColumnType : std::uint8_t { kClb = 0, kDsp = 1, kBram = 2, kIo = 3 };

const char* to_string(ColumnType type);

struct TileCoord {
  int x = 0;
  int y = 0;
  friend bool operator==(const TileCoord&, const TileCoord&) = default;
};

class Device {
 public:
  /// Builds a device from an explicit column layout. rows must be a
  /// multiple of clock_region_height.
  Device(std::string name, std::vector<ColumnType> columns, int rows,
         int clock_region_height);

  const std::string& name() const { return name_; }
  int width() const { return static_cast<int>(columns_.size()); }
  int height() const { return rows_; }
  int clock_region_height() const { return cr_height_; }
  int clock_region_rows() const { return rows_ / cr_height_; }

  ColumnType column_type(int x) const { return columns_[static_cast<std::size_t>(x)]; }
  bool in_bounds(int x, int y) const { return x >= 0 && x < width() && y >= 0 && y < rows_; }

  /// Capacity of a single tile. DSP/BRAM sites occupy every other row of
  /// their column (one site per two tiles), matching the coarser vertical
  /// pitch of hard blocks on real fabric.
  ResourceVec tile_capacity(int x, int y) const;

  /// Total device capacity (cached at construction).
  const ResourceVec& total() const { return total_; }

  /// True when column x is an IO column (fabric discontinuity).
  bool is_discontinuity(int x) const { return column_type(x) == ColumnType::kIo; }

  /// Number of IO columns strictly between x0 and x1 (any order).
  int discontinuities_between(int x0, int x1) const;

  /// All x offsets dx such that shifting a window of columns
  /// [x0, x0+w) by dx lands on an identical column-type signature.
  /// Includes dx == 0. Used by the relocation placer.
  std::vector<int> compatible_column_offsets(int x0, int w) const;

  std::string describe() const;

 private:
  std::string name_;
  std::vector<ColumnType> columns_;
  int rows_;
  int cr_height_;
  ResourceVec total_;
  std::vector<int> io_prefix_;  // io_prefix_[x] = #IO columns in [0, x)
};

/// ~xcku5p-scale device calibrated to the paper's Table II utilization
/// percentages: 173 CLB columns (332,160 LUT / 664,320 FF), 23 DSP columns
/// (2,760 DSP48), 18 BRAM columns (2,160 BRAM36), 2 IO columns; 240 rows,
/// clock regions of height 60.
Device make_xcku5p_sim();

/// Small device for unit tests: 24 columns x 32 rows, clock region 16.
Device make_tiny_device();

}  // namespace fpgasim
