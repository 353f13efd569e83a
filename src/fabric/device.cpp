#include "fabric/device.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace fpgasim {

const char* to_string(ColumnType type) {
  switch (type) {
    case ColumnType::kClb: return "CLB";
    case ColumnType::kDsp: return "DSP";
    case ColumnType::kBram: return "BRAM";
    case ColumnType::kIo: return "IO";
  }
  return "?";
}

std::string to_string(TileCoord loc) {
  char text[32];
  std::snprintf(text, sizeof text, "(%d,%d)", loc.x, loc.y);
  return text;
}

Device::Device(std::string name, std::vector<ColumnType> columns, int rows,
               int clock_region_height)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      rows_(rows),
      cr_height_(clock_region_height) {
  assert(rows_ > 0 && cr_height_ > 0 && rows_ % cr_height_ == 0);
  io_prefix_.resize(columns_.size() + 1, 0);
  for (std::size_t x = 0; x < columns_.size(); ++x) {
    io_prefix_[x + 1] = io_prefix_[x] + (columns_[x] == ColumnType::kIo ? 1 : 0);
  }
  for (int x = 0; x < width(); ++x) {
    for (int y = 0; y < rows_; ++y) total_ += tile_capacity(x, y);
  }
}

ResourceVec Device::tile_capacity(int x, int y) const {
  switch (column_type(x)) {
    case ColumnType::kClb:
      return ResourceVec{.lut = 8, .ff = 16, .carry = 1};
    case ColumnType::kDsp:
      return (y % 2 == 0) ? ResourceVec{.dsp = 1} : ResourceVec{};
    case ColumnType::kBram:
      return (y % 2 == 0) ? ResourceVec{.bram = 1} : ResourceVec{};
    case ColumnType::kIo:
      return ResourceVec{};
  }
  return ResourceVec{};
}

int Device::discontinuities_between(int x0, int x1) const {
  if (x0 > x1) std::swap(x0, x1);
  x0 = std::clamp(x0, 0, width());
  x1 = std::clamp(x1, 0, width());
  return io_prefix_[static_cast<std::size_t>(x1)] - io_prefix_[static_cast<std::size_t>(x0)];
}

std::vector<int> Device::compatible_column_offsets(int x0, int w) const {
  std::vector<int> offsets;
  if (w <= 0 || x0 < 0 || x0 + w > width()) return offsets;
  for (int nx = 0; nx + w <= width(); ++nx) {
    bool match = true;
    for (int i = 0; i < w; ++i) {
      if (columns_[static_cast<std::size_t>(nx + i)] !=
          columns_[static_cast<std::size_t>(x0 + i)]) {
        match = false;
        break;
      }
    }
    if (match) offsets.push_back(nx - x0);
  }
  return offsets;
}

std::string Device::describe() const {
  int clb = 0, dsp = 0, bram = 0, io = 0;
  for (ColumnType c : columns_) {
    switch (c) {
      case ColumnType::kClb: ++clb; break;
      case ColumnType::kDsp: ++dsp; break;
      case ColumnType::kBram: ++bram; break;
      case ColumnType::kIo: ++io; break;
    }
  }
  std::ostringstream os;
  os << name_ << ": " << width() << "x" << height() << " tiles, columns CLB=" << clb
     << " DSP=" << dsp << " BRAM=" << bram << " IO=" << io << ", capacity " << total_.to_string();
  return os.str();
}

namespace {

// Spreads `count` special columns of `type` evenly across a layout that is
// CLB by default. Occupied slots shift right to the next free column.
void scatter_columns(std::vector<ColumnType>& cols, ColumnType type, int count) {
  const int n = static_cast<int>(cols.size());
  for (int i = 0; i < count; ++i) {
    int pos = static_cast<int>((static_cast<double>(i) + 0.5) * n / count);
    while (pos < n && cols[static_cast<std::size_t>(pos)] != ColumnType::kClb) ++pos;
    if (pos >= n) {
      pos = 0;
      while (pos < n && cols[static_cast<std::size_t>(pos)] != ColumnType::kClb) ++pos;
    }
    assert(pos < n);
    cols[static_cast<std::size_t>(pos)] = type;
  }
}

}  // namespace

Device make_xcku5p_sim() {
  // 216 columns in a periodic 10-column unit [C C D C C C C B C C]:
  // the column-wise replication of real UltraScale fabric, which is what
  // makes wide pre-implemented pblocks relocatable (identical signatures
  // repeat every unit). Two IO columns at ~1/3 and ~2/3 of the die are the
  // fabric discontinuities the paper blames for VGG's datapath stretch.
  std::vector<ColumnType> cols(216, ColumnType::kClb);
  for (std::size_t x = 0; x < cols.size(); ++x) {
    switch (x % 10) {
      case 2: cols[x] = ColumnType::kDsp; break;
      case 7: cols[x] = ColumnType::kBram; break;
      default: break;
    }
  }
  cols[75] = ColumnType::kIo;
  cols[145] = ColumnType::kIo;
  return Device("xcku5p_sim", std::move(cols), /*rows=*/240, /*clock_region_height=*/60);
}

Device make_tiny_device() {
  std::vector<ColumnType> cols(24, ColumnType::kClb);
  cols[12] = ColumnType::kIo;
  scatter_columns(cols, ColumnType::kDsp, 3);
  scatter_columns(cols, ColumnType::kBram, 2);
  return Device("tiny_test", std::move(cols), /*rows=*/32, /*clock_region_height=*/16);
}

}  // namespace fpgasim
