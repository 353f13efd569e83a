// Design checkpoints (the paper's DCP files): a locked, placed and routed
// component netlist together with its pblock and achieved QoR. Serialized
// to a compact binary `.fdcp` format so the component database survives
// across runs, mirroring RapidWright's DCP database.
#pragma once

#include <string>

#include "fabric/pblock.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"

namespace fpgasim {

struct CheckpointMeta {
  double fmax_mhz = 0.0;
  double critical_path_ns = 0.0;
  std::string strategy;  // winning exploration strategy label
  std::string device;    // device the pblock refers to
};

struct Checkpoint {
  Netlist netlist;
  PhysState phys;
  Pblock pblock;
  CheckpointMeta meta;
  /// Planned partition-pin tile of each module port (aligned with
  /// Netlist::ports(); empty when no pin plan was recorded).
  std::vector<TileCoord> port_pins;
};

/// The `.fdcp` bytes of `checkpoint`: what save_checkpoint writes.
std::string encode_checkpoint(const Checkpoint& checkpoint);

/// Writes `checkpoint` to `path`. Throws std::runtime_error on IO failure.
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads a checkpoint written by save_checkpoint. Throws std::runtime_error
/// on IO failure, format mismatch or a malformed/truncated file: every
/// length field is bounds-checked against the bytes actually present,
/// enums are range-checked, and the loaded netlist must pass structural
/// validation with a physical state aligned to it.
Checkpoint load_checkpoint(const std::string& path);

}  // namespace fpgasim
