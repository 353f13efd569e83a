#include "netlist/checkpoint.h"

#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace fpgasim {
namespace {

constexpr std::uint32_t kMagic = 0x46444350;  // "FDCP"
constexpr std::uint32_t kVersion = 3;         // v3 added partition pins
constexpr std::uint32_t kMinVersion = 2;      // v2 files (no pin plan) still load

/// Appends the little-endian binary encoding to a string.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

 private:
  void raw(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  std::string& out_;
};

/// Bounds-checked reader: never trusts a length field further than the
/// bytes actually left in the file, so a corrupted header cannot trigger
/// a multi-gigabyte allocation or a silent short read.
class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary), path_(path) {
    if (!in_) throw std::runtime_error("cannot open for read: " + path);
    in_.seekg(0, std::ios::end);
    remaining_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0, std::ios::beg);
  }
  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int32_t i32() { return read<std::int32_t>(); }
  double f64() { return read<double>(); }
  std::string str() {
    const std::uint32_t len = u32();
    if (len > remaining_) fail("string length exceeds file size");
    std::string s(len, '\0');
    raw(s.data(), len);
    return s;
  }
  /// Reads an element count and rejects it unless `count * min_elem_bytes`
  /// bytes are still available.
  std::uint32_t count(std::size_t min_elem_bytes) {
    const std::uint32_t n = u32();
    if (static_cast<std::uint64_t>(n) * min_elem_bytes > remaining_) {
      fail("element count exceeds file size");
    }
    return n;
  }
  std::uint64_t remaining() const { return remaining_; }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("malformed fdcp file (" + why + "): " + path_);
  }

 private:
  template <typename T>
  T read() {
    T v{};
    raw(&v, sizeof(v));
    return v;
  }
  void raw(void* data, std::size_t size) {
    if (size > remaining_) fail("truncated");
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!in_) fail("truncated");
    remaining_ -= size;
  }
  std::ifstream in_;
  std::string path_;
  std::uint64_t remaining_ = 0;
};

}  // namespace

std::string encode_checkpoint(const Checkpoint& cp) {
  std::string bytes;
  Writer w(bytes);
  w.u32(kMagic);
  w.u32(kVersion);
  w.str(cp.netlist.name());

  const Netlist& nl = cp.netlist;
  w.u32(static_cast<std::uint32_t>(nl.cell_count()));
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    w.u8(static_cast<std::uint8_t>(cell.type));
    w.u8(static_cast<std::uint8_t>(cell.op));
    w.u16(cell.width);
    w.u16(cell.depth);
    w.u8(cell.stages);
    w.u8(cell.placement_locked ? 1 : 0);
    w.u32(cell.bram_depth);
    w.u64(cell.init);
    w.i32(cell.rom_id);
    w.u32(static_cast<std::uint32_t>(cell.inputs.size()));
    for (NetId in : cell.inputs) w.u32(in);
    w.u32(static_cast<std::uint32_t>(cell.outputs.size()));
    for (NetId out : cell.outputs) w.u32(out);
    w.str(cell.name);
  }
  w.u32(static_cast<std::uint32_t>(nl.net_count()));
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    w.u32(net.driver);
    w.u16(net.driver_pin);
    w.u16(net.width);
    w.u8(net.routing_locked ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(net.sinks.size()));
    for (const auto& [cell, pin] : net.sinks) {
      w.u32(cell);
      w.u16(pin);
    }
    w.str(net.name);
  }
  w.u32(static_cast<std::uint32_t>(nl.ports().size()));
  for (const Port& port : nl.ports()) {
    w.str(port.name);
    w.u8(static_cast<std::uint8_t>(port.dir));
    w.u16(port.width);
    w.u32(port.net);
  }
  w.u32(static_cast<std::uint32_t>(nl.rom_count()));
  for (std::size_t r = 0; r < nl.rom_count(); ++r) {
    const auto& rom = nl.rom(static_cast<std::int32_t>(r));
    w.u32(static_cast<std::uint32_t>(rom.size()));
    for (std::uint64_t word : rom) w.u64(word);
  }

  // Physical state.
  w.u32(static_cast<std::uint32_t>(cp.phys.cell_loc.size()));
  for (const TileCoord& loc : cp.phys.cell_loc) {
    w.i32(loc.x);
    w.i32(loc.y);
  }
  w.u32(static_cast<std::uint32_t>(cp.phys.routes.size()));
  for (const RouteInfo& route : cp.phys.routes) {
    w.u8(route.routed ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(route.edges.size()));
    for (const auto& [a, b] : route.edges) {
      w.i32(a.x);
      w.i32(a.y);
      w.i32(b.x);
      w.i32(b.y);
    }
    w.u32(static_cast<std::uint32_t>(route.sink_delays_ns.size()));
    for (double d : route.sink_delays_ns) w.f64(d);
  }

  w.i32(cp.pblock.x0);
  w.i32(cp.pblock.y0);
  w.i32(cp.pblock.x1);
  w.i32(cp.pblock.y1);
  w.f64(cp.meta.fmax_mhz);
  w.f64(cp.meta.critical_path_ns);
  w.f64(cp.meta.implement_seconds);
  w.str(cp.meta.strategy);
  w.str(cp.meta.device);
  w.u32(static_cast<std::uint32_t>(cp.port_pins.size()));
  for (const TileCoord& pin : cp.port_pins) {
    w.i32(pin.x);
    w.i32(pin.y);
  }
  return bytes;
}

void save_checkpoint(const std::string& path, const Checkpoint& cp) {
  const std::string bytes = encode_checkpoint(cp);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("checkpoint write failed");
}

Checkpoint load_checkpoint(const std::string& path) {
  Reader r(path);
  if (r.u32() != kMagic) throw std::runtime_error("not an fdcp file: " + path);
  const std::uint32_t version = r.u32();
  if (version < kMinVersion || version > kVersion) {
    throw std::runtime_error("fdcp version mismatch (got " + std::to_string(version) +
                             ", support " + std::to_string(kMinVersion) + ".." +
                             std::to_string(kVersion) + "): " + path);
  }

  Checkpoint cp;
  cp.netlist.set_name(r.str());
  Netlist& nl = cp.netlist;

  const std::uint32_t num_cells = r.count(24);  // fixed fields per serialized cell
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    Cell cell;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(CellType::kBram)) r.fail("cell type out of range");
    cell.type = static_cast<CellType>(type);
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(LutOp::kTruth6)) r.fail("lut op out of range");
    cell.op = static_cast<LutOp>(op);
    cell.width = r.u16();
    cell.depth = r.u16();
    cell.stages = r.u8();
    cell.placement_locked = r.u8() != 0;
    cell.bram_depth = r.u32();
    cell.init = r.u64();
    cell.rom_id = r.i32();
    cell.inputs.resize(r.count(sizeof(std::uint32_t)));
    for (NetId& in : cell.inputs) in = r.u32();
    cell.outputs.resize(r.count(sizeof(std::uint32_t)));
    for (NetId& out : cell.outputs) out = r.u32();
    cell.name = r.str();
    nl.add_cell(std::move(cell));
  }
  const std::uint32_t num_nets = r.count(13);  // fixed fields per serialized net
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    const NetId id = nl.add_net(1);
    Net& net = nl.net(id);
    net.driver = r.u32();
    net.driver_pin = r.u16();
    net.width = r.u16();
    net.routing_locked = r.u8() != 0;
    net.sinks.resize(r.count(sizeof(std::uint32_t) + sizeof(std::uint16_t)));
    for (auto& [cell, pin] : net.sinks) {
      cell = r.u32();
      pin = r.u16();
    }
    net.name = r.str();
  }
  const std::uint32_t num_ports = r.count(11);  // fixed fields per serialized port
  for (std::uint32_t p = 0; p < num_ports; ++p) {
    Port port;
    port.name = r.str();
    const std::uint8_t dir = r.u8();
    if (dir > static_cast<std::uint8_t>(PortDir::kOutput)) r.fail("port direction out of range");
    port.dir = static_cast<PortDir>(dir);
    port.width = r.u16();
    port.net = r.u32();
    if (port.net >= nl.net_count()) r.fail("port bound to out-of-range net");
    nl.add_port(std::move(port));
  }
  const std::uint32_t num_roms = r.count(sizeof(std::uint32_t));
  for (std::uint32_t i = 0; i < num_roms; ++i) {
    std::vector<std::uint64_t> rom(r.count(sizeof(std::uint64_t)));
    for (std::uint64_t& word : rom) word = r.u64();
    nl.add_rom(std::move(rom));
  }

  cp.phys.cell_loc.resize(r.count(2 * sizeof(std::int32_t)));
  for (TileCoord& loc : cp.phys.cell_loc) {
    loc.x = r.i32();
    loc.y = r.i32();
  }
  cp.phys.routes.resize(r.count(9));  // fixed fields per serialized route
  for (RouteInfo& route : cp.phys.routes) {
    route.routed = r.u8() != 0;
    route.edges.resize(r.count(4 * sizeof(std::int32_t)));
    for (auto& [a, b] : route.edges) {
      a.x = r.i32();
      a.y = r.i32();
      b.x = r.i32();
      b.y = r.i32();
    }
    route.sink_delays_ns.resize(r.count(sizeof(double)));
    for (double& d : route.sink_delays_ns) d = r.f64();
  }

  cp.pblock.x0 = r.i32();
  cp.pblock.y0 = r.i32();
  cp.pblock.x1 = r.i32();
  cp.pblock.y1 = r.i32();
  cp.meta.fmax_mhz = r.f64();
  cp.meta.critical_path_ns = r.f64();
  cp.meta.implement_seconds = r.f64();
  cp.meta.strategy = r.str();
  cp.meta.device = r.str();
  if (version >= 3) {
    cp.port_pins.resize(r.count(2 * sizeof(std::int32_t)));
    for (TileCoord& pin : cp.port_pins) {
      pin.x = r.i32();
      pin.y = r.i32();
    }
  }
  if (r.remaining() != 0) r.fail("trailing bytes");

  // A checkpoint is only usable if the payload is self-consistent: the
  // physical state must align with the netlist and the netlist itself
  // must be structurally valid.
  if (cp.phys.cell_loc.size() != nl.cell_count() || cp.phys.routes.size() != nl.net_count()) {
    r.fail("physical state misaligned with netlist");
  }
  if (!cp.port_pins.empty() && cp.port_pins.size() != nl.ports().size()) {
    r.fail("partition pin plan misaligned with ports");
  }
  const std::vector<std::string> problems = nl.validate();
  if (!problems.empty()) {
    r.fail("invalid netlist: " + problems.front());
  }
  return cp;
}

}  // namespace fpgasim
