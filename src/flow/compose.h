// Architecture composition: instantiates components inside a top-level
// design and stitches their stream interfaces by inserting nets into the
// netlist (Sec. IV-B3). The one stitcher of the repo: pre-implemented
// checkpoints (filled black boxes) and bare netlists (flat synthesis,
// multi-layer components) go through the same aliasing.
#pragma once

#include <string>
#include <vector>

#include "netlist/checkpoint.h"
#include "netlist/findings.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "place/macro_placer.h"

namespace fpgasim {

/// A stream edge of a component DAG: output stream `from_port` of node
/// `from` feeds input stream `to_port` of node `to`. Port k maps to the
/// stream_port_name() port group ("in_data"/"in2_data"/...).
struct StreamEdge {
  int from = -1;
  int to = -1;
  int from_port = 0;
  int to_port = 0;
  friend bool operator==(const StreamEdge&, const StreamEdge&) = default;
};

/// Rewires every sink of `driverless` (an input-port net with no driver)
/// onto `driven`, merging the two nets. The driverless net becomes dead.
void alias_net(Netlist& netlist, NetId driverless, NetId driven);

/// Physical-state aware overload: additionally discards any stale locked
/// route of the dead net so its orphaned wires stop charging channel
/// capacity (and stop confusing routing DRC).
void alias_net(Netlist& netlist, PhysState& phys, NetId driverless, NetId driven);

struct ComposedDesign {
  Netlist netlist;
  PhysState phys;

  /// Instance ranges; footprints are current (relocated by
  /// translate_instance).
  std::vector<InstanceRange> instances;

  /// Component-level DFG edges for the relocation placer.
  std::vector<MacroNet> macro_nets;

  /// Translates one instance's placement and routes by (dx, dy).
  void translate_instance(std::size_t index, int dx, int dy);

  /// MacroItem view of the instances.
  std::vector<MacroItem> macro_items() const;
};

/// Builds compositions. Copies what it instantiates.
class Composer {
 public:
  explicit Composer(std::string top_name);

  /// Adds an instance of `netlist` with its physical state and pblock;
  /// returns its index. Without `phys` the instance is unplaced and
  /// unrouted (a bare netlist).
  int add_instance(const Netlist& netlist, const std::string& instance_name,
                   const PhysState* phys = nullptr, const Pblock& pblock = {});

  /// Adds a black-box instance filled with `checkpoint`.
  int add_instance(const Checkpoint& checkpoint, const std::string& instance_name) {
    return add_instance(checkpoint.netlist, instance_name, &checkpoint.phys, checkpoint.pblock);
  }

  /// Stream-connects output stream `from_port` of instance `from` to input
  /// stream `to_port` of instance `to`: out_data/out_valid ->
  /// in_data/in_valid, in_ready -> out_ready. Each output stream drives at
  /// most one consumer and each input stream has at most one producer;
  /// violating either throws (fan-out needs an explicit stream fork
  /// component, see make_stream_fork).
  void connect(int from, int to, int to_port = 0, int from_port = 0);

  /// Exposes `instance`'s still-unconnected input streams as top-level
  /// ports (in_data/in_valid/in_ready, then in2_*, ...).
  void expose_input(int instance) { expose_streams(instance, true); }
  /// Exposes `instance`'s still-unconnected output streams as top-level
  /// ports.
  void expose_output(int instance) { expose_streams(instance, false); }

  /// connect()s every edge in order, then exposes the input streams of
  /// `input` and the output streams of `output`.
  void stitch(const std::vector<StreamEdge>& edges, int input, int output);

  /// Finalizes the composition. Runs no check: the flows gate the result
  /// (run_gate) once its boundary is exposed.
  ComposedDesign finish() &&;

 private:
  NetId port_net(int instance, const std::string& port_name) const;
  bool has_port(int instance, const std::string& port_name) const;
  /// Adds a top-level data/valid/ready port triple for every unconnected
  /// input (or output) stream of `instance`; throws when it has none.
  void expose_streams(int instance, bool input);

  ComposedDesign design_;
  std::vector<std::vector<Port>> instance_ports_;  // offset-adjusted copies
  std::vector<std::pair<int, int>> used_outputs_;  // (instance, stream index)
  std::vector<std::pair<int, int>> used_inputs_;
};

/// The edges of a linear chain of `stages` nodes: node s feeds node s + 1.
std::vector<StreamEdge> chain_edges(int stages);

/// Stitches an *unimplemented* component DAG into one flat netlist through
/// Composer: the unconnected input streams of `input_stage` and output
/// streams of `output_stage` become the top-level stream interface.
Netlist stitch_graph(const std::vector<const Netlist*>& stages,
                     const std::vector<StreamEdge>& edges, int input_stage,
                     int output_stage, const std::string& name);

/// stitch_graph over a linear chain (stage s feeds stage s + 1). Forms
/// multi-layer components ahead of OOC implementation.
Netlist stitch_chain(const std::vector<const Netlist*>& stages, const std::string& name);

}  // namespace fpgasim
