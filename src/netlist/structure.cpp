#include "netlist/structure.h"

#include <algorithm>

#include "netlist/comb_graph.h"

namespace fpgasim {

using enum StructuralFault;

std::vector<StructuralIssue> select_faults(std::vector<StructuralIssue> issues,
                                           std::initializer_list<StructuralFault> faults) {
  std::erase_if(issues, [&](const StructuralIssue& issue) {
    return std::find(faults.begin(), faults.end(), issue.fault) == faults.end();
  });
  return issues;
}

std::vector<bool> port_nets(const Netlist& nl, std::optional<PortDir> dir) {
  std::vector<bool> flags(nl.net_count(), false);
  for (const Port& port : nl.ports()) {
    if ((!dir || port.dir == *dir) && port.net < nl.net_count()) flags[port.net] = true;
  }
  return flags;
}

std::vector<StructuralIssue> check_drivers(const Netlist& nl) {
  std::vector<StructuralIssue> issues;
  // How many cell output pins claim each net.
  std::vector<int> claims(nl.net_count(), 0);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    for (const NetId out : nl.cell(c).outputs) {
      if (out < nl.net_count()) ++claims[out];
    }
  }
  const std::vector<bool> is_input = port_nets(nl, PortDir::kInput);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    const bool driver_known = net.driver < nl.cell_count();
    if (claims[n] > 1) {
      issues.push_back({kMultiDriver,
                        net_ref(nl, n) + " is driven by " + std::to_string(claims[n]) +
                            " cell output pins",
                        kInvalidCell, n});
    }
    if (net.driver == kInvalidCell) {
      if (claims[n] == 1) {
        issues.push_back({kUnrecordedDriver,
                          net_ref(nl, n) + " is claimed by a cell output pin but records no driver",
                          kInvalidCell, n});
      }
    } else if (!driver_known) {
      issues.push_back(
          {kDriverRange, net_ref(nl, n) + " has an out-of-range driver cell", kInvalidCell, n});
    } else if (net.driver_pin >= nl.cell(net.driver).outputs.size() ||
               nl.cell(net.driver).outputs[net.driver_pin] != n) {
      issues.push_back({kDriverPin,
                        net_ref(nl, n) + " records " + cell_ref(nl, net.driver) + " pin " +
                            std::to_string(net.driver_pin) +
                            " as driver, but that pin does not drive it",
                        net.driver, n});
    }
    if (is_input[n] && (claims[n] > 0 || driver_known)) {
      issues.push_back({kInputPortDriven,
                        net_ref(nl, n) + " is driven by both a cell output and an input port",
                        driver_known ? net.driver : kInvalidCell, n});
    }
  }
  return issues;
}

std::vector<StructuralIssue> check_sinks(const Netlist& nl) {
  std::vector<StructuralIssue> issues;
  const std::vector<bool> is_input = port_nets(nl, PortDir::kInput);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidCell && !net.sinks.empty() && !is_input[n]) {
      issues.push_back({kUndrivenSinks,
                        net_ref(nl, n) + " has " + std::to_string(net.sinks.size()) +
                            " sinks but no driver and is not an input port",
                        kInvalidCell, n});
    }
    for (const auto& [cell, pin] : net.sinks) {
      if (cell >= nl.cell_count()) {
        issues.push_back(
            {kSinkRange, net_ref(nl, n) + " has an out-of-range sink cell", kInvalidCell, n});
      } else if (pin >= nl.cell(cell).inputs.size() || nl.cell(cell).inputs[pin] != n) {
        issues.push_back({kSinkPin,
                          net_ref(nl, n) + " lists " + cell_ref(nl, cell) + " pin " +
                              std::to_string(pin) + " as sink, but that pin is not connected to it",
                          cell, n});
      }
    }
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    for (std::size_t pin = 0; pin < cell.inputs.size(); ++pin) {
      if (cell.inputs[pin] != kInvalidNet && cell.inputs[pin] >= nl.net_count()) {
        issues.push_back({kInputRange,
                          cell_ref(nl, c) + " input pin " + std::to_string(pin) +
                              " references an out-of-range net",
                          c});
      }
    }
    for (const std::uint16_t pin : required_input_pins(cell)) {
      if (pin >= cell.inputs.size() || cell.inputs[pin] == kInvalidNet) {
        issues.push_back({kRequiredPin,
                          cell_ref(nl, c) + " required input pin " + std::to_string(pin) +
                              " is unconnected",
                          c});
      }
    }
  }
  return issues;
}

std::vector<StructuralIssue> check_widths(const Netlist& nl) {
  std::vector<StructuralIssue> issues;
  for (const Port& port : nl.ports()) {
    if (port.net >= nl.net_count()) {
      issues.push_back({kPortNet, "port '" + port.name + "' is bound to an out-of-range net"});
    } else if (nl.net(port.net).width != port.width) {
      issues.push_back({kPortWidth,
                        "port '" + port.name + "' is " + std::to_string(port.width) +
                            " bits but its net is " + std::to_string(nl.net(port.net).width),
                        kInvalidCell, port.net});
    }
  }
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver >= nl.cell_count()) continue;
    const std::uint16_t expect = expected_output_width(nl.cell(net.driver));
    if (net.width != expect) {
      issues.push_back({kDriverWidth,
                        net_ref(nl, n) + " is " + std::to_string(net.width) +
                            " bits but its driver " + cell_ref(nl, net.driver) + " produces " +
                            std::to_string(expect),
                        net.driver, n});
    }
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    for (const std::uint16_t pin : data_pins(cell)) {
      if (pin >= cell.inputs.size() || cell.inputs[pin] >= nl.net_count()) continue;
      const NetId in = cell.inputs[pin];
      if (nl.net(in).width > cell.width) {
        issues.push_back({kDataPinWidth,
                          cell_ref(nl, c) + " data pin " + std::to_string(pin) + " is " +
                              std::to_string(cell.width) + " bits but " + net_ref(nl, in) +
                              " is " + std::to_string(nl.net(in).width) + " (truncation)",
                          c, in});
      }
    }
  }
  return issues;
}

std::vector<StructuralIssue> check_orphans(const Netlist& nl) {
  std::vector<StructuralIssue> issues;
  const std::vector<bool> port_bound = port_nets(nl);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidCell && net.sinks.empty() && !port_bound[n]) {
      issues.push_back(
          {kOrphanNet, net_ref(nl, n) + " has no driver, sinks or port binding", kInvalidCell, n});
    }
  }
  return issues;
}

std::vector<StructuralIssue> check_comb_loops(const Netlist& nl) {
  std::vector<StructuralIssue> issues;
  for (const std::vector<CellId>& cycle : CombGraph(nl).cycles()) {
    std::string path;
    for (const CellId c : cycle) path += cell_ref(nl, c) + " -> ";
    path += cell_ref(nl, cycle.front());
    issues.push_back({kCombLoop,
                      "combinational loop of " + std::to_string(cycle.size()) + " cell" +
                          (cycle.size() == 1 ? "" : "s") + ": " + path,
                      cycle.front(), kInvalidNet});
  }
  return issues;
}

Liveness output_liveness(const Netlist& nl) {
  Liveness live{std::vector<bool>(nl.cell_count(), false),
                std::vector<bool>(nl.net_count(), false)};
  std::vector<NetId> worklist;
  const auto reach = [&](NetId n) {
    if (n < nl.net_count() && !live.nets[n]) {
      live.nets[n] = true;
      worklist.push_back(n);
    }
  };
  for (const Port& port : nl.ports()) {
    if (port.dir == PortDir::kOutput) reach(port.net);
  }
  while (!worklist.empty()) {
    const CellId driver = nl.net(worklist.back()).driver;
    worklist.pop_back();
    if (driver >= nl.cell_count() || live.cells[driver]) continue;
    live.cells[driver] = true;
    for (const NetId in : nl.cell(driver).inputs) reach(in);
  }
  // A live cell's outputs stay live even when unread (the cell exists, so
  // its output nets must); port nets stay live because they are interface.
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!live.cells[c]) continue;
    for (const NetId out : nl.cell(c).outputs) {
      if (out < nl.net_count()) live.nets[out] = true;
    }
  }
  for (const Port& port : nl.ports()) {
    if (port.net < nl.net_count()) live.nets[port.net] = true;
  }
  return live;
}

}  // namespace fpgasim
