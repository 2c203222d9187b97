#include "spice/writer.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "spice/value.hpp"

namespace irf::spice {

namespace {
std::string_view name_of(const Netlist& netlist, NodeId id) {
  return id == kGround ? std::string_view("0") : netlist.node_name(id);
}
}  // namespace

void write(const Netlist& netlist, std::ostream& out) {
  out << "* PG netlist written by irf::spice (" << netlist.num_nodes() << " nodes, "
      << netlist.resistors().size() << " resistors, "
      << netlist.current_sources().size() << " current sources, "
      << netlist.voltage_sources().size() << " pads, "
      << netlist.capacitors().size() << " capacitors)\n";
  for (const VoltageSource& v : netlist.voltage_sources()) {
    out << v.name << ' ' << name_of(netlist, v.node) << " 0 " << format_value(v.volts)
        << '\n';
  }
  for (const Resistor& r : netlist.resistors()) {
    out << r.name << ' ' << name_of(netlist, r.a) << ' ' << name_of(netlist, r.b) << ' '
        << format_value(r.ohms) << '\n';
  }
  for (const Capacitor& c : netlist.capacitors()) {
    out << c.name << ' ' << name_of(netlist, c.a) << ' ' << name_of(netlist, c.b) << ' '
        << format_value(c.farads) << '\n';
  }
  for (const CurrentSource& i : netlist.current_sources()) {
    out << i.name << ' ' << name_of(netlist, i.node) << " 0 ";
    if (i.waveform && !i.waveform->is_dc()) {
      out << "PWL(";
      const auto& t = i.waveform->times();
      const auto& v = i.waveform->values();
      for (std::size_t k = 0; k < t.size(); ++k) {
        if (k) out << ' ';
        out << format_value(t[k]) << ' ' << format_value(v[k]);
      }
      out << ')';
    } else {
      out << format_value(i.amps);
    }
    out << '\n';
  }
  out << ".end\n";
}

std::string write_string(const Netlist& netlist) {
  std::ostringstream os;
  write(netlist, os);
  return os.str();
}

void write_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for write: " + path);
  write(netlist, out);
  if (!out) throw Error("write failed: " + path);
}

}  // namespace irf::spice
