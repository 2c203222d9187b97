#include "spice/netlist.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace irf::spice {

namespace detail {

std::uint32_t narrow_arena_offset(std::size_t offset) {
  if (offset > std::numeric_limits<std::uint32_t>::max()) {
    throw Error("netlist node names exceed 4 GiB (arena offset " + std::to_string(offset) +
                ")");
  }
  return static_cast<std::uint32_t>(offset);
}

}  // namespace detail

namespace {

std::uint32_t hash_name(std::string_view name) {
  const std::size_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

bool is_ground_name(std::string_view name) {
  return name == "0" || (name.size() == 3 && starts_with_ci(name, "gnd"));
}

constexpr std::size_t kMinSlots = 64;

}  // namespace

std::size_t Netlist::find_slot(std::string_view name, std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kGround || (slot.hash == hash && node_name(slot.id) == name)) return i;
  }
}

void Netlist::grow_slots() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kGround) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kGround) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

NodeId Netlist::intern_node(std::string_view name) {
  if (is_ground_name(name)) return kGround;
  const std::uint32_t hash = hash_name(name);
  // Keep the table at most half full, so probes stay short.
  if (2 * (name_ends_.size() + 1) > slots_.size()) grow_slots();
  const std::size_t slot = find_slot(name, hash);
  if (slots_[slot].id != kGround) return slots_[slot].id;

  if (name_ends_.size() >= static_cast<std::size_t>(std::numeric_limits<NodeId>::max())) {
    throw Error("netlist node count exceeds the NodeId range");
  }
  const std::size_t start = name_arena_.size();
  const std::uint32_t end = detail::narrow_arena_offset(start + name.size());
  std::optional<NodeCoords> coords = try_parse_node_name(name);
  // `name` may view this arena (a substring of an interned name); growing
  // the arena would then leave it dangling, so copy it by offset.
  const char* arena = name_arena_.data();
  if (std::less_equal<const char*>{}(arena, name.data()) &&
      std::less<const char*>{}(name.data(), arena + start)) {
    const std::size_t offset = static_cast<std::size_t>(name.data() - arena);
    name_arena_.resize(end);
    std::copy_n(name_arena_.data() + offset, name.size(), name_arena_.data() + start);
  } else {
    name_arena_.append(name);
  }
  const NodeId id = static_cast<NodeId>(name_ends_.size());
  name_ends_.push_back(end);
  node_coords_.push_back(coords);
  slots_[slot] = {hash, id};
  return id;
}

std::optional<NodeId> Netlist::find_node(std::string_view name) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& slot = slots_[find_slot(name, hash_name(name))];
  if (slot.id == kGround) return std::nullopt;
  return slot.id;
}

std::string_view Netlist::node_name(NodeId id) const {
  if (id < 0 || id >= num_nodes()) throw DimensionError("node id out of range");
  const std::size_t k = static_cast<std::size_t>(id);
  const std::size_t begin = k == 0 ? 0 : name_ends_[k - 1];
  return std::string_view(name_arena_).substr(begin, name_ends_[k] - begin);
}

const std::optional<NodeCoords>& Netlist::node_coords(NodeId id) const {
  if (id < 0 || id >= num_nodes()) throw DimensionError("node id out of range");
  return node_coords_[static_cast<std::size_t>(id)];
}

void Netlist::add_resistor(std::string name, NodeId a, NodeId b, double ohms) {
  if (ohms <= 0.0) throw ParseError("resistor " + name + " must be positive, got " +
                                    std::to_string(ohms));
  resistors_.push_back({std::move(name), a, b, ohms});
}

void Netlist::add_current_source(std::string name, NodeId node, double amps) {
  current_sources_.push_back({std::move(name), node, amps, std::nullopt});
}

void Netlist::add_current_source(std::string name, NodeId node, Waveform waveform) {
  // The DC value of a PWL load (used by static analysis) is its time-average
  // over the defined span — the standard static abstraction of a switching
  // current.
  double avg = 0.0;
  const auto& t = waveform.times();
  const auto& v = waveform.values();
  if (t.size() == 1) {
    avg = v[0];
  } else {
    double span = t.back() - t.front();
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      avg += 0.5 * (v[i] + v[i + 1]) * (t[i + 1] - t[i]);
    }
    avg /= span;
  }
  current_sources_.push_back({std::move(name), node, avg, std::move(waveform)});
}

void Netlist::add_voltage_source(std::string name, NodeId node, double volts) {
  voltage_sources_.push_back({std::move(name), node, volts});
}

void Netlist::add_capacitor(std::string name, NodeId a, NodeId b, double farads) {
  if (farads <= 0.0) {
    throw ParseError("capacitor " + name + " must be positive, got " +
                     std::to_string(farads));
  }
  capacitors_.push_back({std::move(name), a, b, farads});
}

bool Netlist::has_transient_elements() const {
  if (!capacitors_.empty()) return true;
  for (const CurrentSource& i : current_sources_) {
    if (i.waveform && !i.waveform->is_dc()) return true;
  }
  return false;
}

void Netlist::scale_current_sources(double factor) {
  for (CurrentSource& i : current_sources_) {
    i.amps *= factor;
    if (i.waveform) i.waveform->scale(factor);
  }
}

void Netlist::scale_voltage_sources(double factor) {
  for (VoltageSource& v : voltage_sources_) v.volts *= factor;
}

void Netlist::set_resistor_ohms(std::size_t index, double ohms) {
  if (index >= resistors_.size()) {
    throw DimensionError("set_resistor_ohms: index " + std::to_string(index) +
                         " out of range (netlist has " +
                         std::to_string(resistors_.size()) + " resistors)");
  }
  Resistor& r = resistors_[index];
  if (ohms <= 0.0) {
    throw ParseError("resistor " + r.name + " must be positive, got " +
                     std::to_string(ohms));
  }
  r.ohms = ohms;
}

std::vector<int> Netlist::layers() const {
  std::set<int> layer_set;
  for (const auto& c : node_coords_) {
    if (c.has_value()) layer_set.insert(c->layer);
  }
  return {layer_set.begin(), layer_set.end()};
}

void Netlist::validate() const {
  auto check_node = [this](NodeId id, const std::string& element) {
    if (id != kGround && (id < 0 || id >= num_nodes())) {
      throw ParseError("element " + element + " references unknown node id " +
                       std::to_string(id));
    }
  };
  for (const Resistor& r : resistors_) {
    check_node(r.a, r.name);
    check_node(r.b, r.name);
    if (r.a == r.b) throw ParseError("resistor " + r.name + " shorts a node to itself");
  }
  for (const CurrentSource& i : current_sources_) check_node(i.node, i.name);
  for (const VoltageSource& v : voltage_sources_) {
    check_node(v.node, v.name);
    if (v.node == kGround) throw ParseError("voltage source " + v.name + " drives ground");
  }
  if (voltage_sources_.empty()) {
    throw ParseError("netlist has no voltage source: the PG system is singular");
  }
}

}  // namespace irf::spice
