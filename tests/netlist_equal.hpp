#pragma once

// Test helper: bit-for-bit netlist comparison, shared by the parser,
// round-trip property and fuzz suites.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string_view>

#include "spice/netlist.hpp"

namespace irf::testing_support {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline std::string_view endpoint(const spice::Netlist& net, spice::NodeId id) {
  return id == spice::kGround ? std::string_view("0") : net.node_name(id);
}

/// Expect `b` to hold the nodes and elements of `a`: every node name with
/// its coordinates, and every element's name, endpoints (by node name, so a
/// writer that reorders nodes still compares equal) and values, bit for
/// bit. A waveform counts only when it is not DC, since the writer emits a
/// DC waveform as its plain value.
inline void expect_same_netlist(const spice::Netlist& a, const spice::Netlist& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (spice::NodeId id = 0; id < a.num_nodes(); ++id) {
    const std::optional<spice::NodeId> other = b.find_node(a.node_name(id));
    ASSERT_TRUE(other.has_value()) << a.node_name(id);
    const std::optional<spice::NodeCoords>& ca = a.node_coords(id);
    const std::optional<spice::NodeCoords>& cb = b.node_coords(*other);
    ASSERT_EQ(ca.has_value(), cb.has_value()) << a.node_name(id);
    if (ca) {
      EXPECT_EQ(ca->net, cb->net);
      EXPECT_EQ(ca->layer, cb->layer);
      EXPECT_EQ(ca->x_nm, cb->x_nm);
      EXPECT_EQ(ca->y_nm, cb->y_nm);
    }
  }
  ASSERT_EQ(a.resistors().size(), b.resistors().size());
  for (std::size_t i = 0; i < a.resistors().size(); ++i) {
    const spice::Resistor& ra = a.resistors()[i];
    const spice::Resistor& rb = b.resistors()[i];
    EXPECT_EQ(ra.name, rb.name);
    EXPECT_EQ(endpoint(a, ra.a), endpoint(b, rb.a));
    EXPECT_EQ(endpoint(a, ra.b), endpoint(b, rb.b));
    EXPECT_EQ(bits(ra.ohms), bits(rb.ohms)) << ra.name;
  }
  ASSERT_EQ(a.current_sources().size(), b.current_sources().size());
  for (std::size_t i = 0; i < a.current_sources().size(); ++i) {
    const spice::CurrentSource& ia = a.current_sources()[i];
    const spice::CurrentSource& ib = b.current_sources()[i];
    EXPECT_EQ(ia.name, ib.name);
    EXPECT_EQ(endpoint(a, ia.node), endpoint(b, ib.node));
    EXPECT_EQ(bits(ia.amps), bits(ib.amps)) << ia.name;
    const bool pwl_a = ia.waveform && !ia.waveform->is_dc();
    const bool pwl_b = ib.waveform && !ib.waveform->is_dc();
    ASSERT_EQ(pwl_a, pwl_b) << ia.name;
    if (!pwl_a) continue;
    ASSERT_EQ(ia.waveform->times().size(), ib.waveform->times().size());
    for (std::size_t k = 0; k < ia.waveform->times().size(); ++k) {
      EXPECT_EQ(bits(ia.waveform->times()[k]), bits(ib.waveform->times()[k]));
      EXPECT_EQ(bits(ia.waveform->values()[k]), bits(ib.waveform->values()[k]));
    }
  }
  ASSERT_EQ(a.voltage_sources().size(), b.voltage_sources().size());
  for (std::size_t i = 0; i < a.voltage_sources().size(); ++i) {
    const spice::VoltageSource& va = a.voltage_sources()[i];
    const spice::VoltageSource& vb = b.voltage_sources()[i];
    EXPECT_EQ(va.name, vb.name);
    EXPECT_EQ(endpoint(a, va.node), endpoint(b, vb.node));
    EXPECT_EQ(bits(va.volts), bits(vb.volts)) << va.name;
  }
  ASSERT_EQ(a.capacitors().size(), b.capacitors().size());
  for (std::size_t i = 0; i < a.capacitors().size(); ++i) {
    const spice::Capacitor& ca = a.capacitors()[i];
    const spice::Capacitor& cb = b.capacitors()[i];
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(endpoint(a, ca.a), endpoint(b, cb.a));
    EXPECT_EQ(endpoint(a, ca.b), endpoint(b, cb.b));
    EXPECT_EQ(bits(ca.farads), bits(cb.farads)) << ca.name;
  }
}

}  // namespace irf::testing_support
