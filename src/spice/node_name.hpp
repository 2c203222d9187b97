#pragma once

/// \file node_name.hpp
/// ICCAD-2023-style PG node names: `n<net>_m<layer>_<x>_<y>` where x/y are
/// integer coordinates in nanometres (e.g. `n1_m4_17500_209000`). The ground
/// node is spelled `0`. Layer index follows metal numbering (m1 bottom).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace irf::spice {

struct NodeCoords {
  int net = 1;
  int layer = 0;            ///< metal layer index, m1 == 1
  std::int64_t x_nm = 0;
  std::int64_t y_nm = 0;
};

/// The coordinates of `name`, or nullopt when it does not match the
/// convention. The one scanner behind both functions below.
std::optional<NodeCoords> try_parse_node_name(std::string_view name);

/// True if `name` matches the coordinate naming convention.
bool is_coordinate_name(std::string_view name);

/// Parse a coordinate name; throws irf::ParseError when malformed.
NodeCoords parse_node_name(std::string_view name);

/// Compose the canonical name for the given coordinates.
std::string make_node_name(const NodeCoords& coords);

}  // namespace irf::spice
