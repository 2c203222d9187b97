#include "spice/node_name.hpp"

#include <charconv>

#include "common/error.hpp"

namespace irf::spice {

namespace {

bool parse_int_piece(std::string_view piece, std::int64_t& out) {
  if (piece.empty()) return false;
  auto [ptr, ec] = std::from_chars(piece.data(), piece.data() + piece.size(), out);
  return ec == std::errc() && ptr == piece.data() + piece.size();
}

/// Cut `name` at its next '_' (or its end) and return the piece before it.
std::string_view next_piece(std::string_view& name) {
  const std::size_t cut = name.find('_');
  const std::string_view piece = name.substr(0, cut);
  name.remove_prefix(cut == std::string_view::npos ? name.size() : cut + 1);
  return piece;
}

}  // namespace

std::optional<NodeCoords> try_parse_node_name(std::string_view name) {
  // Exactly four '_'-separated pieces: n<net>, m<layer>, <x>, <y>.
  const std::string_view net = next_piece(name);
  const std::string_view layer = next_piece(name);
  const std::string_view x = next_piece(name);
  if (name.find('_') != std::string_view::npos) return std::nullopt;
  const std::string_view y = name;
  if (net.size() < 2 || (net[0] != 'n' && net[0] != 'N')) return std::nullopt;
  if (layer.size() < 2 || (layer[0] != 'm' && layer[0] != 'M')) return std::nullopt;
  NodeCoords c;
  std::int64_t v = 0;
  if (!parse_int_piece(net.substr(1), v)) return std::nullopt;
  c.net = static_cast<int>(v);
  if (!parse_int_piece(layer.substr(1), v)) return std::nullopt;
  c.layer = static_cast<int>(v);
  if (!parse_int_piece(x, c.x_nm) || !parse_int_piece(y, c.y_nm)) return std::nullopt;
  return c;
}

bool is_coordinate_name(std::string_view name) {
  return try_parse_node_name(name).has_value();
}

NodeCoords parse_node_name(std::string_view name) {
  const std::optional<NodeCoords> coords = try_parse_node_name(name);
  if (!coords) {
    throw ParseError("node name '" + std::string(name) +
                     "' does not match n<net>_m<layer>_<x>_<y>");
  }
  return *coords;
}

std::string make_node_name(const NodeCoords& coords) {
  return "n" + std::to_string(coords.net) + "_m" + std::to_string(coords.layer) + "_" +
         std::to_string(coords.x_nm) + "_" + std::to_string(coords.y_nm);
}

}  // namespace irf::spice
