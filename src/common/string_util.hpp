#pragma once

/// \file string_util.hpp
/// Small string helpers shared by the SPICE parser and config handling.

#include <string>
#include <string_view>
#include <vector>

namespace irf {

/// The C-locale isspace set: space, \t, \n, \v, \f, \r.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Strip leading/trailing whitespace. The result views `s`.
std::string_view trim(std::string_view s);

/// Lower-case copy (ASCII).
std::string to_lower(std::string_view s);

/// Split on a single delimiter character; empty tokens are kept.
std::vector<std::string> split(std::string_view s, char delim);

bool starts_with_ci(std::string_view s, std::string_view prefix);

}  // namespace irf
