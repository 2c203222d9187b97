#pragma once

/// \file value.hpp
/// SPICE numeric literals: a decimal number followed by an optional
/// engineering suffix (f p n u m k meg g t, case-insensitive). "3m" is
/// 3e-3; "2MEG" is 2e6.

#include <string_view>

namespace irf::spice {

/// Parse a SPICE value; throws irf::ParseError on malformed input and on a
/// value that overflows to infinity through its suffix.
double parse_value(std::string_view token);

/// Format a value the way our writer emits it (shortest round-trippable
/// decimal, no suffixes — suffixes are only consumed, never produced).
std::string format_value(double value);

}  // namespace irf::spice
