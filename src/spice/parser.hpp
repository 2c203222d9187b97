#pragma once

/// \file parser.hpp
/// SPICE netlist parser for PG decks: R/I/V cards, `*` comments, `+`
/// continuation lines, `.end`/`.op` control cards, engineering-suffix
/// values. Anything else is a ParseError with a line number. Lines end in
/// LF or CRLF; the last line needs no newline.

#include <istream>
#include <string>
#include <string_view>

#include "spice/netlist.hpp"

namespace irf::spice {

/// Parse a netlist from deck text. The other two entry points read their
/// whole input and call this one.
Netlist parse_string(std::string_view text);

/// Parse a netlist from a stream; throws irf::Error when reading fails.
Netlist parse(std::istream& in);

/// Parse a netlist from a file path; throws irf::Error naming the path when
/// it cannot be opened or read (a directory, for one).
Netlist parse_file(const std::string& path);

}  // namespace irf::spice
