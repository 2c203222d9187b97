#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "spice/value.hpp"

namespace irf::spice {

namespace {

[[noreturn]] void fail(int line_no, const std::string& message) {
  throw ParseError("line " + std::to_string(line_no) + ": " + message);
}

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() && starts_with_ci(a, b);
}

/// Append the whitespace-separated tokens of `text` to `out`, as views of
/// `text`.
void tokenize(std::string_view text, std::vector<std::string_view>& out) {
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t b = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > b) out.push_back(text.substr(b, i - b));
  }
}

/// Add one card to `netlist`: its whitespace-separated tokens, joined across
/// `+` continuation lines, and the line it starts on.
void parse_card(Netlist& netlist, const std::vector<std::string_view>& tokens,
                int line_no) {
  const std::string_view head = tokens[0];
  const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(head[0])));

  if (kind == '.') {
    if (iequals(head, ".end") || iequals(head, ".op") || iequals(head, ".ends") ||
        iequals(head, ".option") || iequals(head, ".options")) {
      return;  // recognized control cards are no-ops for static PG analysis
    }
    fail(line_no, "unsupported control card '" + std::string(head) + "'");
  }

  if (kind == 'r') {
    if (tokens.size() != 4) fail(line_no, "resistor needs 'Rname a b value'");
    NodeId a = netlist.intern_node(tokens[1]);
    NodeId b = netlist.intern_node(tokens[2]);
    double ohms = 0.0;
    try {
      ohms = parse_value(tokens[3]);
    } catch (const ParseError& e) {
      fail(line_no, e.what());
    }
    if (a == kGround && b == kGround) fail(line_no, "resistor between ground and ground");
    try {
      netlist.add_resistor(std::string(head), a, b, ohms);
    } catch (const ParseError& e) {
      fail(line_no, e.what());
    }
    return;
  }

  if (kind == 'i') {
    if (tokens.size() < 4) fail(line_no, "current source needs 'Iname from to value'");
    NodeId from = netlist.intern_node(tokens[1]);
    NodeId to = netlist.intern_node(tokens[2]);
    // PG current loads draw from a PG node into ground. Accept either
    // orientation and normalize to "drawn from the non-ground node".
    NodeId node = kGround;
    double sign = 1.0;
    if (from != kGround && to == kGround) {
      node = from;
    } else if (from == kGround && to != kGround) {
      node = to;
      sign = -1.0;
    } else {
      fail(line_no, "current source must connect a PG node to ground");
    }
    // Either a plain value or a PWL(t1 v1 t2 v2 ...) waveform. The card was
    // whitespace-split, so re-join the tail and strip the PWL(...) wrapper.
    try {
      if (starts_with_ci(tokens[3], "pwl")) {
        std::string tail;
        for (std::size_t i = 3; i < tokens.size(); ++i) {
          if (i > 3) tail += ' ';
          tail += tokens[i];
        }
        std::size_t open = tail.find('(');
        std::size_t close = tail.rfind(')');
        if (open == std::string::npos || close == std::string::npos || close < open) {
          fail(line_no, "malformed PWL(...) body");
        }
        std::replace(tail.begin() + open, tail.begin() + close, ',', ' ');
        std::vector<std::string_view> body;
        tokenize(std::string_view(tail).substr(open + 1, close - open - 1), body);
        Waveform w = parse_pwl(body);
        if (sign < 0.0) w.scale(-1.0);
        netlist.add_current_source(std::string(head), node, std::move(w));
      } else {
        if (tokens.size() != 4) fail(line_no, "current source needs a single value");
        netlist.add_current_source(std::string(head), node, sign * parse_value(tokens[3]));
      }
    } catch (const ParseError& e) {
      fail(line_no, e.what());
    }
    return;
  }

  if (kind == 'c') {
    if (tokens.size() != 4) fail(line_no, "capacitor needs 'Cname a b value'");
    NodeId a = netlist.intern_node(tokens[1]);
    NodeId b = netlist.intern_node(tokens[2]);
    if (a == kGround && b == kGround) fail(line_no, "capacitor between ground and ground");
    try {
      netlist.add_capacitor(std::string(head), a, b, parse_value(tokens[3]));
    } catch (const ParseError& e) {
      fail(line_no, e.what());
    }
    return;
  }

  if (kind == 'v') {
    if (tokens.size() != 4) fail(line_no, "voltage source needs 'Vname n+ n- value'");
    NodeId plus = netlist.intern_node(tokens[1]);
    NodeId minus = netlist.intern_node(tokens[2]);
    double volts = 0.0;
    try {
      volts = parse_value(tokens[3]);
    } catch (const ParseError& e) {
      fail(line_no, e.what());
    }
    if (plus != kGround && minus == kGround) {
      netlist.add_voltage_source(std::string(head), plus, volts);
    } else if (plus == kGround && minus != kGround) {
      netlist.add_voltage_source(std::string(head), minus, -volts);
    } else {
      fail(line_no, "voltage source must connect a PG node to ground");
    }
    return;
  }

  fail(line_no, "unsupported element '" + std::string(head) +
                    "' (only R, I, V, C are valid in a PG deck)");
}

/// Read `in` to its end, starting with room for `size_hint` bytes so a file
/// of known size is read in one call. False when the stream reports a read
/// error (badbit).
bool read_all(std::istream& in, std::size_t size_hint, std::string& text) {
  text.resize(std::max<std::size_t>(size_hint + 1, 1 << 16));
  std::size_t used = 0;
  for (;;) {
    in.read(text.data() + used, static_cast<std::streamsize>(text.size() - used));
    used += static_cast<std::size_t>(in.gcount());
    if (!in) break;  // end of input or a read error
    text.resize(2 * text.size());
  }
  text.resize(used);
  return !in.bad();
}

}  // namespace

Netlist parse_string(std::string_view text) {
  Netlist netlist;
  std::vector<std::string_view> card;  // tokens of the pending card, viewing `text`
  int card_line = 0;
  int line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    std::string_view line = text.substr(pos, newline - pos);
    pos = newline == std::string_view::npos ? text.size() : newline + 1;
    ++line_no;
    // Strip a trailing comment introduced by '$' or ';', then whitespace
    // (which takes the '\r' of a CRLF line ending).
    std::size_t comment = 0;
    while (comment < line.size() && line[comment] != '$' && line[comment] != ';') ++comment;
    line = trim(line.substr(0, comment));
    if (line.empty() || line[0] == '*') continue;
    if (line[0] == '+') {
      if (card.empty()) fail(line_no, "continuation with no preceding card");
      tokenize(line.substr(1), card);
      continue;
    }
    if (!card.empty()) parse_card(netlist, card, card_line);
    card.clear();
    tokenize(line, card);
    card_line = line_no;
  }
  if (!card.empty()) parse_card(netlist, card, card_line);
  netlist.validate();
  return netlist;
}

Netlist parse(std::istream& in) {
  std::string text;
  if (!read_all(in, 0, text)) throw Error("cannot read netlist stream");
  return parse_string(text);
}

Netlist parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open netlist file: " + path);
  std::error_code ec;
  // The size is a hint for one read; it fails for a directory or a pipe.
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text;
  const bool size_known = !ec && size < text.max_size();
  if (!read_all(in, size_known ? static_cast<std::size_t>(size) : 0, text)) {
    throw Error("cannot read netlist file: " + path);
  }
  return parse_string(text);
}

}  // namespace irf::spice
