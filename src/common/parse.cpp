#include "common/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/string_util.hpp"

namespace irf {

namespace {

/// The characters of a plain decimal literal: digits, sign, decimal point,
/// exponent. A double is parsed from the run of these that leads the text,
/// which keeps the text ("inf"/"nan") forms strtod accepts out.
bool plain_char(char c) {
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E';
}

bool hex_digit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// True when strtod would read `text` as a hex float ("0x1a", "-0X.8p1"):
/// a sign, "0x", then a hex digit or a point and a hex digit. Such input is
/// rejected as a whole, not read as the "0" that leads it.
bool hex_float(std::string_view text) {
  std::size_t i = (!text.empty() && (text[0] == '+' || text[0] == '-')) ? 1 : 0;
  if (text.size() < i + 3 || text[i] != '0' || (text[i + 1] != 'x' && text[i + 1] != 'X')) {
    return false;
  }
  i += 2;
  if (text[i] == '.') ++i;
  return i < text.size() && hex_digit(text[i]);
}

/// For a literal std::from_chars found out of range: true when its
/// magnitude is below the double range (strtod returns a signed zero, which
/// is accepted), false when above it (overflow, rejected). Out of range
/// means a decimal order of magnitude beyond +-300, so the sign of the order
/// decides; digit and exponent counts saturate instead of overflowing.
bool underflows(std::string_view literal) {
  constexpr std::int64_t kCap = 1'000'000'000;
  std::size_t i = (literal[0] == '+' || literal[0] == '-') ? 1 : 0;
  while (i < literal.size() && literal[i] == '0') ++i;
  std::int64_t order = -1;  // decimal exponent of the leading significant digit
  while (i < literal.size() && literal[i] >= '0' && literal[i] <= '9') {
    order = std::min(order + 1, kCap);
    ++i;
  }
  if (i < literal.size() && literal[i] == '.') {
    ++i;
    if (order < 0) {
      while (i < literal.size() && literal[i] == '0') {
        order = std::max(order - 1, -kCap);
        ++i;
      }
    }
    while (i < literal.size() && literal[i] >= '0' && literal[i] <= '9') ++i;
  }
  if (i < literal.size() && (literal[i] == 'e' || literal[i] == 'E')) {
    ++i;
    const bool negative = i < literal.size() && literal[i] == '-';
    if (i < literal.size() && (literal[i] == '+' || literal[i] == '-')) ++i;
    std::int64_t exponent = 0;
    for (; i < literal.size(); ++i) {
      exponent = std::min(exponent * 10 + (literal[i] - '0'), kCap);
    }
    order += negative ? -exponent : exponent;
  }
  return order < 0;
}

/// strtoll/strtoull's grammar over the whole text: leading whitespace, one
/// optional sign, decimal digits. Returns the sign and the magnitude;
/// nullopt on anything else or a magnitude beyond uint64.
std::optional<std::pair<bool, std::uint64_t>> parse_sign_magnitude(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && is_space(text[i])) ++i;
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  const char* const end = text.data() + text.size();
  std::uint64_t magnitude = 0;
  const auto [ptr, ec] = std::from_chars(text.data() + i, end, magnitude);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return std::pair{negative, magnitude};
}

}  // namespace

std::optional<double> try_parse_double_prefix(std::string_view text,
                                              std::size_t* consumed) {
  if (hex_float(text)) return std::nullopt;
  std::size_t plain = 0;
  while (plain < text.size() && plain_char(text[plain])) ++plain;
  // std::from_chars takes no leading '+'; strtod takes exactly one sign.
  std::size_t first = 0;
  if (plain > 0 && text[0] == '+') {
    if (plain > 1 && (text[1] == '+' || text[1] == '-')) return std::nullopt;
    first = 1;
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data() + first, text.data() + plain, value);
  if (ec == std::errc::invalid_argument) return std::nullopt;
  const std::size_t used = static_cast<std::size_t>(ptr - text.data());
  if (ec == std::errc::result_out_of_range) {
    if (!underflows(text.substr(0, used))) return std::nullopt;  // overflow
    value = text[0] == '-' ? -0.0 : 0.0;
  }
  if (consumed != nullptr) *consumed = used;
  return value;
}

std::optional<double> try_parse_double(std::string_view text) {
  std::size_t consumed = 0;
  const std::optional<double> value = try_parse_double_prefix(text, &consumed);
  if (!value || consumed != text.size()) return std::nullopt;
  return value;
}

std::optional<std::int64_t> try_parse_int64(std::string_view text) {
  const auto parsed = parse_sign_magnitude(text);
  if (!parsed) return std::nullopt;
  const auto [negative, magnitude] = *parsed;
  constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (magnitude > kMax + (negative ? 1 : 0)) return std::nullopt;
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

std::optional<std::uint64_t> try_parse_uint64(std::string_view text) {
  // strtoull silently negates "-5" into 18446744073709551611; reject any
  // input that leads with a '-' before it gets the chance. A '-' after
  // leading whitespace still negates, as strtoull does.
  if (text.empty() || text.front() == '-') return std::nullopt;
  const auto parsed = parse_sign_magnitude(text);
  if (!parsed) return std::nullopt;
  const auto [negative, magnitude] = *parsed;
  return negative ? 0 - magnitude : magnitude;
}

}  // namespace irf
