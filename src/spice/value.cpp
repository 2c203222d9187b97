#include "spice/value.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/string_util.hpp"

namespace irf::spice {

double parse_value(std::string_view token) {
  const std::string_view text = trim(token);
  if (text.empty()) throw ParseError("empty SPICE value");
  std::size_t pos = 0;
  const std::optional<double> parsed = try_parse_double_prefix(text, &pos);
  if (!parsed) throw ParseError("bad SPICE value '" + std::string(text) + "'");
  const double base = *parsed;
  const std::string_view suffix = text.substr(pos);
  // SPICE ignores trailing unit letters after a recognized suffix ("kohm").
  double mult = 1.0;
  if (suffix.empty()) {
    mult = 1.0;
  } else if (starts_with_ci(suffix, "meg")) {
    mult = 1e6;
  } else {
    switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
      case 'f': mult = 1e-15; break;
      case 'p': mult = 1e-12; break;
      case 'n': mult = 1e-9; break;
      case 'u': mult = 1e-6; break;
      case 'm': mult = 1e-3; break;
      case 'k': mult = 1e3; break;
      case 'g': mult = 1e9; break;
      case 't': mult = 1e12; break;
      default:
        throw ParseError("unknown SPICE suffix '" + to_lower(suffix) + "' in '" +
                         std::string(text) + "'");
    }
  }
  const double value = base * mult;
  // A finite number can overflow through its suffix ("1e300t"); an infinite
  // element value would not survive write -> parse.
  if (!std::isfinite(value)) {
    throw ParseError("SPICE value '" + std::string(text) + "' overflows");
  }
  return value;
}

std::string format_value(double value) {
  // 17 significant digits guarantee an exact double round-trip; try the
  // shorter 12-digit form first so typical values stay readable.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  if (std::strtod(buf, nullptr) == value) return buf;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace irf::spice
