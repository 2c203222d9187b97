#include "spice/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "spice/value.hpp"

namespace irf::spice {

Waveform::Waveform(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  if (times_.empty() || times_.size() != values_.size()) {
    throw ParseError("PWL waveform needs matching, non-empty time/value lists");
  }
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] < 0.0) throw ParseError("PWL time must be non-negative");
    if (i > 0 && times_[i] <= times_[i - 1]) {
      throw ParseError("PWL times must be strictly increasing");
    }
  }
}

double Waveform::value_at(double t) const {
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  // Binary search the segment containing t.
  auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double f = (t - times_[lo]) / (times_[hi] - times_[lo]);
  return values_[lo] + f * (values_[hi] - values_[lo]);
}

double Waveform::max_abs() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, std::abs(v));
  return m;
}

void Waveform::scale(double factor) {
  for (double& v : values_) v *= factor;
}

Waveform parse_pwl(const std::vector<std::string_view>& tokens) {
  if (tokens.empty() || tokens.size() % 2 != 0) {
    throw ParseError("PWL needs an even number of time/value entries");
  }
  std::vector<double> times, values;
  for (std::size_t i = 0; i < tokens.size(); i += 2) {
    times.push_back(parse_value(tokens[i]));
    values.push_back(parse_value(tokens[i + 1]));
  }
  return Waveform(std::move(times), std::move(values));
}

}  // namespace irf::spice
