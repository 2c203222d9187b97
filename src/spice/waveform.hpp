#pragma once

/// \file waveform.hpp
/// Piecewise-linear source waveforms (SPICE `PWL(t1 v1 t2 v2 ...)`), used by
/// the transient extension. A DC source is a waveform with a single point.

#include <string_view>
#include <vector>

namespace irf::spice {

class Waveform {
 public:
  /// DC waveform.
  explicit Waveform(double dc_value = 0.0) : times_{0.0}, values_{dc_value} {}

  /// PWL waveform; times must be strictly increasing and non-negative.
  Waveform(std::vector<double> times, std::vector<double> values);

  /// Value at time t: linear interpolation, clamped at both ends.
  double value_at(double t) const;

  bool is_dc() const { return times_.size() == 1; }
  double dc_value() const { return values_.front(); }

  /// Largest |value| over the waveform (for scaling/validation).
  double max_abs() const;

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Scale all values by a factor (current rescaling stays linear).
  void scale(double factor);

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Parse the inside of a PWL(...) card body: "t1 v1 t2 v2 ...", SPICE value
/// suffixes allowed. Throws irf::ParseError on malformed input.
Waveform parse_pwl(const std::vector<std::string_view>& tokens);

}  // namespace irf::spice
