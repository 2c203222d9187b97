#pragma once

// Measurement plumbing of the repository benchmark: exact quantiles from raw
// samples, the benchmark's own span recorder, the metric table and the
// environment fingerprint. Nothing here calls into the library except the
// par/simd queries of the fingerprint.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "par/par.hpp"
#include "simd/simd.hpp"

namespace irfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact quantile of raw samples: linear interpolation between the order
/// statistics (the "type 7" estimator), so no histogram bucket error.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::runtime_error("mean of an empty sample");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One reported number: value, unit, and the sample count behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 1;
};
using Metrics = std::map<std::string, Metric>;

/// Full-precision JSON number: every digit as measured.
inline std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Spans recorded by the benchmark around its calls into the library, kept
/// in memory: name, start and end. A disabled tracer records nothing, so
/// untraced ops pay one branch per scope. Single-threaded: every span is
/// opened and closed on the benchmark's main thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr), name_(name) {
      if (tracer_) start_ = Clock::now();
    }
    ~Scope() {
      if (tracer_) tracer_->spans_.push_back({name_, start_, Clock::now()});
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Durations in seconds of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(std::chrono::duration<double>(s.end - s.start).count());
    }
    return out;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Reset the peak resident set (VmHWM) to the current one, so a later
/// peak_rss_mb() covers only what ran after this call.
inline void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

/// Peak resident set of this process (VmHWM), in MB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

inline std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of the cache at `level` as sysfs reports it (e.g. "2048K"), from
/// the first unified or data cache of cpu0 at that level.
inline std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (read_first_line(dir + "/level") != std::to_string(level)) continue;
    const std::string type = read_first_line(dir + "/type");
    if (type == "Instruction") continue;
    return read_first_line(dir + "/size");
  }
  return "unknown";
}

/// The environment fingerprint carried by every record.
inline std::vector<std::pair<std::string, std::string>> fingerprint(
    const std::string& build_type, const std::string& commit, std::uint64_t seed) {
  return {
      {"threads", std::to_string(irf::par::num_threads())},
      {"simd_tier", irf::simd::tier_name(irf::simd::active_tier())},
      {"build_type", build_type},
      {"cpu", cpu_model()},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"l2", cache_size(2)},
      {"l3", cache_size(3)},
      {"commit", commit},
      {"seed", std::to_string(seed)},
  };
}

}  // namespace irfbench
