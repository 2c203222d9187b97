#pragma once

/// \file lint.hpp
/// Table-driven token lint rules (the lint pass inside tools/analyze's
/// irf_analyze, run as a ctest so violations fail tier-1). Rules encode
/// contracts the compiler cannot see:
///
///   raw-new / raw-delete  — no manual allocation outside arenas/pools;
///                           smart pointers and containers own memory here
///   reinterpret-cast      — serialization paths must use memcpy-based byte
///                           IO (common/bytes.hpp), never type punning
///   pragma-once           — every header starts with #pragma once
///   obs-name              — every obs span/metric name matches the
///                           registered-name grammar and each name is bound
///                           to exactly one instrument kind repo-wide
///
/// A line can opt out of one rule with an `// irf-analyze: allow(<rule>)`
/// comment (legacy spelling `// irf-lint: allow(<rule>)` is still honoured)
/// on the same line or the line directly above — grep-able, reviewed
/// suppressions instead of silent blind spots. See docs/ANALYSIS.md for how
/// to add a rule. The rules here are one pass of the `irf_analyze` semantic
/// analyzer (tools/analyze), which also reuses the name registry collected
/// below for its obs-name export.

#include <string>
#include <vector>

namespace irf::analyze::lint {

struct Issue {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string str() const;
};

/// Accumulates per-file scans plus the cross-file obs-name registry.
class Linter {
 public:
  /// Scan one file's content. `path` is used for reporting and to decide
  /// header-only rules (pragma-once applies to .hpp).
  void add_file(const std::string& path, const std::string& content);

  /// Run cross-file checks (obs-name kind conflicts). Call once, after the
  /// last add_file.
  void finish();

  const std::vector<Issue>& issues() const { return issues_; }
  int files_scanned() const { return files_scanned_; }

  struct NameUse {
    std::string kind;  // "counter", "gauge", "timer" (spans record as timers)
    std::string file;
    int line = 0;
  };

  /// Every well-formed instrument name extracted so far, in insertion order
  /// (one entry per call site). irf_analyze renders this as obs_names.json.
  const std::vector<std::pair<std::string, NameUse>>& names() const { return names_; }

 private:
  std::vector<Issue> issues_;
  std::vector<std::pair<std::string, NameUse>> names_;  // insertion order
  int files_scanned_ = 0;
};

/// One-shot convenience for tests: scan a single in-memory file, including
/// the cross-file pass over just that file.
std::vector<Issue> lint_content(const std::string& path, const std::string& content);

/// Names of every registered rule (fixture tests assert coverage).
std::vector<std::string> rule_names();

}  // namespace irf::analyze::lint
