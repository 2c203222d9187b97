/// \file main.cpp
/// Driver for irf_analyze (see analyzer.hpp). All filesystem IO lives here;
/// the analyzer itself is fed in-memory contents so tests can drive it
/// without a disk layout.
///
/// Exit codes: 0 = clean (or --expect satisfied), 1 = findings (or --expect
/// unsatisfied), 2 = usage / IO error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/lint.hpp"

namespace fs = std::filesystem;

namespace {

struct Options {
  std::string layers;
  std::string env_doc;
  bool no_env_doc = false;
  std::string baseline;
  std::string json_path;
  std::string obs_registry_path;
  bool env_table = false;
  bool write_baseline = false;
  std::string relative_to;
  std::string expect_rule;
  bool list_rules = false;
  bool quiet = false;
  std::vector<std::string> roots;
};

int usage(std::ostream& out) {
  out << "usage: irf_analyze [options] [root...]\n"
         "  --layers <file>        layering table (default <root>/tools/analyze/layers.conf)\n"
         "  --env-doc <file>       env-contract doc (default <root>/docs/OBSERVABILITY.md)\n"
         "  --no-env-doc           disable the env-doc checks (fixture trees)\n"
         "  --baseline <file>      committed baseline of accepted findings\n"
         "  --json <file|->        write the irf.analyze.v1 findings report\n"
         "  --obs-registry <file|->  write the irf.obs_names.v1 registry\n"
         "  --env-table            print a regenerated env-contract markdown table\n"
         "  --write-baseline       print baseline lines for the current findings\n"
         "  --relative-to <dir>    report paths relative to this dir (default: the root)\n"
         "  --expect <rule>        fixture mode: succeed iff >=1 finding of <rule>\n"
         "  --list-rules           print every rule name and exit\n"
         "  --quiet                suppress per-finding lines\n";
  return 2;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool skip_dir(const std::string& name) {
  if (name == ".git" || name == "fixtures" || name == "lint_fixtures") return true;
  return name.compare(0, 5, "build") == 0;
}

bool scan_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".inc";
}

void collect(const fs::path& root, std::vector<fs::path>& out) {
  if (fs::is_regular_file(root)) {
    out.push_back(root);
    return;
  }
  auto it = fs::recursive_directory_iterator(root);
  for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
    if (it->is_directory()) {
      if (skip_dir(it->path().filename().string())) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && scan_ext(it->path())) out.push_back(it->path());
  }
}

std::string relativize(const fs::path& p, const fs::path& base) {
  std::error_code ec;
  const std::string rel = fs::relative(p, base, ec).generic_string();
  if (ec || rel.empty() || rel.compare(0, 2, "..") == 0) return p.generic_string();
  return rel;
}

bool write_output(const std::string& target, const std::string& content) {
  if (target == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(target, std::ios::binary);
  if (!out) return false;
  out << content;
  return bool(out << std::flush);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string& slot) {
      if (i + 1 >= argc) return false;
      slot = argv[++i];
      return true;
    };
    if (arg == "--layers") {
      if (!value(opt.layers)) return usage(std::cerr);
    } else if (arg == "--env-doc") {
      if (!value(opt.env_doc)) return usage(std::cerr);
    } else if (arg == "--no-env-doc") {
      opt.no_env_doc = true;
    } else if (arg == "--baseline") {
      if (!value(opt.baseline)) return usage(std::cerr);
    } else if (arg == "--json") {
      if (!value(opt.json_path)) return usage(std::cerr);
    } else if (arg == "--obs-registry") {
      if (!value(opt.obs_registry_path)) return usage(std::cerr);
    } else if (arg == "--env-table") {
      opt.env_table = true;
    } else if (arg == "--write-baseline") {
      opt.write_baseline = true;
    } else if (arg == "--relative-to") {
      if (!value(opt.relative_to)) return usage(std::cerr);
    } else if (arg == "--expect") {
      if (!value(opt.expect_rule)) return usage(std::cerr);
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "irf_analyze: unknown option '" << arg << "'\n";
      return usage(std::cerr);
    } else {
      opt.roots.push_back(arg);
    }
  }

  if (opt.list_rules) {
    for (const std::string& r : irf::analyze::lint::rule_names()) std::cout << r << "\n";
    for (const char* r : {"layering", "layer-cycle", "layer-table", "private-include",
                          "env-undocumented", "env-raw-parse", "env-doc-stale",
                          "lock-unannotated", "lock-order", "lock-cycle"}) {
      std::cout << r << "\n";
    }
    return 0;
  }

  if (opt.roots.empty()) opt.roots.push_back(".");
  const fs::path first_root = opt.roots.front();
  const fs::path rel_base =
      opt.relative_to.empty()
          ? (fs::is_directory(first_root) ? first_root : first_root.parent_path())
          : fs::path(opt.relative_to);

  if (opt.layers.empty()) {
    const fs::path candidate = rel_base / "tools" / "analyze" / "layers.conf";
    if (fs::exists(candidate)) opt.layers = candidate.string();
  }
  if (opt.env_doc.empty() && !opt.no_env_doc) {
    const fs::path candidate = rel_base / "docs" / "OBSERVABILITY.md";
    if (fs::exists(candidate)) opt.env_doc = candidate.string();
  }

  irf::analyze::Config config;
  if (!opt.layers.empty()) {
    if (!read_file(opt.layers, config.layers_text)) {
      std::cerr << "irf_analyze: cannot read layers table " << opt.layers << "\n";
      return 2;
    }
    config.layers_path = relativize(opt.layers, rel_base);
  } else {
    std::cerr << "irf_analyze: no layering table (pass --layers)\n";
    return 2;
  }
  if (!opt.no_env_doc && !opt.env_doc.empty()) {
    if (!read_file(opt.env_doc, config.env_doc_text)) {
      std::cerr << "irf_analyze: cannot read env doc " << opt.env_doc << "\n";
      return 2;
    }
    config.env_doc_path = relativize(opt.env_doc, rel_base);
  }
  if (!opt.baseline.empty() && !read_file(opt.baseline, config.baseline_text)) {
    std::cerr << "irf_analyze: cannot read baseline " << opt.baseline << "\n";
    return 2;
  }

  irf::analyze::Analyzer analyzer(std::move(config));

  std::vector<fs::path> paths;
  for (const std::string& root : opt.roots) {
    if (!fs::exists(root)) {
      std::cerr << "irf_analyze: no such path: " << root << "\n";
      return 2;
    }
    collect(root, paths);
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::string content;
    if (!read_file(p, content)) {
      std::cerr << "irf_analyze: cannot read " << p << "\n";
      return 2;
    }
    analyzer.add_file(relativize(p, rel_base), content);
  }
  analyzer.finish();

  if (opt.env_table) {
    std::cout << analyzer.env_table_markdown();
    return 0;
  }
  if (opt.write_baseline) {
    std::cout << analyzer.baseline_lines();
    return 0;
  }

  if (!opt.quiet) {
    for (const irf::analyze::Finding& f : analyzer.findings()) {
      std::cout << f.str() << "\n";
    }
  }

  if (!opt.json_path.empty() && !write_output(opt.json_path, analyzer.findings_json())) {
    std::cerr << "irf_analyze: cannot write " << opt.json_path << "\n";
    return 2;
  }
  if (!opt.obs_registry_path.empty() &&
      !write_output(opt.obs_registry_path, analyzer.obs_registry_json())) {
    std::cerr << "irf_analyze: cannot write " << opt.obs_registry_path << "\n";
    return 2;
  }

  if (!opt.expect_rule.empty()) {
    int hits = 0;
    for (const irf::analyze::Finding& f : analyzer.findings()) {
      if (f.rule == opt.expect_rule) ++hits;
    }
    if (hits == 0) {
      std::cerr << "irf_analyze: expected at least one '" << opt.expect_rule
                << "' finding, got none (" << analyzer.findings().size()
                << " total findings)\n";
      return 1;
    }
    std::cerr << "irf_analyze: matched " << hits << " '" << opt.expect_rule
              << "' finding(s) as expected\n";
    return 0;
  }

  std::cerr << "irf_analyze: " << analyzer.files_scanned() << " files, "
            << analyzer.findings().size() << " finding(s), "
            << analyzer.baselined().size() << " baselined\n";
  return analyzer.findings().empty() ? 0 : 1;
}
