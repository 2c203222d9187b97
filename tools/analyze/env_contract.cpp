#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "analyze/analyzer.hpp"
#include "analyze/lexer.hpp"

namespace irf::analyze {

namespace {

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Raw number-parse tokens banned near a getenv site. Env values must go
/// through the checked helpers in common/parse.hpp (full-string, no silent
/// prefix acceptance, range-checked) or explicit string comparison.
const char* const kRawParseTokens[] = {
    "atoi", "atol", "atoll", "atof",
    "std::atoi", "std::atol", "std::atoll", "std::atof",
    "std::stoi", "std::stol", "std::stoll", "std::stoul", "std::stoull",
    "std::stof", "std::stod", "std::stold",
};

/// Variables documented in the env-contract table: every `IRF_*` token that
/// appears backticked in a markdown table row of the doc.
std::set<std::string> documented_vars(const std::string& doc) {
  std::set<std::string> vars;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] != '|') continue;
    std::size_t pos = 0;
    while ((pos = line.find("`IRF_", pos)) != std::string::npos) {
      const std::size_t begin = pos + 1;
      std::size_t end = begin;
      while (end < line.size() && identifier_char(line[end])) ++end;
      if (end < line.size() && line[end] == '`') vars.insert(line.substr(begin, end - begin));
      pos = end;
    }
  }
  return vars;
}

}  // namespace

void Analyzer::run_env_contract() {
  const std::set<std::string> documented = documented_vars(config_.env_doc_text);
  std::set<std::string> seen_vars;

  for (const FileRecord& f : files_) {
    // The contract governs library code: the tool/test trees may read
    // whatever they like (fixtures, harness knobs).
    if (f.path.compare(0, 4, "src/") != 0) continue;

    std::size_t pos = 0;
    while ((pos = f.code.find("getenv", pos)) != std::string::npos) {
      const std::size_t tok = pos;
      pos += 6;
      if (tok > 0 && identifier_char(f.code[tok - 1])) continue;
      std::size_t j = pos;
      while (j < f.code.size() && std::isspace(static_cast<unsigned char>(f.code[j]))) ++j;
      if (j >= f.code.size() || f.code[j] != '(') continue;
      ++j;
      while (j < f.content.size() &&
             std::isspace(static_cast<unsigned char>(f.content[j]))) {
        ++j;
      }
      const int line = lex::line_of(f.content, tok);
      if (j >= f.content.size() || f.content[j] != '"') {
        // Non-literal variable name: the doc contract can't be checked, which
        // is itself the violation.
        if (!lex::line_allows(f.content, line, "env-undocumented")) {
          report({f.path, line, "env-undocumented",
                  "getenv with a non-literal variable name cannot be checked against "
                  "the env contract; use a string literal",
                  "non-literal"});
        }
        continue;
      }
      const std::size_t begin = j + 1;
      const std::size_t end = f.content.find('"', begin);
      if (end == std::string::npos) continue;
      const std::string var = f.content.substr(begin, end - begin);
      if (var.compare(0, 4, "IRF_") != 0) continue;  // foreign vars are not ours to doc
      env_sites_.push_back({var, f.path, line});
      seen_vars.insert(var);

      if (documented.count(var) == 0 && !config_.env_doc_text.empty() &&
          !lex::line_allows(f.content, line, "env-undocumented")) {
        report({f.path, line, "env-undocumented",
                var + " is read here but missing from the env-contract table in " +
                    config_.env_doc_path,
                var});
      }

      // env-raw-parse: a raw atoi/stod-style parse in the getenv statement's
      // vicinity (same line through +8) — close enough that the value being
      // parsed is, with near certainty, this variable.
      const int last_line = line + 8;
      for (const char* token : kRawParseTokens) {
        const std::string tk = token;
        std::size_t tpos = 0;
        bool flagged = false;
        while (!flagged && (tpos = f.code.find(tk, tpos)) != std::string::npos) {
          const std::size_t at = tpos;
          tpos += tk.size();
          if (at > 0 && (identifier_char(f.code[at - 1]) || f.code[at - 1] == ':')) continue;
          if (tpos < f.code.size() && identifier_char(f.code[tpos])) continue;
          const int tline = lex::line_of(f.content, at);
          if (tline < line || tline > last_line) continue;
          if (lex::line_allows(f.content, tline, "env-raw-parse")) continue;
          report({f.path, tline, "env-raw-parse",
                  "raw " + tk + " near getenv(\"" + var +
                      "\"); parse env values with the checked helpers in "
                      "common/parse.hpp",
                  var + ":" + tk});
          flagged = true;
        }
      }
    }
  }

  // env-doc-stale: a documented variable nothing reads any more. Only
  // meaningful on a full-repo scan; the driver disables the doc by passing
  // empty text when scanning fixture subtrees.
  if (!config_.env_doc_text.empty() && !files_.empty()) {
    bool scanned_src = false;
    for (const FileRecord& f : files_) {
      if (f.path.compare(0, 4, "src/") == 0) {
        scanned_src = true;
        break;
      }
    }
    if (scanned_src) {
      for (const std::string& var : documented) {
        if (seen_vars.count(var) == 0) {
          report({config_.env_doc_path, 0, "env-doc-stale",
                  var + " is documented in the env-contract table but no src/ file "
                        "reads it",
                  var});
        }
      }
    }
  }
}

}  // namespace irf::analyze
