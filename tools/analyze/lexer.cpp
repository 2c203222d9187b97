#include "analyze/lexer.hpp"

#include <algorithm>
#include <cctype>

namespace irf::analyze::lex {

namespace {

bool identifier_char_raw(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool line_has_allow(const std::string& raw, int line, const std::string& rule) {
  if (line < 1) return false;
  const std::string text = line_text(raw, line);
  return text.find("irf-lint: allow(" + rule + ")") != std::string::npos ||
         text.find("irf-analyze: allow(" + rule + ")") != std::string::npos;
}

}  // namespace

std::vector<Kind> classify(const std::string& s) {
  std::vector<Kind> kind(s.size(), Kind::kCode);
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    const char c = s[i];
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      while (i < n && s[i] != '\n') kind[i++] = Kind::kComment;
    } else if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      kind[i] = kind[i + 1] = Kind::kComment;
      i += 2;
      while (i < n && !(s[i] == '*' && i + 1 < n && s[i + 1] == '/')) {
        if (s[i] != '\n') kind[i] = Kind::kComment;
        ++i;
      }
      if (i + 1 < n) kind[i] = kind[i + 1] = Kind::kComment;
      i = std::min(n, i + 2);
    } else if (c == 'R' && i + 1 < n && s[i + 1] == '"' &&
               (i == 0 || !identifier_char_raw(s[i - 1]))) {
      // Raw string: R"delim( ... )delim"
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && s[j] != '(') delim += s[j++];
      const std::string closer = ")" + delim + "\"";
      std::size_t end = s.find(closer, j);
      end = end == std::string::npos ? n : end + closer.size();
      for (std::size_t k = i; k < end; ++k) {
        if (s[k] != '\n') kind[k] = Kind::kString;
      }
      i = end;
    } else if (c == '"' || (c == '\'' && (i == 0 || !identifier_char_raw(s[i - 1])))) {
      // (a ' directly after an identifier/digit is a C++14 digit separator,
      // not a character-literal open)
      const char quote = c;
      kind[i++] = Kind::kString;
      while (i < n && s[i] != quote && s[i] != '\n') {
        kind[i] = Kind::kString;
        i += (s[i] == '\\' && i + 1 < n) ? 2 : 1;
        if (i - 1 < n && s[i - 1] != '\n') kind[i - 1] = Kind::kString;
      }
      if (i < n && s[i] == quote) kind[i++] = Kind::kString;
    } else {
      ++i;
    }
  }
  return kind;
}

std::string code_view(const std::string& s, const std::vector<Kind>& kind) {
  std::string out = s;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (kind[i] != Kind::kCode && s[i] != '\n') out[i] = ' ';
  }
  return out;
}

int line_of(const std::string& s, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
}

std::string line_text(const std::string& raw, int line) {
  if (line < 1) return "";
  std::size_t start = 0;
  for (int l = 1; l < line; ++l) {
    start = raw.find('\n', start);
    if (start == std::string::npos) return "";
    ++start;
  }
  std::size_t end = raw.find('\n', start);
  if (end == std::string::npos) end = raw.size();
  return raw.substr(start, end - start);
}

bool line_allows(const std::string& raw, int line, const std::string& rule) {
  return line_has_allow(raw, line, rule) || line_has_allow(raw, line - 1, rule);
}

}  // namespace irf::analyze::lex
