#pragma once

/// \file lexer.hpp
/// String/comment-aware source lexer shared by the project lint rules
/// (lint.cpp) and the other passes of the semantic analyzer. One pass
/// classifies every byte of a translation unit as code, comment, or string,
/// so rules can match against a code-only projection without tripping over
/// tokens inside literals or commentary.
///
/// The suppression helper understands both comment tags:
///   // irf-analyze: allow(<rule>)    preferred, see docs/ANALYSIS.md
///   // irf-lint: allow(<rule>)       legacy spelling, still honoured
/// on the flagged line or, when the comment is the whole line, the line
/// directly above it.

#include <string>
#include <vector>

namespace irf::analyze::lex {

/// Per-character classification of a translation unit.
enum class Kind : unsigned char { kCode, kComment, kString };

/// Single-pass lexer: classifies every byte (handles //, /* */, "..." with
/// escapes, '...', and R"delim(...)delim"). Newlines always stay kCode so
/// line structure survives any projection.
std::vector<Kind> classify(const std::string& s);

/// Project `s` keeping only kCode bytes (others become spaces, newlines kept).
std::string code_view(const std::string& s, const std::vector<Kind>& kind);

/// 1-based line number of byte offset `pos` in `s`.
int line_of(const std::string& s, std::size_t pos);

/// Raw text of 1-based `line` (without the trailing newline).
std::string line_text(const std::string& raw, int line);

/// True when `line` or the line directly above carries an
/// `irf-analyze: allow(<rule>)` / `irf-lint: allow(<rule>)` suppression.
bool line_allows(const std::string& raw, int line, const std::string& rule);

}  // namespace irf::analyze::lex
