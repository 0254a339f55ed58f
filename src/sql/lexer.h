#pragma once

/// \file lexer.h
/// Tokenizer for the SQL subset. Keywords are case-insensitive; identifiers
/// keep their case; strings are single-quoted.

#include <string>
#include <vector>

#include "common/status.h"

namespace mb2::sql {

enum class TokenType : uint8_t {
  kIdentifier,
  kKeyword,
  kInteger,
  kFloat,
  kString,
  kSymbol,  // ( ) , ; * = < > <= >= <> + - / .
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;   // uppercased for keywords, verbatim otherwise
  int64_t int_value = 0;
  double float_value = 0.0;
  size_t position = 0;  // byte offset (error messages)
  /// Zero-based index among the literal tokens (integer/float/string) of the
  /// statement, -1 for everything else. This is the parameter slot the plan
  /// cache substitutes when replaying a cached plan with fresh literals.
  int32_t literal_ordinal = -1;
};

/// Splits `input` into tokens; returns InvalidArgument on malformed input
/// (unterminated string, stray character, malformed or out-of-range number).
Result<std::vector<Token>> Tokenize(const std::string &input);

/// True when `word` (already uppercased) is a reserved keyword.
bool IsKeyword(const std::string &word);

}  // namespace mb2::sql
