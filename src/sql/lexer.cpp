#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <set>

namespace mb2::sql {

bool IsKeyword(const std::string &word) {
  static const std::set<std::string> kKeywords = {
      "SELECT", "FROM",   "WHERE",  "GROUP",  "BY",     "ORDER",  "LIMIT",
      "INSERT", "INTO",   "VALUES", "UPDATE", "SET",    "DELETE", "CREATE",
      "TABLE",  "INDEX",  "DROP",   "ON",     "JOIN",   "INNER",  "AND",
      "OR",     "NOT",    "AS",     "ASC",    "DESC",   "COUNT",  "SUM",
      "AVG",    "MIN",    "MAX",    "INTEGER", "BIGINT", "DOUBLE", "VARCHAR",
      "UNIQUE", "WITH",   "THREADS"};
  return kKeywords.count(word) != 0;
}

Result<std::vector<Token>> Tokenize(const std::string &input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();
  int32_t next_literal = 0;

  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      i++;
      continue;
    }

    Token token;
    token.position = i;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(input[j])) ||
                       input[j] == '_')) {
        j++;
      }
      std::string word = input.substr(i, j - i);
      std::string upper = word;
      for (auto &ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (IsKeyword(upper)) {
        token.type = TokenType::kKeyword;
        token.text = upper;
      } else {
        token.type = TokenType::kIdentifier;
        token.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(input[j])) ||
                       input[j] == '.')) {
        if (input[j] == '.') is_float = true;
        j++;
      }
      // The whole run of digits and dots must be one number that fits its
      // type: "1.2.3" and an out-of-range literal are input errors.
      const char *first = input.data() + i;
      const char *last = input.data() + j;
      const std::from_chars_result parsed =
          is_float ? std::from_chars(first, last, token.float_value)
                   : std::from_chars(first, last, token.int_value);
      if (parsed.ec == std::errc::result_out_of_range) {
        return Status::InvalidArgument("number out of range at offset " +
                                       std::to_string(i));
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::InvalidArgument("malformed number at offset " +
                                       std::to_string(i));
      }
      token.type = is_float ? TokenType::kFloat : TokenType::kInteger;
      token.text = input.substr(i, j - i);
      token.literal_ordinal = next_literal++;
      i = j;
    } else if (c == '\'') {
      // A doubled quote inside the literal is an escaped quote (SQL-92):
      // 'O''Brien' is the single value O'Brien.
      std::string text;
      size_t j = i + 1;
      bool terminated = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {
            text.push_back('\'');
            j += 2;
            continue;
          }
          terminated = true;
          j++;
          break;
        }
        text.push_back(input[j]);
        j++;
      }
      if (!terminated) {
        return Status::InvalidArgument("unterminated string literal at offset " +
                                       std::to_string(i));
      }
      token.type = TokenType::kString;
      token.text = std::move(text);
      token.literal_ordinal = next_literal++;
      i = j;
    } else {
      // Multi-char comparison operators first.
      static const char *kTwoChar[] = {"<=", ">=", "<>", "!="};
      bool matched = false;
      for (const char *op : kTwoChar) {
        if (input.compare(i, 2, op) == 0) {
          token.type = TokenType::kSymbol;
          token.text = op;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        static const std::string kSingles = "(),;*=<>+-/.";
        if (kSingles.find(c) == std::string::npos) {
          return Status::InvalidArgument(std::string("unexpected character '") +
                                         c + "' at offset " + std::to_string(i));
        }
        token.type = TokenType::kSymbol;
        token.text = std::string(1, c);
        i++;
      }
    }
    tokens.push_back(std::move(token));
  }

  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace mb2::sql
