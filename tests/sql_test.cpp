// SQL frontend tests: lexer, parser/binder, execution semantics, index
// selection, DDL (including parallel CREATE INDEX), and error paths.

#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "database.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace mb2 {
namespace {

using sql::ExecuteSql;
using sql::Parse;
using sql::Tokenize;
using sql::TokenType;

// --- Lexer -------------------------------------------------------------------

TEST(SqlLexerTest, TokenKindsAndKeywordFolding) {
  auto tokens = Tokenize("SELECT a, t.b FROM t WHERE x >= 3.5 AND s = 'hi''");
  ASSERT_FALSE(tokens.ok());  // unterminated trailing string

  tokens = Tokenize("select A From t_1 wHeRe x <> 42");
  ASSERT_TRUE(tokens.ok());
  const auto &ts = tokens.value();
  EXPECT_EQ(ts[0].type, TokenType::kKeyword);
  EXPECT_EQ(ts[0].text, "SELECT");
  EXPECT_EQ(ts[1].type, TokenType::kIdentifier);
  EXPECT_EQ(ts[1].text, "A");  // identifiers keep case
  EXPECT_EQ(ts[3].text, "t_1");
  EXPECT_EQ(ts[6].text, "<>");
  EXPECT_EQ(ts[7].int_value, 42);
  EXPECT_EQ(ts.back().type, TokenType::kEnd);
}

TEST(SqlLexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("1 2.5 'a b' .75");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].int_value, 1);
  EXPECT_DOUBLE_EQ(tokens.value()[1].float_value, 2.5);
  EXPECT_EQ(tokens.value()[2].text, "a b");
  EXPECT_DOUBLE_EQ(tokens.value()[3].float_value, 0.75);
}

TEST(SqlLexerTest, DoubledQuoteEscapes) {
  // SQL-92: a doubled quote inside a string literal is one literal quote.
  auto tokens = Tokenize("name = 'O''Brien'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value()[2].type, TokenType::kString);
  EXPECT_EQ(tokens.value()[2].text, "O'Brien");
  EXPECT_EQ(tokens.value()[3].type, TokenType::kEnd);  // one token, not two

  tokens = Tokenize("''");  // empty string
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].type, TokenType::kString);
  EXPECT_EQ(tokens.value()[0].text, "");

  tokens = Tokenize("''''");  // a string holding exactly one quote
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "'");

  tokens = Tokenize("'a''b''c' 7");  // multiple escapes in one literal
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "a'b'c");
  EXPECT_EQ(tokens.value()[1].int_value, 7);
}

TEST(SqlLexerTest, OutOfRangeAndMalformedNumbersAreErrors) {
  auto tokens = Tokenize("9223372036854775807");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].int_value, INT64_MAX);

  // Out of int64 range, by one.
  auto status = Tokenize("WHERE id = 9223372036854775808").status();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("offset 11"), std::string::npos)
      << status.ToString();
  // Out of double range.
  status = Tokenize("x = 1" + std::string(400, '0') + ".5").status();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("offset 4"), std::string::npos);
  // More than one decimal point is one malformed number, not 1.2 then .3.
  status = Tokenize("SELECT 1.2.3").status();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("offset 7"), std::string::npos);
}

TEST(SqlLexerTest, UnterminatedStringsAreErrors) {
  EXPECT_FALSE(Tokenize("'abc").ok());
  // The trailing '' is an escaped quote, so the literal never closes.
  EXPECT_FALSE(Tokenize("'abc''").ok());
  EXPECT_FALSE(Tokenize("'").ok());
  const auto status = Tokenize("WHERE x = 'oops").status();
  EXPECT_NE(status.ToString().find("unterminated"), std::string::npos);
}

// --- Execution ------------------------------------------------------------------

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE items (id INTEGER, grp INTEGER,"
                                 " price DOUBLE, name VARCHAR(8))").ok());
    for (int i = 0; i < 100; i++) {
      char stmt[160];
      std::snprintf(stmt, sizeof(stmt),
                    "INSERT INTO items VALUES (%d, %d, %d.5, 'n%d')", i, i % 5,
                    i, i);
      ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
    }
    db_.estimator().RefreshStats();
  }

  Batch Run(const std::string &statement) {
    auto result = ExecuteSql(&db_, statement);
    EXPECT_TRUE(result.ok()) << statement << ": "
                             << result.status().ToString();
    if (!result.ok()) return {};
    EXPECT_TRUE(result.value().status.ok()) << statement;
    return std::move(result.value().batch);
  }

  Database db_;
};

TEST_F(SqlTest, SelectStarAndWhere) {
  EXPECT_EQ(Run("SELECT * FROM items").rows.size(), 100u);
  Batch filtered = Run("SELECT * FROM items WHERE id < 10 AND grp = 1");
  ASSERT_EQ(filtered.rows.size(), 2u);  // ids 1, 6
  EXPECT_EQ(filtered.rows[0].size(), 4u);
}

TEST_F(SqlTest, ProjectionWithArithmetic) {
  Batch out = Run("SELECT id, price * 2 + 1 FROM items WHERE id = 3");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 3);
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), 3.5 * 2 + 1);
}

TEST_F(SqlTest, VarcharPredicate) {
  Batch out = Run("SELECT id FROM items WHERE name = 'n42'");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 42);
}

TEST_F(SqlTest, OrderByAndLimit) {
  Batch out = Run("SELECT id FROM items ORDER BY id DESC LIMIT 3");
  ASSERT_EQ(out.rows.size(), 3u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 99);
  EXPECT_EQ(out.rows[2][0].AsInt(), 97);
  // LIMIT without ORDER BY.
  EXPECT_EQ(Run("SELECT id FROM items LIMIT 7").rows.size(), 7u);
}

TEST_F(SqlTest, OrderByResolvesAgainstTheRowItSorts) {
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE fact (id INTEGER, qty INTEGER, "
                               "val DOUBLE, tag VARCHAR)").ok());
  // qty, val and tag each order the rows differently from id.
  for (int i = 0; i < 10; i++) {
    const std::string stmt =
        "INSERT INTO fact VALUES (" + std::to_string(i) + ", " +
        std::to_string((7 * i) % 10) + ", " + std::to_string((3 * i) % 10) +
        ".5, 't" + std::to_string(9 - i) + "')";
    ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
  }

  // A name resolves to its select-list position, not the table column.
  Batch by_id = Run("SELECT qty, id FROM fact ORDER BY id LIMIT 5");
  ASSERT_EQ(by_id.rows.size(), 5u);
  for (int64_t i = 0; i < 5; i++) EXPECT_EQ(by_id.rows[i][1].AsInt(), i);
  Batch by_val = Run("SELECT tag, val FROM fact ORDER BY val");
  ASSERT_EQ(by_val.rows.size(), 10u);
  for (size_t i = 1; i < by_val.rows.size(); i++) {
    EXPECT_LT(by_val.rows[i - 1][1].AsDouble(), by_val.rows[i][1].AsDouble());
  }
  // `*` sorts by the table column; an aggregate by the group-key position.
  Batch star = Run("SELECT * FROM fact ORDER BY qty DESC");
  ASSERT_EQ(star.rows.size(), 10u);
  EXPECT_EQ(star.rows[0][1].AsInt(), 9);
  Batch grouped = Run("SELECT COUNT(*), tag FROM fact GROUP BY tag ORDER BY tag");
  ASSERT_EQ(grouped.rows.size(), 10u);
  EXPECT_EQ(grouped.rows[0][0].AsVarchar(), "t0");

  // Ordinals outside 1..width and names outside the row are errors that
  // point at the offending token.
  for (const char *stmt : {"SELECT qty, id FROM fact ORDER BY 0",
                           "SELECT qty, id FROM fact ORDER BY 9",
                           "SELECT qty FROM fact ORDER BY id"}) {
    auto result = ExecuteSql(&db_, stmt);
    ASSERT_FALSE(result.ok()) << stmt;
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument) << stmt;
    EXPECT_NE(result.status().ToString().find("offset"), std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(SqlTest, GroupByAggregates) {
  Batch out = Run("SELECT grp, COUNT(*), SUM(price), MAX(id) FROM items "
                  "GROUP BY grp ORDER BY 1");
  ASSERT_EQ(out.rows.size(), 5u);
  // Group 0: ids 0,5,...,95 -> 20 rows; max id 95.
  EXPECT_EQ(out.rows[0][0].AsInt(), 0);
  EXPECT_EQ(out.rows[0][1].AsInt(), 20);
  EXPECT_DOUBLE_EQ(out.rows[0][3].AsDouble(), 95.0);
}

TEST_F(SqlTest, ScalarAggregate) {
  Batch out = Run("SELECT COUNT(*), AVG(price) FROM items WHERE id < 4");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 4);
  EXPECT_DOUBLE_EQ(out.rows[0][1].AsDouble(), (0.5 + 1.5 + 2.5 + 3.5) / 4);
}

TEST_F(SqlTest, JoinWithPushedDownPredicates) {
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE grps (gid INTEGER, label VARCHAR)").ok());
  for (int g = 0; g < 5; g++) {
    char stmt[96];
    std::snprintf(stmt, sizeof(stmt), "INSERT INTO grps VALUES (%d, 'g%d')", g, g);
    ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
  }
  Batch out = Run("SELECT * FROM items JOIN grps ON grp = gid "
                  "WHERE id < 10 AND label = 'g1'");
  // ids 1 and 6 have grp 1.
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0].size(), 6u);  // concatenated schemas
}

TEST_F(SqlTest, UpdateAndDelete) {
  Run("UPDATE items SET price = 0.0 WHERE grp = 2");
  Batch zeroed = Run("SELECT COUNT(*) FROM items WHERE price < 0.001");
  EXPECT_EQ(zeroed.rows[0][0].AsInt(), 20);

  Run("DELETE FROM items WHERE id >= 90");
  EXPECT_EQ(Run("SELECT * FROM items").rows.size(), 90u);
}

TEST_F(SqlTest, CreateIndexIsUsedByPointQueries) {
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE INDEX idx_grp ON items (grp) "
                               "WITH 2 THREADS").ok());
  // The binder must pick an index scan for the pinned-prefix predicate.
  auto bound = Parse(&db_, "SELECT * FROM items WHERE grp = 3 AND id < 50");
  ASSERT_TRUE(bound.ok());
  const PlanNode *scan = bound.value().plan->children[0].get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  EXPECT_EQ(scan->type, PlanNodeType::kIndexScan);
  // And the result is correct (residual filter applied).
  Batch out = Run("SELECT id FROM items WHERE grp = 3 AND id < 50");
  EXPECT_EQ(out.rows.size(), 10u);  // ids 3, 8, ..., 48
  // DROP removes it; queries fall back to seq scans.
  ASSERT_TRUE(ExecuteSql(&db_, "DROP INDEX idx_grp").ok());
  bound = Parse(&db_, "SELECT * FROM items WHERE grp = 3");
  const PlanNode *scan2 = bound.value().plan->children[0].get();
  while (!scan2->children.empty()) scan2 = scan2->children[0].get();
  EXPECT_EQ(scan2->type, PlanNodeType::kSeqScan);
}

TEST_F(SqlTest, MultiRowInsertAndCoercion) {
  Run("INSERT INTO items VALUES (200, 0, 7, 'a'), (201, 1, 8.25, 'b')");
  Batch out = Run("SELECT price FROM items WHERE id = 200");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(out.rows[0][0].AsDouble(), 7.0);  // int literal coerced
}

TEST_F(SqlTest, ErrorsAreInvalidArgumentNotCrashes) {
  const char *bad[] = {
      "SELEC * FROM items",
      "SELECT * FROM missing_table",
      "SELECT nope FROM items",
      "INSERT INTO items VALUES (1)",                  // arity
      "INSERT INTO items VALUES (1, 2, 'x', 'y')",     // type mismatch
      "SELECT * FROM items WHERE",
      "CREATE TABLE items (x INTEGER)",                // duplicate
      "DROP INDEX never_existed",
      "SELECT grp, id FROM items GROUP BY grp",        // id not grouped...
  };
  for (const char *stmt : bad) {
    auto result = ExecuteSql(&db_, stmt);
    if (std::string(stmt).find("GROUP BY") != std::string::npos) {
      // Non-aggregate query: plain projection, no aggregate check applies.
      continue;
    }
    EXPECT_FALSE(result.ok()) << stmt;
  }

  // Ill-typed expressions and out-of-range or malformed literals are the
  // statement's error, reported with its offset, in every execution mode.
  const Batch before = Run("SELECT * FROM items");
  const char *ill_typed[] = {
      "SELECT id FROM items WHERE name = 5",
      "SELECT name + 1 FROM items",
      "SELECT * FROM items WHERE name",
      "SELECT * FROM items WHERE NOT name",
      "SELECT -name FROM items",
      "SELECT SUM(name) FROM items",
      "SELECT MIN(name) FROM items",
      "SELECT * FROM items WHERE id > 0 AND name",
      "INSERT INTO items VALUES (1 + 'x', 1, 1.0, 'y')",
      "UPDATE items SET id = 'x'",
      "UPDATE items SET name = 5",
      "SELECT * FROM items WHERE id = 9223372036854775808",
      "SELECT * FROM items WHERE id = 1.2.3",
  };
  for (int64_t mode : {0, 1, 2}) {
    ASSERT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    for (const char *stmt : ill_typed) {
      auto result = ExecuteSql(&db_, stmt);
      ASSERT_FALSE(result.ok()) << stmt;
      EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument) << stmt;
      EXPECT_NE(result.status().ToString().find("offset"), std::string::npos)
          << stmt << ": " << result.status().ToString();
    }
  }
  // The rejected UPDATEs and INSERT changed nothing.
  const Batch after = Run("SELECT * FROM items");
  ASSERT_EQ(after.rows.size(), before.rows.size());
  for (size_t r = 0; r < before.rows.size(); r++) {
    for (size_t c = 0; c < before.rows[r].size(); c++) {
      EXPECT_EQ(after.rows[r][c].type(), before.rows[r][c].type());
      EXPECT_EQ(after.rows[r][c].ToString(), before.rows[r][c].ToString());
    }
  }
  EXPECT_EQ(Run("SELECT id FROM items WHERE id = 1").rows.size(), 1u);
}

TEST_F(SqlTest, CountOfVarcharCountsRowsInEveryMode) {
  // The engine has no NULLs, so COUNT of any column is COUNT(*).
  for (int64_t mode : {0, 1, 2}) {
    ASSERT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    const Batch out = Run("SELECT COUNT(name) FROM items");
    ASSERT_EQ(out.rows.size(), 1u) << "mode " << mode;
    EXPECT_EQ(out.rows[0][0].AsInt(), 100) << "mode " << mode;
  }
}

TEST_F(SqlTest, GroupByKeepsGroupsWhoseKeyHashesCollide) {
  // HashColumns({1, 1}) == HashColumns({2, 769530012873201677}): the two
  // keys share a hash but are different groups.
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE pairs (a INTEGER, b INTEGER)").ok());
  ASSERT_TRUE(ExecuteSql(&db_, "INSERT INTO pairs VALUES (1, 1)").ok());
  ASSERT_TRUE(
      ExecuteSql(&db_, "INSERT INTO pairs VALUES (2, 769530012873201677)").ok());
  for (int64_t mode : {0, 1, 2}) {
    ASSERT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    const Batch out =
        Run("SELECT a, b, COUNT(*) FROM pairs GROUP BY a, b ORDER BY a");
    ASSERT_EQ(out.rows.size(), 2u) << "mode " << mode;
    EXPECT_EQ(out.rows[0][0].AsInt(), 1) << "mode " << mode;
    EXPECT_EQ(out.rows[0][1].AsInt(), 1) << "mode " << mode;
    EXPECT_EQ(out.rows[0][2].AsInt(), 1) << "mode " << mode;
    EXPECT_EQ(out.rows[1][0].AsInt(), 2) << "mode " << mode;
    EXPECT_EQ(out.rows[1][1].AsInt(), 769530012873201677) << "mode " << mode;
    EXPECT_EQ(out.rows[1][2].AsInt(), 1) << "mode " << mode;
  }
}

TEST_F(SqlTest, UpdateFitsValuesToTheColumnType) {
  // INSERT and UPDATE share one rule: an integer becomes a double for a
  // DOUBLE column, any other mismatch is InvalidArgument. Before, UPDATE
  // stored INTEGER 5 in a DOUBLE column, which GROUP BY then split from
  // DOUBLE 5.0, and stored DOUBLE 2.5 in an INTEGER column.
  for (int64_t mode : {0, 1, 2}) {
    ASSERT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    const std::string t = "fit" + std::to_string(mode);
    ASSERT_TRUE(
        ExecuteSql(&db_, "CREATE TABLE " + t + " (id INTEGER, d DOUBLE)").ok());
    Run("INSERT INTO " + t + " VALUES (1, 5), (2, 7)");
    Run("UPDATE " + t + " SET d = 5 WHERE id = 2");

    const Batch groups = Run("SELECT d, COUNT(*) FROM " + t + " GROUP BY d");
    ASSERT_EQ(groups.rows.size(), 1u) << "mode " << mode;
    ASSERT_EQ(groups.rows[0][0].type(), TypeId::kDouble) << "mode " << mode;
    EXPECT_EQ(groups.rows[0][0].AsDouble(), 5.0) << "mode " << mode;
    EXPECT_EQ(groups.rows[0][1].AsInt(), 2) << "mode " << mode;

    auto bad = ExecuteSql(&db_, "UPDATE " + t + " SET id = 2.5 WHERE id = 2");
    const Status status = bad.ok() ? bad.value().status : bad.status();
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << "mode " << mode;

    const Batch rows = Run("SELECT id, d FROM " + t + " ORDER BY id");
    ASSERT_EQ(rows.rows.size(), 2u) << "mode " << mode;
    for (const Tuple &row : rows.rows) {
      ASSERT_EQ(row[0].type(), TypeId::kInteger) << "mode " << mode;
      ASSERT_EQ(row[1].type(), TypeId::kDouble) << "mode " << mode;
    }
    EXPECT_EQ(rows.rows[1][0].AsInt(), 2) << "mode " << mode;
    EXPECT_EQ(rows.rows[1][1].AsDouble(), 5.0) << "mode " << mode;
  }
}

TEST_F(SqlTest, DatabaseExecuteConvenienceOverload) {
  // Database::Execute(sql) is the same end-to-end path ExecuteSql takes
  // (it is what the network service's SQL_QUERY opcode calls).
  auto result = db_.Execute("SELECT COUNT(*) FROM items WHERE grp = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().status.ok());
  ASSERT_EQ(result.value().batch.rows.size(), 1u);
  EXPECT_EQ(result.value().batch.rows[0][0].AsInt(), 20);

  // DDL and DML flow through the same overload.
  ASSERT_TRUE(db_.Execute("CREATE TABLE conv (x INTEGER)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO conv VALUES (41), (42)").ok());
  auto rows = db_.Execute("SELECT x FROM conv WHERE x > 41");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().batch.rows.size(), 1u);
  EXPECT_EQ(rows.value().batch.rows[0][0].AsInt(), 42);

  // Errors surface through the Result, typed, instead of crashing.
  EXPECT_FALSE(db_.Execute("SELECT * FROM nonexistent").ok());
  EXPECT_FALSE(db_.Execute("NOT SQL AT ALL").ok());
}

TEST_F(SqlTest, EscapedQuoteRoundTrip) {
  Run("INSERT INTO items VALUES (500, 0, 1.0, 'O''Brien')");
  Batch out = Run("SELECT id FROM items WHERE name = 'O''Brien'");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 500);
  Batch name = Run("SELECT name FROM items WHERE id = 500");
  ASSERT_EQ(name.rows.size(), 1u);
  EXPECT_EQ(name.rows[0][0].AsVarchar(), "O'Brien");
}

TEST_F(SqlTest, TrailingGarbageIsRejected) {
  const char *bad[] = {
      "SELECT * FROM items 42",
      "SELECT * FROM items; SELECT * FROM items",  // one statement per string
      "SELECT id FROM items WHERE id = 1 ORDER BY id LIMIT 2 2",
      "INSERT INTO items VALUES (300, 0, 1.0, 'x') garbage",
      "UPDATE items SET grp = 1 WHERE id = 1 nonsense",
      "DELETE FROM items WHERE id = 1 nonsense",
      "CREATE TABLE t_garbage (x INTEGER) trailing",
      "CREATE INDEX idx_g ON items (grp) WITH 2 THREADS extra",
      "DROP INDEX idx_g bar",
  };
  for (const char *stmt : bad) {
    auto result = ExecuteSql(&db_, stmt);
    ASSERT_FALSE(result.ok()) << stmt;
    // The error names the offending token and its offset.
    EXPECT_NE(result.status().ToString().find("trailing"), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("offset"), std::string::npos)
        << result.status().ToString();
  }
  // The rejected DDL must not have taken effect.
  EXPECT_FALSE(ExecuteSql(&db_, "SELECT * FROM t_garbage").ok());
  EXPECT_FALSE(ExecuteSql(&db_, "DROP INDEX idx_g").ok());
  // A trailing semicolon alone stays legal.
  EXPECT_TRUE(ExecuteSql(&db_, "SELECT * FROM items;").ok());
}

TEST_F(SqlTest, FailedIndexBuildPropagatesAndDropsTheIndex) {
  auto &fi = FaultInjector::Instance();
  fi.Reset();
  FaultSpec spec;
  spec.message = "injected index-build failure";
  fi.Arm(fault_point::kIndexBuild, spec);
  auto result = ExecuteSql(&db_, "CREATE INDEX idx_fail ON items (grp)");
  fi.Reset();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("index.build"), std::string::npos);
  // The half-built index is gone: point queries plan seq scans, DROP fails,
  // and a retry under the same name succeeds cleanly.
  auto bound = Parse(&db_, "SELECT * FROM items WHERE grp = 3");
  ASSERT_TRUE(bound.ok());
  const PlanNode *scan = bound.value().plan->children[0].get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  EXPECT_EQ(scan->type, PlanNodeType::kSeqScan);
  EXPECT_FALSE(ExecuteSql(&db_, "DROP INDEX idx_fail").ok());
  EXPECT_TRUE(ExecuteSql(&db_, "CREATE INDEX idx_fail ON items (grp)").ok());
  Batch out = Run("SELECT id FROM items WHERE grp = 3 AND id < 50");
  EXPECT_EQ(out.rows.size(), 10u);
}

TEST_F(SqlTest, QualifiedColumnsInJoin) {
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE other (id INTEGER, v INTEGER)").ok());
  ASSERT_TRUE(ExecuteSql(&db_, "INSERT INTO other VALUES (1, 10), (2, 20)").ok());
  Batch out = Run("SELECT items.id, other.v FROM items JOIN other "
                  "ON items.id = other.id WHERE other.v > 15");
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0][0].AsInt(), 2);
  EXPECT_EQ(out.rows[0][1].AsInt(), 20);
}

}  // namespace
}  // namespace mb2
