// Vectorized-execution tests: mode 2 must return bit-identical results to
// the interpreter and the compiled engine for every query shape and any
// vector_batch_size, including the varchar fallback paths; plus unit
// coverage of the block driver's typed-lane promotion and div-by-zero
// semantics.

#include <gtest/gtest.h>

#include <cstring>

#include "database.h"
#include "exec/expr_program.h"
#include "sql/parser.h"

namespace mb2 {
namespace {

using sql::ExecuteSql;

bool ValuesBitIdentical(const Value &a, const Value &b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case TypeId::kInteger: return a.AsInt() == b.AsInt();
    case TypeId::kVarchar: return a.AsVarchar() == b.AsVarchar();
    case TypeId::kDouble: {
      const double da = a.AsDouble(), db = b.AsDouble();
      return std::memcmp(&da, &db, sizeof(da)) == 0;
    }
  }
  return false;
}

std::vector<const Tuple *> RowPointers(const std::vector<Tuple> &rows) {
  std::vector<const Tuple *> ptrs;
  for (const Tuple &row : rows) ptrs.push_back(&row);
  return ptrs;
}

// --- Typed-lane expression engine unit tests --------------------------------

TEST(VectorizedExpressionTest, MatchesInterpreterSemantics) {
  // Rows mix integer and double values in the same column positions, so the
  // per-lane promotion rules all get exercised: col0 arithmetic with an int
  // constant, col1 division including by zero, and a logic combination.
  std::vector<Tuple> rows = {
      {Value::Integer(10), Value::Integer(0)},
      {Value::Integer(-3), Value::Integer(4)},
      {Value::Double(2.5), Value::Integer(2)},
      {Value::Integer(7), Value::Double(0.0)},
      {Value::Double(-0.5), Value::Double(3.25)},
  };
  // (col0 * 3 + col1) / col1  — int lanes stay int (div-by-zero -> 0),
  // any double operand promotes the lane.
  ExprPtr expr = Arith(
      ArithOp::kDiv,
      Arith(ArithOp::kAdd, Arith(ArithOp::kMul, ColRef(0), ConstInt(3)),
            ColRef(1)),
      ColRef(1));
  const std::vector<const Tuple *> ptrs = RowPointers(rows);
  ExprProgram vec(*expr);
  ASSERT_TRUE(vec.Supported());
  ASSERT_TRUE(vec.EvaluateBlock(ptrs.data(), ptrs.size()));
  for (size_t i = 0; i < rows.size(); i++) {
    const Value expect = expr->Evaluate(rows[i]);
    EXPECT_TRUE(ValuesBitIdentical(vec.Lane(i).ToValue(), expect))
        << "row " << i << ": " << vec.Lane(i).ToValue().ToString() << " vs "
        << expect.ToString();
  }

  // Comparison + logic: (col0 >= 0 AND NOT col1 > 3) as the interpreter
  // computes it (comparisons yield Integer 0/1).
  ExprPtr pred = And(Cmp(CmpOp::kGe, ColRef(0), ConstInt(0)),
                     Not(Cmp(CmpOp::kGt, ColRef(1), ConstInt(3))));
  ExprProgram vpred(*pred);
  ASSERT_TRUE(vpred.EvaluateBlock(ptrs.data(), ptrs.size()));
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(vpred.Lane(i).IsTrue(), pred->EvaluateBool(rows[i])) << "row " << i;
    EXPECT_TRUE(
        ValuesBitIdentical(vpred.Lane(i).ToValue(), pred->Evaluate(rows[i])));
  }
}

TEST(VectorizedExpressionTest, VarcharConstantIsUnsupported) {
  ExprPtr expr = Cmp(CmpOp::kEq, ColRef(0), Const(Value::Varchar("x")));
  EXPECT_FALSE(ExprProgram(*expr).Supported());
  std::vector<Tuple> rows = {{Value::Varchar("x")}};
  std::vector<SlotId> slots;
  // The whole-filter entry point refuses (the caller runs the per-row
  // driver).
  EXPECT_FALSE(VectorizedFilter(*expr, 4, &rows, nullptr));
  EXPECT_EQ(rows.size(), 1u);  // untouched
}

TEST(VectorizedExpressionTest, VarcharColumnFallsBackPerBlock) {
  // A projection list mixing a varchar column with numeric math: the varchar
  // expression's blocks cannot vectorize, so those lanes must be answered by
  // the scalar path — with results identical to the interpreter's.
  std::vector<Tuple> rows;
  for (int i = 0; i < 20; i++) {
    rows.push_back({Value::Integer(i), Value::Varchar("s" + std::to_string(i))});
  }
  std::vector<ExprPtr> exprs;
  exprs.push_back(ColRef(1));  // varchar column: per-block scalar fallback
  exprs.push_back(Arith(ArithOp::kMul, ColRef(0), ConstInt(3)));
  std::vector<Tuple> got;
  ASSERT_TRUE(VectorizedProject(exprs, 3, rows, &got));
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_TRUE(ValuesBitIdentical(got[i][0], exprs[0]->Evaluate(rows[i])));
    EXPECT_TRUE(ValuesBitIdentical(got[i][1], exprs[1]->Evaluate(rows[i])));
  }
  // Filtering on the same rows through the numeric column still vectorizes.
  ExprPtr pred = Cmp(CmpOp::kLt, ColRef(0), ConstInt(7));
  ASSERT_TRUE(VectorizedFilter(*pred, 4, &rows, nullptr));
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows.back()[1].AsVarchar(), "s6");
}

// --- End-to-end mode matrix -------------------------------------------------

class VectorizedSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE items (id INTEGER, grp INTEGER,"
                                 " price DOUBLE, name VARCHAR(8))").ok());
    for (int i = 0; i < 120; i++) {
      char stmt[160];
      std::snprintf(stmt, sizeof(stmt),
                    "INSERT INTO items VALUES (%d, %d, %d.125, 'n%d')", i,
                    i % 6, i, i);
      ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
    }
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE grps (gid INTEGER,"
                                 " label VARCHAR(8))").ok());
    for (int g = 0; g < 6; g++) {
      char stmt[96];
      std::snprintf(stmt, sizeof(stmt), "INSERT INTO grps VALUES (%d, 'g%d')",
                    g, g);
      ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
    }
    // Integers beyond 2^53, where a double cannot hold every int64: a*b+c
    // is 2^53 + 2 on both rows, and the ids differ only in the last bit.
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE big (id INTEGER, a INTEGER,"
                                 " b INTEGER, c INTEGER)").ok());
    ASSERT_TRUE(ExecuteSql(&db_, "INSERT INTO big VALUES "
                                 "(9007199254740992, 3, 3002399751580331, 1), "
                                 "(9007199254740993, 3, 3002399751580331, 1)")
                    .ok());
    db_.estimator().RefreshStats();
    // Plan caching is orthogonal here; disable it so every run replans.
    ASSERT_TRUE(db_.settings().SetInt("sql_plan_cache_capacity", 0).ok());
  }

  Batch RunInMode(const std::string &statement, int64_t mode) {
    EXPECT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    auto result = ExecuteSql(&db_, statement);
    EXPECT_TRUE(result.ok()) << statement;
    if (!result.ok()) return {};
    EXPECT_TRUE(result.value().status.ok()) << statement;
    return std::move(result.value().batch);
  }

  void ExpectAllModesBitIdentical(const std::string &statement) {
    const Batch interpret = RunInMode(statement, 0);
    const Batch compiled = RunInMode(statement, 1);
    const Batch vectorized = RunInMode(statement, 2);
    ASSERT_EQ(vectorized.rows.size(), interpret.rows.size()) << statement;
    ASSERT_EQ(compiled.rows.size(), interpret.rows.size()) << statement;
    for (size_t r = 0; r < interpret.rows.size(); r++) {
      ASSERT_EQ(vectorized.rows[r].size(), interpret.rows[r].size());
      for (size_t c = 0; c < interpret.rows[r].size(); c++) {
        EXPECT_TRUE(
            ValuesBitIdentical(vectorized.rows[r][c], interpret.rows[r][c]))
            << statement << " row " << r << " col " << c;
        EXPECT_TRUE(
            ValuesBitIdentical(compiled.rows[r][c], interpret.rows[r][c]))
            << statement << " row " << r << " col " << c;
      }
    }
  }

  Database db_;
};

TEST_F(VectorizedSqlTest, AllModesBitIdenticalAcrossQueryShapes) {
  const char *queries[] = {
      "SELECT * FROM items WHERE id < 40 AND grp = 2",
      "SELECT id, price * 2 + 1, id / 7 FROM items WHERE price > 30.125",
      "SELECT id / 0 FROM items WHERE id < 5",  // int div-by-zero -> 0
      "SELECT grp, COUNT(*), SUM(price), MIN(id) FROM items GROUP BY grp "
      "ORDER BY 1",
      "SELECT id FROM items ORDER BY id DESC LIMIT 13",
      "SELECT name FROM items WHERE name = 'n42'",       // varchar fallback
      "SELECT id, name FROM items WHERE id = 17 OR id = 18",
      "SELECT * FROM items JOIN grps ON grp = gid WHERE label = 'g3' "
      "AND id < 60",
      "SELECT COUNT(*), AVG(price) FROM items WHERE id < 11",
      "SELECT id FROM big WHERE id = 9007199254740993",
      "SELECT SUM(a * b + c) FROM big",
      "SELECT id FROM big WHERE a * b + c > 9007199254740993",
      // int64 overflow wraps in two's complement in every mode:
      // INT64_MIN / -1, INT64_MAX + 1 and a product past 2^63.
      "SELECT (id - 9223372036854775807 - 1) / -1 FROM items WHERE id < 2",
      "SELECT id + 9223372036854775807 FROM items WHERE id < 3",
      "SELECT id, a * b * b FROM big WHERE a * b * b <> 0",
  };
  for (const char *q : queries) ExpectAllModesBitIdentical(q);
}

TEST_F(VectorizedSqlTest, BatchSizeDoesNotChangeResults) {
  const std::string q =
      "SELECT id, price * 0.5 FROM items WHERE grp = 1 AND price > 6.0";
  const Batch reference = RunInMode(q, 0);
  for (int64_t batch : {int64_t{1}, int64_t{3}, int64_t{64}, int64_t{100000}}) {
    ASSERT_TRUE(db_.settings().SetInt("vector_batch_size", batch).ok());
    const Batch vectorized = RunInMode(q, 2);
    ASSERT_EQ(vectorized.rows.size(), reference.rows.size()) << batch;
    for (size_t r = 0; r < reference.rows.size(); r++) {
      for (size_t c = 0; c < reference.rows[r].size(); c++) {
        EXPECT_TRUE(
            ValuesBitIdentical(vectorized.rows[r][c], reference.rows[r][c]))
            << "batch " << batch;
      }
    }
  }
}

TEST_F(VectorizedSqlTest, DmlRunsUnderVectorizedMode) {
  ASSERT_TRUE(db_.settings().SetInt("execution_mode", 2).ok());
  ASSERT_TRUE(ExecuteSql(&db_, "UPDATE items SET price = 0.0 WHERE grp = 4")
                  .ok());
  auto zeroed = ExecuteSql(&db_, "SELECT COUNT(*) FROM items WHERE "
                                 "price < 0.001");
  ASSERT_TRUE(zeroed.ok());
  EXPECT_EQ(zeroed.value().batch.rows[0][0].AsInt(), 20);
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM items WHERE id >= 100").ok());
  auto rest = ExecuteSql(&db_, "SELECT * FROM items");
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().batch.rows.size(), 100u);
}

}  // namespace
}  // namespace mb2
