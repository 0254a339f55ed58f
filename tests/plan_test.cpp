// Plan-layer tests: expression evaluation (the tree walk vs both drivers of
// the flattened program as a property over random expressions), complexity
// counting, plan cloning and schema derivation, and the cardinality
// estimator.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "database.h"
#include "exec/expr_program.h"
#include "plan/cardinality_estimator.h"
#include "plan/expression.h"
#include "plan/plan_node.h"
#include "runner/ou_runner.h"

namespace mb2 {
namespace {

// --- Expression basics -------------------------------------------------------

TEST(ExpressionTest, ArithmeticIntAndDouble) {
  Tuple row = {Value::Integer(6), Value::Double(1.5)};
  EXPECT_EQ(Arith(ArithOp::kAdd, ColRef(0), ConstInt(4))->Evaluate(row).AsInt(), 10);
  EXPECT_EQ(Arith(ArithOp::kMul, ColRef(0), ConstInt(3))->Evaluate(row).AsInt(), 18);
  EXPECT_DOUBLE_EQ(
      Arith(ArithOp::kAdd, ColRef(0), ColRef(1))->Evaluate(row).AsDouble(), 7.5);
  // Integer division truncates; division by zero yields 0 (not UB).
  EXPECT_EQ(Arith(ArithOp::kDiv, ColRef(0), ConstInt(4))->Evaluate(row).AsInt(), 1);
  EXPECT_EQ(Arith(ArithOp::kDiv, ColRef(0), ConstInt(0))->Evaluate(row).AsInt(), 0);
}

TEST(ExpressionTest, ComparisonsAndLogic) {
  Tuple row = {Value::Integer(5)};
  EXPECT_EQ(Cmp(CmpOp::kLt, ColRef(0), ConstInt(6))->Evaluate(row).AsInt(), 1);
  EXPECT_EQ(Cmp(CmpOp::kGe, ColRef(0), ConstInt(6))->Evaluate(row).AsInt(), 0);
  EXPECT_EQ(And(Cmp(CmpOp::kGt, ColRef(0), ConstInt(0)),
                Cmp(CmpOp::kLt, ColRef(0), ConstInt(10)))
                ->Evaluate(row)
                .AsInt(),
            1);
  EXPECT_EQ(Not(Cmp(CmpOp::kEq, ColRef(0), ConstInt(5)))->Evaluate(row).AsInt(), 0);
  EXPECT_EQ(Or(Cmp(CmpOp::kEq, ColRef(0), ConstInt(1)),
               Cmp(CmpOp::kEq, ColRef(0), ConstInt(5)))
                ->Evaluate(row)
                .AsInt(),
            1);
}

TEST(ExpressionTest, VarcharEquality) {
  Tuple row = {Value::Varchar("alpha")};
  EXPECT_EQ(Cmp(CmpOp::kEq, ColRef(0), Const(Value::Varchar("alpha")))
                ->Evaluate(row).AsInt(), 1);
  EXPECT_EQ(Cmp(CmpOp::kLt, ColRef(0), Const(Value::Varchar("beta")))
                ->Evaluate(row).AsInt(), 1);
}

TEST(ExpressionTest, ComplexityCountsOperators) {
  EXPECT_EQ(ColRef(0)->Complexity(), 0u);
  EXPECT_EQ(Cmp(CmpOp::kEq, ColRef(0), ConstInt(1))->Complexity(), 1u);
  auto expr = And(Cmp(CmpOp::kGt, Arith(ArithOp::kMul, ColRef(0), ConstInt(2)),
                      ConstInt(4)),
                  Cmp(CmpOp::kLt, ColRef(1), ConstInt(9)));
  EXPECT_EQ(expr->Complexity(), 4u);  // and + gt + mul + lt
}

TEST(ExpressionTest, CloneIsDeepAndEquivalent) {
  auto expr = And(Cmp(CmpOp::kGt, ColRef(0), ConstInt(3)),
                  Cmp(CmpOp::kLe, Arith(ArithOp::kAdd, ColRef(1), ConstInt(1)),
                      ConstInt(10)));
  ExprPtr clone = expr->Clone();
  Tuple row = {Value::Integer(4), Value::Integer(9)};
  EXPECT_EQ(expr->Evaluate(row).AsInt(), clone->Evaluate(row).AsInt());
  // Mutating the clone leaves the original intact.
  clone->children[0]->cmp_op = CmpOp::kLt;
  EXPECT_NE(expr->Evaluate(row).AsInt(), clone->Evaluate(row).AsInt());
}

// --- Property test: both program drivers == the tree walk -------------------

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

/// An integer just above 2^53, where neighbouring int64 values share one
/// double: a driver that computes integers in doubles gets these wrong.
int64_t BigInt(Rng *rng) { return (int64_t{1} << 53) + rng->Uniform(-2, 2); }

ExprPtr RandomExpr(Rng *rng, uint32_t num_cols, int depth) {
  if (depth == 0 || rng->Uniform(0, 3) == 0) {
    if (rng->Uniform(0, 1) == 0) {
      return ColRef(static_cast<uint32_t>(rng->Uniform(0, num_cols - 1)));
    }
    switch (rng->Uniform(0, 2)) {
      case 0: return ConstInt(rng->Uniform(-20, 20));
      case 1: return ConstInt(BigInt(rng));
      default: return ConstDouble(rng->Uniform(-5.0, 5.0));
    }
  }
  switch (rng->Uniform(0, 2)) {
    case 0:
      return Arith(static_cast<ArithOp>(rng->Uniform(0, 3)),
                   RandomExpr(rng, num_cols, depth - 1),
                   RandomExpr(rng, num_cols, depth - 1));
    case 1:
      return Cmp(static_cast<CmpOp>(rng->Uniform(0, 5)),
                 RandomExpr(rng, num_cols, depth - 1),
                 RandomExpr(rng, num_cols, depth - 1));
    default: {
      const auto op = static_cast<LogicOp>(rng->Uniform(0, 2));
      auto lhs = Cmp(CmpOp::kGt, RandomExpr(rng, num_cols, depth - 1),
                     ConstInt(0));
      if (op == LogicOp::kNot) return Not(std::move(lhs));
      auto rhs = Cmp(CmpOp::kLt, RandomExpr(rng, num_cols, depth - 1),
                     ConstInt(5));
      auto e = std::make_unique<Expression>(ExprType::kLogic);
      e->logic_op = op;
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      return e;
    }
  }
}

class CompiledEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CompiledEquivalence, MatchesInterpreterOnRandomExpressions) {
  Rng rng(GetParam());
  constexpr uint32_t kCols = 4;
  for (int trial = 0; trial < 50; trial++) {
    ExprPtr expr = RandomExpr(&rng, kCols, 3);
    ExprProgram program(*expr);
    // Columns 0 and 2 are integers (column 2 often beyond 2^53), columns 1
    // and 3 doubles.
    std::vector<Tuple> rows(20);
    std::vector<const Tuple *> ptrs;
    for (Tuple &row : rows) {
      for (uint32_t c = 0; c < kCols; c++) {
        if (c % 2 == 1) {
          row.push_back(Value::Double(rng.Uniform(-3.0, 3.0)));
        } else if (c == 2 && rng.Uniform(0, 1) == 0) {
          row.push_back(Value::Integer(BigInt(&rng)));
        } else {
          row.push_back(Value::Integer(rng.Uniform(-10, 10)));
        }
      }
      ptrs.push_back(&row);
    }
    ASSERT_TRUE(program.EvaluateBlock(ptrs.data(), ptrs.size()));
    for (size_t i = 0; i < rows.size(); i++) {
      const Value expected = expr->Evaluate(rows[i]);
      ASSERT_TRUE(ValuesBitIdentical(expected, program.Run(rows[i]).ToValue()))
          << "per-row driver, trial " << trial << ": " << expected.ToString();
      ASSERT_TRUE(ValuesBitIdentical(expected, program.Lane(i).ToValue()))
          << "block driver, trial " << trial << ": " << expected.ToString();
      ASSERT_EQ(expr->EvaluateBool(rows[i]), program.Run(rows[i]).IsTrue());
      ASSERT_EQ(expr->EvaluateBool(rows[i]), program.Lane(i).IsTrue());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Plans -------------------------------------------------------------------

TEST(PlanTest, SchemaDerivationThroughJoinAndAgg) {
  Database db;
  MakeSyntheticTable(&db, "t", 100, 10, 1);
  auto build = std::make_unique<SeqScanPlan>();
  build->table = "t";
  build->columns = {0, 1};
  auto probe = std::make_unique<SeqScanPlan>();
  probe->table = "t";
  probe->columns = {0, 2, 3};
  auto join = std::make_unique<HashJoinPlan>();
  join->build_keys = {0};
  join->probe_keys = {0};
  join->children.push_back(std::move(build));
  join->children.push_back(std::move(probe));
  auto agg = std::make_unique<AggregatePlan>();
  agg->group_by = {1};
  agg->terms.push_back({AggFunc::kCount, nullptr});
  agg->terms.push_back({AggFunc::kSum, ColRef(3)});
  agg->children.push_back(std::move(join));
  PlanPtr plan = FinalizePlan(std::move(agg), db.catalog());
  EXPECT_EQ(plan->children[0]->children[0]->output_schema.NumColumns(), 5u);
  EXPECT_EQ(plan->output_schema.NumColumns(), 3u);  // group key + 2 aggs
  EXPECT_EQ(plan->output_schema.GetColumn(1).type, TypeId::kInteger);  // count
  EXPECT_EQ(plan->output_schema.GetColumn(2).type, TypeId::kDouble);   // sum
}

TEST(PlanTest, ClonePreservesStructureAndEstimates) {
  Database db;
  MakeSyntheticTable(&db, "t", 1000, 100, 1);
  db.estimator().RefreshStats();
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(100));
  auto sort = std::make_unique<SortPlan>();
  sort->sort_keys = {1};
  sort->descending = {true};
  sort->limit = 7;
  sort->children.push_back(std::move(scan));
  PlanPtr plan = FinalizePlan(std::move(sort), db.catalog());
  db.estimator().Estimate(plan.get());

  PlanPtr clone = ClonePlan(*plan);
  EXPECT_EQ(clone->type, PlanNodeType::kOutput);
  EXPECT_DOUBLE_EQ(clone->estimated_rows, plan->estimated_rows);
  const auto *cloned_sort = clone->children[0]->As<SortPlan>();
  EXPECT_EQ(cloned_sort->limit, 7u);
  EXPECT_EQ(cloned_sort->descending, std::vector<bool>{true});
  // Executing the clone works and matches the original.
  QueryResult a = db.Execute(*plan);
  QueryResult b = db.Execute(*clone);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.batch.rows.size(), b.batch.rows.size());
}

// --- Cardinality estimator ----------------------------------------------------

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeSyntheticTable(&db_, "t", 10000, 100, 5);
    db_.estimator().RefreshStats();
  }
  Database db_;
};

TEST_F(EstimatorTest, TableRowsNearTruth) {
  EXPECT_NEAR(db_.estimator().TableRows("t"), 10000.0, 500.0);
}

TEST_F(EstimatorTest, DistinctSaturatesForUniqueAndSmallDomains) {
  // Column 0 is unique; column 1 has ~100 distinct values.
  EXPECT_GT(db_.estimator().ColumnDistinct("t", 0), 9000.0);
  EXPECT_NEAR(db_.estimator().ColumnDistinct("t", 1), 100.0, 60.0);
}

TEST_F(EstimatorTest, EqualitySelectivityUsesDistinct) {
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->predicate = Cmp(CmpOp::kEq, ColRef(1), ConstInt(5));
  PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
  db_.estimator().Estimate(plan.get());
  // ~10000 / ~100 distinct = ~100.
  EXPECT_GT(plan->children[0]->estimated_rows, 20.0);
  EXPECT_LT(plan->children[0]->estimated_rows, 600.0);
}

TEST_F(EstimatorTest, RangeSelectivityInterpolatesMinMax) {
  // id is uniform over [0, 10000): `id < 2500` is ~25% selective.
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->predicate = Cmp(CmpOp::kLt, ColRef(0), ConstInt(2500));
  PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
  db_.estimator().Estimate(plan.get());
  EXPECT_NEAR(plan->children[0]->estimated_rows, 2500.0, 400.0);
}

TEST_F(EstimatorTest, RangeWithoutConstantFallsBackToThird) {
  // Column-vs-column range: no constant to interpolate against.
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->predicate = Cmp(CmpOp::kLt, ColRef(1), ColRef(2));
  PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
  db_.estimator().Estimate(plan.get());
  EXPECT_NEAR(plan->children[0]->estimated_rows, 10000.0 / 3.0, 500.0);
}

TEST_F(EstimatorTest, ConjunctionMultipliesSelectivities) {
  // Payload columns are uniform over [0, 100): each half-range predicate is
  // ~50% selective, so the conjunction is ~25%.
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  scan->predicate = And(Cmp(CmpOp::kLt, ColRef(1), ConstInt(50)),
                        Cmp(CmpOp::kGe, ColRef(2), ConstInt(50)));
  PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
  db_.estimator().Estimate(plan.get());
  EXPECT_NEAR(plan->children[0]->estimated_rows, 2500.0, 500.0);
}

TEST_F(EstimatorTest, NoiseInjectionPerturbsButStaysPositive) {
  db_.estimator().SetNoise(0.30, 7);
  double min_est = 1e18, max_est = 0.0;
  for (int i = 0; i < 50; i++) {
    auto scan = std::make_unique<SeqScanPlan>();
    scan->table = "t";
    PlanPtr plan = FinalizePlan(std::move(scan), db_.catalog());
    db_.estimator().Estimate(plan.get());
    min_est = std::min(min_est, plan->estimated_rows);
    max_est = std::max(max_est, plan->estimated_rows);
    EXPECT_GE(plan->estimated_rows, 1.0);
  }
  EXPECT_LT(min_est, 9000.0);   // noise pushed some estimates down
  EXPECT_GT(max_est, 11000.0);  // and some up
  db_.estimator().SetNoise(0.0);
}

}  // namespace
}  // namespace mb2
