#pragma once

/// \file expression.h
/// Scalar expression trees (column refs, constants, arithmetic, comparisons,
/// boolean logic) used by filter predicates, projections, and update set
/// clauses. The recursive tree walk here is execution_mode = interpret and
/// the reference answer; the flattened program in exec/expr_program.h runs
/// the other two modes. All three apply the operator rules below, so every
/// mode returns the same Values, bit for bit.

#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/value.h"

namespace mb2 {

enum class ExprType : uint8_t { kColumnRef, kConstant, kArithmetic, kComparison, kLogic };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp : uint8_t { kAnd, kOr, kNot };

// Operator rules ---------------------------------------------------------------

/// int64 arithmetic. Overflow wraps in two's complement (computed unsigned,
/// so it is never undefined behaviour); x / 0 = 0 and INT64_MIN / -1 wraps to
/// INT64_MIN, so arithmetic never fails.
inline int64_t IntArith(ArithOp op, int64_t a, int64_t b) {
  const auto ua = static_cast<uint64_t>(a), ub = static_cast<uint64_t>(b);
  switch (op) {
    case ArithOp::kAdd: return static_cast<int64_t>(ua + ub);
    case ArithOp::kSub: return static_cast<int64_t>(ua - ub);
    case ArithOp::kMul: return static_cast<int64_t>(ua * ub);
    case ArithOp::kDiv:
      if (b == 0) return 0;
      return b == -1 ? static_cast<int64_t>(0 - ua) : a / b;
  }
  return 0;
}

/// Arithmetic once either operand is a DOUBLE (both as their double view);
/// x / 0 = 0.
inline double DoubleArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd: return a + b;
    case ArithOp::kSub: return a - b;
    case ArithOp::kMul: return a * b;
    case ArithOp::kDiv: return b == 0.0 ? 0.0 : a / b;
  }
  return 0.0;
}

/// Applies a comparison to a three-way result (ThreeWay, Value::Compare).
inline bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// Truthiness of a number from its double view: a nonzero int64 never
/// converts to 0.0, so one rule serves INTEGER and DOUBLE.
inline bool IsTrue(double number) { return number != 0.0; }

class Expression;
using ExprPtr = std::unique_ptr<Expression>;

class Expression {
 public:
  ExprType type;
  // kColumnRef
  uint32_t col_idx = 0;
  // kConstant
  Value constant;
  // op kinds
  ArithOp arith_op = ArithOp::kAdd;
  CmpOp cmp_op = CmpOp::kEq;
  LogicOp logic_op = LogicOp::kAnd;
  std::vector<ExprPtr> children;
  /// For kConstant built from a SQL literal: the literal's ordinal in the
  /// statement (see Token::literal_ordinal), -1 otherwise. The plan cache
  /// substitutes fresh literal values into cloned plan templates by ordinal.
  int32_t param_idx = -1;

  explicit Expression(ExprType t) : type(t) {}

  /// Recursive interpreter (per-tuple virtual-free but call-heavy path).
  Value Evaluate(const Tuple &row) const;

  /// Truthiness of the result (non-zero numeric). Predicates are normally
  /// comparisons/logic, but arbitrary numeric expressions also work.
  bool EvaluateBool(const Tuple &row) const {
    return IsTrue(Evaluate(row).AsDouble());
  }

  /// Number of operator applications — the ARITHMETIC OU's op_complexity
  /// feature.
  uint32_t Complexity() const;

  ExprPtr Clone() const;
};

// Builder helpers ------------------------------------------------------------
ExprPtr ColRef(uint32_t idx);
ExprPtr Const(Value v);
ExprPtr ConstInt(int64_t v);
ExprPtr ConstDouble(double v);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr child);

}  // namespace mb2
