#include "plan/expression.h"

namespace mb2 {

Value Expression::Evaluate(const Tuple &row) const {
  switch (type) {
    case ExprType::kColumnRef:
      return row[col_idx];
    case ExprType::kConstant:
      return constant;
    case ExprType::kArithmetic: {
      const Value lhs = children[0]->Evaluate(row);
      const Value rhs = children[1]->Evaluate(row);
      if (lhs.type() == TypeId::kInteger && rhs.type() == TypeId::kInteger) {
        return Value::Integer(IntArith(arith_op, lhs.AsInt(), rhs.AsInt()));
      }
      return Value::Double(
          DoubleArith(arith_op, lhs.AsDouble(), rhs.AsDouble()));
    }
    case ExprType::kComparison: {
      const Value lhs = children[0]->Evaluate(row);
      const Value rhs = children[1]->Evaluate(row);
      return Value::Integer(ApplyCmp(cmp_op, lhs.Compare(rhs)) ? 1 : 0);
    }
    case ExprType::kLogic: {
      switch (logic_op) {
        case LogicOp::kAnd:
          // Short-circuit: skip the right side when the left is false.
          if (!children[0]->EvaluateBool(row)) return Value::Integer(0);
          return Value::Integer(children[1]->EvaluateBool(row) ? 1 : 0);
        case LogicOp::kOr:
          if (children[0]->EvaluateBool(row)) return Value::Integer(1);
          return Value::Integer(children[1]->EvaluateBool(row) ? 1 : 0);
        case LogicOp::kNot:
          return Value::Integer(children[0]->EvaluateBool(row) ? 0 : 1);
      }
      MB2_UNREACHABLE("bad logic op");
    }
  }
  MB2_UNREACHABLE("bad expression type");
}

uint32_t Expression::Complexity() const {
  uint32_t ops = type == ExprType::kColumnRef || type == ExprType::kConstant ? 0 : 1;
  for (const auto &child : children) ops += child->Complexity();
  return ops;
}

ExprPtr Expression::Clone() const {
  auto out = std::make_unique<Expression>(type);
  out->col_idx = col_idx;
  out->constant = constant;
  out->arith_op = arith_op;
  out->cmp_op = cmp_op;
  out->logic_op = logic_op;
  out->param_idx = param_idx;
  out->children.reserve(children.size());
  for (const auto &child : children) out->children.push_back(child->Clone());
  return out;
}

ExprPtr ColRef(uint32_t idx) {
  auto e = std::make_unique<Expression>(ExprType::kColumnRef);
  e->col_idx = idx;
  return e;
}

ExprPtr Const(Value v) {
  auto e = std::make_unique<Expression>(ExprType::kConstant);
  e->constant = std::move(v);
  return e;
}

ExprPtr ConstInt(int64_t v) { return Const(Value::Integer(v)); }
ExprPtr ConstDouble(double v) { return Const(Value::Double(v)); }

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expression>(ExprType::kArithmetic);
  e->arith_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expression>(ExprType::kComparison);
  e->cmp_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expression>(ExprType::kLogic);
  e->logic_op = LogicOp::kAnd;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expression>(ExprType::kLogic);
  e->logic_op = LogicOp::kOr;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr Not(ExprPtr child) {
  auto e = std::make_unique<Expression>(ExprType::kLogic);
  e->logic_op = LogicOp::kNot;
  e->children.push_back(std::move(child));
  return e;
}

}  // namespace mb2
