#include "exec/expr_program.h"

namespace mb2 {

namespace {

/// The three-way comparison of Value::Compare, over Datums.
inline int CompareDatums(const Datum &a, const Datum &b) {
  if (a.type == TypeId::kInteger && b.type == TypeId::kInteger) {
    return ThreeWay(a.i, b.i);
  }
  if (a.type == TypeId::kVarchar || b.type == TypeId::kVarchar) {
    MB2_ASSERT(a.type == b.type, "varchar compared against numeric");
    return ThreeWay(*a.s, *b.s);
  }
  return ThreeWay(a.Number(), b.Number());
}

}  // namespace

ExprProgram::ExprProgram(const Expression &expr)
    : supported_(BlockDriverTakes(expr)) {
  Flatten(expr);
  // Constants never change, so the per-row driver finds them filled in.
  datums_.resize(nodes_.size());
  for (size_t k = 0; k < nodes_.size(); k++) {
    if (nodes_[k].type == ExprType::kConstant) {
      datums_[k] = Datum::Of(nodes_[k].constant);
    }
  }
}

bool ExprProgram::BlockDriverTakes(const Expression &expr) {
  if (expr.type == ExprType::kConstant &&
      expr.constant.type() == TypeId::kVarchar) {
    return false;
  }
  return std::all_of(expr.children.begin(), expr.children.end(),
                     [](const ExprPtr &c) { return BlockDriverTakes(*c); });
}

int32_t ExprProgram::Flatten(const Expression &expr) {
  Node node;
  node.type = expr.type;
  node.arith_op = expr.arith_op;
  node.cmp_op = expr.cmp_op;
  node.logic_op = expr.logic_op;
  node.col_idx = expr.col_idx;
  if (expr.type == ExprType::kColumnRef &&
      std::find(columns_.begin(), columns_.end(), expr.col_idx) ==
          columns_.end()) {
    columns_.push_back(expr.col_idx);
  }
  if (expr.type == ExprType::kConstant) node.constant = expr.constant;
  if (!expr.children.empty()) node.lhs = Flatten(*expr.children[0]);
  if (expr.children.size() > 1) node.rhs = Flatten(*expr.children[1]);
  const auto self = static_cast<int32_t>(nodes_.size());
  if (expr.type == ExprType::kLogic && expr.logic_op != LogicOp::kNot) {
    nodes_[node.lhs].skip_to = self;
    nodes_[node.lhs].skip_if = expr.logic_op == LogicOp::kOr;
  }
  nodes_.push_back(std::move(node));
  return self;
}

const Datum &ExprProgram::Run(const Tuple &row) {
  Datum *out = datums_.data();
  for (size_t k = 0; k < nodes_.size(); k++) {
    const Node &node = nodes_[k];
    switch (node.type) {
      case ExprType::kColumnRef:
        out[k] = Datum::Of(row[node.col_idx]);
        break;
      case ExprType::kConstant:
        break;
      case ExprType::kArithmetic: {
        const Datum &a = out[node.lhs];
        const Datum &b = out[node.rhs];
        out[k] = a.type == TypeId::kInteger && b.type == TypeId::kInteger
                     ? Datum::Int(IntArith(node.arith_op, a.i, b.i))
                     : Datum::Double(DoubleArith(node.arith_op, a.Number(),
                                                 b.Number()));
        break;
      }
      case ExprType::kComparison:
        out[k] = Datum::Bool(
            ApplyCmp(node.cmp_op, CompareDatums(out[node.lhs], out[node.rhs])));
        break;
      case ExprType::kLogic:
        switch (node.logic_op) {
          case LogicOp::kAnd:
            out[k] = Datum::Bool(out[node.lhs].IsTrue() &&
                                 out[node.rhs].IsTrue());
            break;
          case LogicOp::kOr:
            out[k] = Datum::Bool(out[node.lhs].IsTrue() ||
                                 out[node.rhs].IsTrue());
            break;
          case LogicOp::kNot:
            out[k] = Datum::Bool(!out[node.lhs].IsTrue());
            break;
        }
        break;
    }
    // A left side that decides its AND/OR jumps there, skipping the right
    // side; the parent may in turn decide its own parent.
    while (nodes_[k].skip_to >= 0 && out[k].IsTrue() == nodes_[k].skip_if) {
      const bool decided = nodes_[k].skip_if;
      k = static_cast<size_t>(nodes_[k].skip_to);
      out[k] = Datum::Bool(decided);
    }
  }
  return out[nodes_.size() - 1];
}

bool ExprProgram::EvaluateBlock(const Tuple *const *rows, size_t n) {
  if (!supported_) return false;
  lanes_.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); i++) {
    if (!EvalNode(nodes_[i], &lanes_[i], rows, n)) return false;
  }
  return true;
}

bool ExprProgram::EvalNode(const Node &node, Lanes *out,
                           const Tuple *const *rows, size_t n) {
  out->Resize(n);
  switch (node.type) {
    case ExprType::kColumnRef: {
      bool all_int = true, has_int = false;
      for (size_t l = 0; l < n; l++) {
        const Value &v = (*rows[l])[node.col_idx];
        if (v.type() == TypeId::kVarchar) return false;
        if (v.type() == TypeId::kInteger) {
          out->ints[l] = v.AsInt();
          out->dbls[l] = static_cast<double>(out->ints[l]);
          out->is_int[l] = 1;
          has_int = true;
        } else {
          out->dbls[l] = v.AsDouble();
          out->is_int[l] = 0;
          all_int = false;
        }
      }
      out->all_int = all_int && n > 0;
      out->has_int = has_int;
      return true;
    }
    case ExprType::kConstant: {
      const bool is_int = node.constant.type() == TypeId::kInteger;
      std::fill(out->ints.begin(), out->ints.end(),
                is_int ? node.constant.AsInt() : 0);
      std::fill(out->dbls.begin(), out->dbls.end(), node.constant.AsDouble());
      std::fill(out->is_int.begin(), out->is_int.end(),
                is_int ? uint8_t{1} : uint8_t{0});
      out->all_int = is_int && n > 0;
      out->has_int = is_int;
      return true;
    }
    case ExprType::kArithmetic: {
      const Lanes &a = lanes_[node.lhs];
      const Lanes &b = lanes_[node.rhs];
      if (a.all_int && b.all_int) {
        for (size_t l = 0; l < n; l++) {
          const int64_t r = IntArith(node.arith_op, a.ints[l], b.ints[l]);
          out->ints[l] = r;
          out->dbls[l] = static_cast<double>(r);
        }
        std::fill(out->is_int.begin(), out->is_int.end(), uint8_t{1});
        out->all_int = n > 0;
        out->has_int = n > 0;
      } else if (!a.has_int || !b.has_int) {
        // No lane pair can be int×int: pure double loop.
        for (size_t l = 0; l < n; l++) {
          out->dbls[l] = DoubleArith(node.arith_op, a.dbls[l], b.dbls[l]);
        }
        std::fill(out->is_int.begin(), out->is_int.end(), uint8_t{0});
        out->all_int = false;
        out->has_int = false;
      } else {
        bool all_int = true, has_int = false;
        for (size_t l = 0; l < n; l++) {
          if (a.is_int[l] && b.is_int[l]) {
            out->ints[l] = IntArith(node.arith_op, a.ints[l], b.ints[l]);
            out->dbls[l] = static_cast<double>(out->ints[l]);
            out->is_int[l] = 1;
            has_int = true;
          } else {
            out->dbls[l] = DoubleArith(node.arith_op, a.dbls[l], b.dbls[l]);
            out->is_int[l] = 0;
            all_int = false;
          }
        }
        out->all_int = all_int && n > 0;
        out->has_int = has_int;
      }
      return true;
    }
    case ExprType::kComparison: {
      const Lanes &a = lanes_[node.lhs];
      const Lanes &b = lanes_[node.rhs];
      if (a.all_int && b.all_int) {
        for (size_t l = 0; l < n; l++) {
          out->ints[l] = ApplyCmp(node.cmp_op, ThreeWay(a.ints[l], b.ints[l]))
                             ? 1
                             : 0;
        }
      } else if (!a.has_int || !b.has_int) {
        for (size_t l = 0; l < n; l++) {
          out->ints[l] = ApplyCmp(node.cmp_op, ThreeWay(a.dbls[l], b.dbls[l]))
                             ? 1
                             : 0;
        }
      } else {
        for (size_t l = 0; l < n; l++) {
          const int c = a.is_int[l] && b.is_int[l]
                            ? ThreeWay(a.ints[l], b.ints[l])
                            : ThreeWay(a.dbls[l], b.dbls[l]);
          out->ints[l] = ApplyCmp(node.cmp_op, c) ? 1 : 0;
        }
      }
      for (size_t l = 0; l < n; l++) {
        out->dbls[l] = static_cast<double>(out->ints[l]);
      }
      std::fill(out->is_int.begin(), out->is_int.end(), uint8_t{1});
      out->all_int = n > 0;
      out->has_int = n > 0;
      return true;
    }
    case ExprType::kLogic: {
      // The double lanes hold each operand's double view, which IsTrue
      // decides for INTEGER and DOUBLE alike.
      const Lanes &a = lanes_[node.lhs];
      switch (node.logic_op) {
        case LogicOp::kAnd: {
          const Lanes &b = lanes_[node.rhs];
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = IsTrue(a.dbls[l]) & IsTrue(b.dbls[l]) ? 1 : 0;
          }
          break;
        }
        case LogicOp::kOr: {
          const Lanes &b = lanes_[node.rhs];
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = IsTrue(a.dbls[l]) | IsTrue(b.dbls[l]) ? 1 : 0;
          }
          break;
        }
        case LogicOp::kNot:
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = IsTrue(a.dbls[l]) ? 0 : 1;
          }
          break;
      }
      for (size_t l = 0; l < n; l++) {
        out->dbls[l] = static_cast<double>(out->ints[l]);
      }
      std::fill(out->is_int.begin(), out->is_int.end(), uint8_t{1});
      out->all_int = n > 0;
      out->has_int = n > 0;
      return true;
    }
  }
  return false;
}

void FilterRows(ExprProgram *program, size_t block_rows,
                std::vector<Tuple> *rows, std::vector<SlotId> *slots) {
  // Rows move down only after their block is evaluated, so the pointers
  // ForEach holds into the rest of the block stay valid.
  size_t kept = 0;
  program->ForEach(*rows, block_rows, [&](size_t i, const Datum &d) {
    if (!d.IsTrue()) return;
    if (kept != i) {
      (*rows)[kept] = std::move((*rows)[i]);
      if (slots != nullptr) (*slots)[kept] = (*slots)[i];
    }
    kept++;
  });
  rows->resize(kept);
  if (slots != nullptr) slots->resize(kept);
}

bool VectorizedFilter(const Expression &expr, size_t block_rows,
                      std::vector<Tuple> *rows, std::vector<SlotId> *slots) {
  ExprProgram program(expr);
  if (!program.Supported()) return false;
  FilterRows(&program, std::max<size_t>(block_rows, 1), rows, slots);
  return true;
}

bool VectorizedProject(const std::vector<ExprPtr> &exprs, size_t block_rows,
                       const std::vector<Tuple> &in, std::vector<Tuple> *out) {
  std::vector<ExprProgram> programs;
  programs.reserve(exprs.size());
  for (const auto &e : exprs) {
    programs.emplace_back(*e);
    if (!programs.back().Supported()) return false;
  }
  if (block_rows == 0) block_rows = 1;
  out->reserve(out->size() + in.size());
  std::vector<const Tuple *> ptrs;
  for (size_t begin = 0; begin < in.size(); begin += block_rows) {
    const size_t n = std::min(block_rows, in.size() - begin);
    ptrs.resize(n);
    for (size_t l = 0; l < n; l++) {
      ptrs[l] = &in[begin + l];
      Tuple row;
      row.reserve(exprs.size());
      out->push_back(std::move(row));
    }
    Tuple *block_out = out->data() + out->size() - n;
    for (ExprProgram &program : programs) {
      program.ForBlock(ptrs.data(), n, [&](size_t l, const Datum &d) {
        block_out[l].push_back(d.ToValue());
      });
    }
  }
  return true;
}

}  // namespace mb2
