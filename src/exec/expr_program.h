#pragma once

/// \file expr_program.h
/// The flattened expression program that execution modes 1 and 2 run. One
/// Flatten turns an Expression tree into postorder nodes (children before
/// parents), and two drivers evaluate them:
///   - the per-row driver (Run) walks the nodes once per row over Datums:
///     columns are read by reference, no inner node builds a Value, and
///     varchars are compared through pointers; over a batch (ForEach) it
///     requests the columns of a row a few ahead. It is execution_mode =
///     compiled, our stand-in for NoisePage's JIT (Sec 2/4.2's execution-mode
///     knob): no code generation, but a cheaper per-tuple path than the tree
///     walk, which the exec_mode OU feature must capture.
///   - the per-block driver (EvaluateBlock) evaluates each node for a block
///     of rows into contiguous typed lanes (an int64 array, a double array,
///     a per-lane typedness byte), so the common homogeneous case runs as
///     tight loops the compiler can vectorize. It is execution_mode =
///     vectorized. A block holding a varchar value or constant goes to the
///     per-row driver instead.
/// Both drivers apply the operator rules of plan/expression.h and keep int64
/// values as int64, so they return the tree walk's Values bit for bit. The
/// per-row driver short-circuits AND/OR as the tree walk does; the block
/// driver evaluates both sides, which cannot change a result because
/// expressions have no side effects.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "plan/expression.h"
#include "storage/version.h"

namespace mb2 {

/// One evaluated value as the drivers hold it: an INTEGER or DOUBLE number,
/// or a VARCHAR by pointer to its bytes (in the row or the program), so no
/// node result copies a string. Sixteen bytes, so the per-row driver's
/// scratch stays small.
struct Datum {
  TypeId type = TypeId::kInteger;
  union {
    int64_t i = 0;         ///< kInteger
    double d;              ///< kDouble
    const std::string *s;  ///< kVarchar
  };

  static Datum Int(int64_t v) {
    Datum out;
    out.i = v;
    return out;
  }
  static Datum Double(double v) {
    Datum out;
    out.type = TypeId::kDouble;
    out.d = v;
    return out;
  }
  static Datum Bool(bool b) { return Int(b ? 1 : 0); }
  static Datum Of(const Value &v) {
    switch (v.type()) {
      case TypeId::kInteger: return Int(v.AsInt());
      case TypeId::kDouble: return Double(v.AsDouble());
      case TypeId::kVarchar: {
        Datum out;
        out.type = TypeId::kVarchar;
        out.s = &v.AsVarchar();
        return out;
      }
    }
    MB2_UNREACHABLE("bad value type");
  }

  /// Value::AsDouble semantics: the double view of a number.
  double Number() const {
    if (type == TypeId::kInteger) return static_cast<double>(i);
    MB2_ASSERT(type == TypeId::kDouble, "not numeric");
    return d;
  }
  /// mb2::IsTrue of the double view; for an INTEGER, i != 0 is the same
  /// test without the conversion.
  bool IsTrue() const {
    return type == TypeId::kInteger ? i != 0 : mb2::IsTrue(Number());
  }
  Value ToValue() const {
    switch (type) {
      case TypeId::kInteger: return Value::Integer(i);
      case TypeId::kDouble: return Value::Double(d);
      case TypeId::kVarchar: return Value::Varchar(*s);
    }
    MB2_UNREACHABLE("bad datum type");
  }
};

class ExprProgram {
 public:
  explicit ExprProgram(const Expression &expr);
  // A varchar constant's Datum points into its node: move, never copy.
  MB2_DISALLOW_COPY(ExprProgram);
  ExprProgram(ExprProgram &&) = default;
  ExprProgram &operator=(ExprProgram &&) = default;

  /// False when the block driver can never take this program (it holds a
  /// varchar constant); every block then runs through the per-row driver.
  bool Supported() const { return supported_; }
  /// Supported() of the program `expr` flattens to, without flattening it.
  static bool BlockDriverTakes(const Expression &expr);

  /// Per-row driver. The result stays valid until the next call, and a
  /// varchar result points into `row` or into this program.
  const Datum &Run(const Tuple &row);

  /// Per-block driver: evaluates `n` rows referenced by pointer (rows of a
  /// batch, or tuples still sitting in MVCC version chains) into the root
  /// node's lanes. Returns false, leaving the lanes unspecified, when the
  /// block holds a varchar value or the program a varchar constant.
  bool EvaluateBlock(const Tuple *const *rows, size_t n);
  /// Root lane `l` after a successful EvaluateBlock.
  Datum Lane(size_t l) const {
    const Lanes &root = lanes_.back();
    return root.is_int[l] ? Datum::Int(root.ints[l])
                          : Datum::Double(root.dbls[l]);
  }

  /// Evaluates one block of `n` rows by pointer, calling emit(l, datum) for
  /// each row in order: the block driver when it can take the block, the
  /// per-row driver otherwise.
  template <typename Emit>
  void ForBlock(const Tuple *const *rows, size_t n, Emit &&emit) {
    if (EvaluateBlock(rows, n)) {
      for (size_t l = 0; l < n; l++) emit(l, Lane(l));
    } else {
      for (size_t l = 0; l < n; l++) emit(l, Run(*rows[l]));
    }
  }

  /// Evaluates every row of `rows`, calling emit(i, datum) in row order:
  /// the per-row driver when `block_rows` is 0, otherwise ForBlock over
  /// blocks of `block_rows`.
  template <typename Emit>
  void ForEach(const std::vector<Tuple> &rows, size_t block_rows, Emit &&emit) {
    if (block_rows == 0) {
      // A batch's rows sit anywhere on the heap. Requesting the columns of a
      // row a few ahead overlaps their cache misses with this row's work,
      // as the block driver's column loops do.
      constexpr size_t kPrefetchRows = 6;
      for (size_t i = 0; i < rows.size(); i++) {
        if (i + kPrefetchRows < rows.size()) {
          const Tuple &ahead = rows[i + kPrefetchRows];
          for (uint32_t c : columns_) __builtin_prefetch(&ahead[c]);
        }
        emit(i, Run(rows[i]));
      }
      return;
    }
    for (size_t begin = 0; begin < rows.size(); begin += block_rows) {
      const size_t n = std::min(block_rows, rows.size() - begin);
      ptrs_.resize(n);
      for (size_t l = 0; l < n; l++) ptrs_[l] = &rows[begin + l];
      ForBlock(ptrs_.data(), n,
               [&](size_t l, const Datum &d) { emit(begin + l, d); });
    }
  }

 private:
  /// One flattened node. Children precede parents, so a single forward pass
  /// over `nodes_` evaluates the tree and the root is the last node.
  struct Node {
    ExprType type;
    ArithOp arith_op = ArithOp::kAdd;
    CmpOp cmp_op = CmpOp::kEq;
    LogicOp logic_op = LogicOp::kAnd;
    uint32_t col_idx = 0;
    int32_t lhs = -1, rhs = -1;  // node indexes; kNot uses lhs only
    /// Set on the left child of an AND/OR: the per-row driver jumps to that
    /// parent, skipping the right side, when this node's truth equals
    /// `skip_if` (false for AND, true for OR).
    int32_t skip_to = -1;
    bool skip_if = false;
    Value constant;
  };

  /// Columnar result of one node over the current block. The double lanes
  /// always hold the value's double view; the int lanes are meaningful only
  /// where is_int says so.
  struct Lanes {
    std::vector<int64_t> ints;
    std::vector<double> dbls;
    std::vector<uint8_t> is_int;
    bool all_int = false;  ///< every lane integer: int fast loops apply
    bool has_int = false;  ///< no lane integer: pure double loops apply

    void Resize(size_t n) {
      ints.resize(n);
      dbls.resize(n);
      is_int.resize(n);
    }
  };

  int32_t Flatten(const Expression &expr);
  bool EvalNode(const Node &node, Lanes *out, const Tuple *const *rows,
                size_t n);

  std::vector<Node> nodes_;
  std::vector<uint32_t> columns_;  // distinct columns the program reads
  bool supported_;
  std::vector<Datum> datums_;        // per-row scratch, parallel to nodes_
  std::vector<Lanes> lanes_;         // per-block scratch, parallel to nodes_
  std::vector<const Tuple *> ptrs_;  // ForEach's block of row pointers
};

/// Applies `expr` as a filter over `rows` in blocks of `block_rows`,
/// compacting rows (and `slots`, when non-null) in place. Returns false —
/// with nothing modified — when the block driver can never take the
/// expression; the caller runs the per-row driver instead.
bool VectorizedFilter(const Expression &expr, size_t block_rows,
                      std::vector<Tuple> *rows, std::vector<SlotId> *slots);

/// Keeps the rows (and `slots`, when non-null) where `program` is true,
/// compacting in place; `block_rows` as in ExprProgram::ForEach.
void FilterRows(ExprProgram *program, size_t block_rows,
                std::vector<Tuple> *rows, std::vector<SlotId> *slots);

/// Evaluates the projection list over `in` in blocks of `block_rows`,
/// appending one output tuple per input row. Returns false — with `out`
/// untouched — when the block driver can never take some expression.
bool VectorizedProject(const std::vector<ExprPtr> &exprs, size_t block_rows,
                       const std::vector<Tuple> &in, std::vector<Tuple> *out);

}  // namespace mb2
