#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <optional>
#include <vector>

#include "ctrl/workload_stream.h"
#include "index/index_builder.h"
#include "plan/cost_optimizer.h"
#include "selfdriving/action.h"
#include "sql/lexer.h"
#include "sql/plan_cache.h"

namespace mb2::sql {

namespace {

std::string ToLower(std::string s) {
  for (auto &c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Recursive-descent parser with an embedded binder: column names resolve
/// against the FROM tables as parsing proceeds.
class Parser {
 public:
  Parser(Database *db, std::vector<Token> tokens)
      : db_(db), tokens_(std::move(tokens)) {}

  Result<BoundStatement> ParseStatement() {
    Result<BoundStatement> result = Dispatch();
    if (!result.ok()) return result;
    // Every statement kind must consume the whole token stream: trailing
    // garbage after a complete statement is an error, not a silent no-op.
    AcceptSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return Error("trailing tokens after statement");
    }
    size_t num_literals = 0;
    for (const Token &t : tokens_) num_literals += t.literal_ordinal >= 0;
    result.value().num_literals = num_literals;
    return result;
  }

 private:
  Result<BoundStatement> Dispatch() {
    if (AcceptKeyword("SELECT")) return ParseSelect();
    if (AcceptKeyword("INSERT")) return ParseInsert();
    if (AcceptKeyword("UPDATE")) return ParseUpdate();
    if (AcceptKeyword("DELETE")) return ParseDelete();
    if (AcceptKeyword("CREATE")) return ParseCreate();
    if (AcceptKeyword("DROP")) return ParseDrop();
    return Error("expected a statement keyword");
  }

  // --- token helpers ------------------------------------------------------

  const Token &Peek() const { return tokens_[pos_]; }
  const Token &Next() { return tokens_[pos_++]; }

  bool AcceptKeyword(const std::string &kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      pos_++;
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const std::string &sym) {
    if (Peek().type == TokenType::kSymbol && Peek().text == sym) {
      pos_++;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string &kw) {
    if (!AcceptKeyword(kw)) return ErrorStatus("expected " + kw);
    return Status::Ok();
  }

  Status ExpectSymbol(const std::string &sym) {
    if (!AcceptSymbol(sym)) return ErrorStatus("expected '" + sym + "'");
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorStatus("expected identifier");
    }
    return Next().text;
  }

  Status ErrorStatus(const std::string &message) const {
    return Status::InvalidArgument(message + " near offset " +
                                   std::to_string(Peek().position) +
                                   (Peek().text.empty() ? "" : " ('" +
                                    Peek().text + "')"));
  }

  Result<BoundStatement> Error(const std::string &message) const {
    return ErrorStatus(message);
  }

  // --- binding context ----------------------------------------------------

  struct FromTable {
    std::string name;
    Table *table = nullptr;
    uint32_t column_offset = 0;  // in the joined row
  };

  /// Resolves [table.]column to an index in the joined row.
  Result<uint32_t> ResolveColumn(const std::string &first) {
    std::string table_name, column_name = first;
    if (AcceptSymbol(".")) {
      table_name = first;
      auto col = ExpectIdentifier();
      if (!col.ok()) return col.status();
      column_name = col.value();
    }
    for (const FromTable &ft : from_) {
      if (!table_name.empty() && ft.name != table_name) continue;
      const int32_t idx = ft.table->schema().ColumnIndex(column_name);
      if (idx >= 0) return ft.column_offset + static_cast<uint32_t>(idx);
    }
    return ErrorStatus("unknown column '" + column_name + "'");
  }

  /// Column index relative to a single table (UPDATE SET targets).
  Result<uint32_t> ResolveBaseColumn(Table *table, const std::string &name) {
    const int32_t idx = table->schema().ColumnIndex(name);
    if (idx < 0) return ErrorStatus("unknown column '" + name + "'");
    return static_cast<uint32_t>(idx);
  }

  // --- static types ---------------------------------------------------------
  // A bound expression is a VARCHAR (a VARCHAR column or a string literal)
  // or a number (anything else; INTEGER and DOUBLE mix freely at run time).
  // Each operator checks its operands as it is built: arithmetic, logic and
  // SUM/AVG/MIN/MAX take numbers, a comparison takes two numbers or two
  // VARCHARs. So an ill-typed statement fails here with InvalidArgument and
  // never reaches the engine, whose Value accessors assert on a mismatch.
  // The checks read only literal types and the catalog, and the plan cache
  // keys both, so a cached plan never needs a second check.

  bool IsVarchar(const Expression &e) const {
    if (e.type == ExprType::kConstant) {
      return e.constant.type() == TypeId::kVarchar;
    }
    return e.type == ExprType::kColumnRef &&
           ColumnType(e.col_idx) == TypeId::kVarchar;
  }

  /// Declared type of joined-row column `col`.
  TypeId ColumnType(uint32_t col) const {
    const FromTable &ft = from_[TableOf(col)];
    return ft.table->schema().GetColumn(col - ft.column_offset).type;
  }

  /// InvalidArgument naming the token at index `at` (an operator or clause).
  Status TypeError(size_t at, const std::string &message) const {
    return Status::InvalidArgument("'" + tokens_[at].text + "' " + message +
                                   " at offset " +
                                   std::to_string(tokens_[at].position));
  }

  /// Fails unless `lhs` (and `rhs`, when given) are numbers.
  Status ExpectNumbers(size_t at, const Expression &lhs,
                       const Expression *rhs = nullptr) const {
    if (IsVarchar(lhs) || (rhs != nullptr && IsVarchar(*rhs))) {
      return TypeError(at, "takes numbers, not VARCHAR");
    }
    return Status::Ok();
  }

  // --- expressions ----------------------------------------------------------

  Result<ExprPtr> ParseExpression() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    for (size_t at = pos_; AcceptKeyword("OR"); at = pos_) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      Status s = ExpectNumbers(at, *lhs.value(), rhs.value().get());
      if (!s.ok()) return s;
      lhs = Or(std::move(lhs.value()), std::move(rhs.value()));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    for (size_t at = pos_; AcceptKeyword("AND"); at = pos_) {
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs;
      Status s = ExpectNumbers(at, *lhs.value(), rhs.value().get());
      if (!s.ok()) return s;
      lhs = And(std::move(lhs.value()), std::move(rhs.value()));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    const size_t at = pos_;
    if (AcceptKeyword("NOT")) {
      auto child = ParseNot();
      if (!child.ok()) return child;
      Status s = ExpectNumbers(at, *child.value());
      if (!s.ok()) return s;
      return Not(std::move(child.value()));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    static const std::pair<const char *, CmpOp> kOps[] = {
        {"<=", CmpOp::kLe}, {">=", CmpOp::kGe}, {"<>", CmpOp::kNe},
        {"!=", CmpOp::kNe}, {"=", CmpOp::kEq},  {"<", CmpOp::kLt},
        {">", CmpOp::kGt}};
    const size_t at = pos_;
    for (const auto &[sym, op] : kOps) {
      if (AcceptSymbol(sym)) {
        auto rhs = ParseAdditive();
        if (!rhs.ok()) return rhs;
        if (IsVarchar(*lhs.value()) != IsVarchar(*rhs.value())) {
          return TypeError(at, "compares a VARCHAR with a number");
        }
        return Cmp(op, std::move(lhs.value()), std::move(rhs.value()));
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    return ParseArithmetic(&Parser::ParseMultiplicative, "+", ArithOp::kAdd,
                           "-", ArithOp::kSub);
  }

  Result<ExprPtr> ParseMultiplicative() {
    return ParseArithmetic(&Parser::ParsePrimary, "*", ArithOp::kMul, "/",
                           ArithOp::kDiv);
  }

  /// One left-associative level of binary arithmetic over `operand`.
  Result<ExprPtr> ParseArithmetic(Result<ExprPtr> (Parser::*operand)(),
                                  const char *sym1, ArithOp op1,
                                  const char *sym2, ArithOp op2) {
    auto lhs = (this->*operand)();
    if (!lhs.ok()) return lhs;
    for (size_t at = pos_;; at = pos_) {
      ArithOp op;
      if (AcceptSymbol(sym1)) {
        op = op1;
      } else if (AcceptSymbol(sym2)) {
        op = op2;
      } else {
        return lhs;
      }
      auto rhs = (this->*operand)();
      if (!rhs.ok()) return rhs;
      Status s = ExpectNumbers(at, *lhs.value(), rhs.value().get());
      if (!s.ok()) return s;
      lhs = Arith(op, std::move(lhs.value()), std::move(rhs.value()));
    }
  }

  Result<ExprPtr> ParsePrimary() {
    if (AcceptSymbol("(")) {
      auto inner = ParseExpression();
      if (!inner.ok()) return inner;
      Status s = ExpectSymbol(")");
      if (!s.ok()) return s;
      return inner;
    }
    const size_t at = pos_;
    if (AcceptSymbol("-")) {
      auto child = ParsePrimary();
      if (!child.ok()) return child;
      Status s = ExpectNumbers(at, *child.value());
      if (!s.ok()) return s;
      return Arith(ArithOp::kSub, ConstInt(0), std::move(child.value()));
    }
    const Token &t = Peek();
    if (t.type == TokenType::kInteger) {
      pos_++;
      ExprPtr e = ConstInt(t.int_value);
      e->param_idx = t.literal_ordinal;
      return e;
    }
    if (t.type == TokenType::kFloat) {
      pos_++;
      ExprPtr e = ConstDouble(t.float_value);
      e->param_idx = t.literal_ordinal;
      return e;
    }
    if (t.type == TokenType::kString) {
      pos_++;
      ExprPtr e = Const(Value::Varchar(t.text));
      e->param_idx = t.literal_ordinal;
      return e;
    }
    if (t.type == TokenType::kIdentifier) {
      pos_++;
      auto col = ResolveColumn(t.text);
      if (!col.ok()) return col.status();
      return ColRef(col.value());
    }
    return ErrorStatus("expected an expression");
  }

  // --- predicate utilities ---------------------------------------------------

  /// An optional WHERE clause, split into AND-ed conjuncts. The predicate's
  /// truth is a number, so a VARCHAR predicate is a type error.
  Status ParseWhere(std::vector<ExprPtr> *conjuncts) {
    const size_t at = pos_;
    if (!AcceptKeyword("WHERE")) return Status::Ok();
    auto predicate = ParseExpression();
    if (!predicate.ok()) return predicate.status();
    Status s = ExpectNumbers(at, *predicate.value());
    if (!s.ok()) return s;
    SplitConjuncts(std::move(predicate.value()), conjuncts);
    return Status::Ok();
  }

  /// Splits a predicate into AND-ed conjuncts (consumes the expression).
  static void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr> *out) {
    if (expr->type == ExprType::kLogic && expr->logic_op == LogicOp::kAnd) {
      SplitConjuncts(std::move(expr->children[0]), out);
      SplitConjuncts(std::move(expr->children[1]), out);
      return;
    }
    out->push_back(std::move(expr));
  }

  /// Column-reference range of an expression, as [min_idx, max_idx].
  static void ColumnRange(const Expression &expr, uint32_t *lo, uint32_t *hi) {
    if (expr.type == ExprType::kColumnRef) {
      *lo = std::min(*lo, expr.col_idx);
      *hi = std::max(*hi, expr.col_idx);
    }
    for (const auto &child : expr.children) ColumnRange(*child, lo, hi);
  }

  /// Rebases every column reference by subtracting `offset`.
  static void RebaseColumns(Expression *expr, uint32_t offset) {
    if (expr->type == ExprType::kColumnRef) expr->col_idx -= offset;
    for (auto &child : expr->children) RebaseColumns(child.get(), offset);
  }

  // --- SELECT --------------------------------------------------------------------

  struct SelectItem {
    enum class Kind { kStar, kColumn, kAggregate, kExpr };
    Kind kind = Kind::kColumn;
    ExprPtr expr;       // kColumn (ColRef) / kExpr / aggregate argument
    AggFunc agg_func = AggFunc::kCount;
  };

  Result<BoundStatement> ParseSelect() {
    // FROM clause is parsed first logically; scan ahead to bind columns.
    // Practical approach: remember the select-list token range, parse FROM,
    // then re-parse the select list with the binding context in place.
    const size_t select_start = pos_;
    int depth = 0;
    while (!(depth == 0 && Peek().type == TokenType::kKeyword &&
             Peek().text == "FROM")) {
      if (Peek().type == TokenType::kEnd) return Error("expected FROM");
      if (Peek().type == TokenType::kSymbol && Peek().text == "(") depth++;
      if (Peek().type == TokenType::kSymbol && Peek().text == ")") depth--;
      pos_++;
    }
    const size_t select_end = pos_;
    pos_++;  // FROM

    // FROM table [JOIN table ON a = b]...
    auto first = ExpectIdentifier();
    if (!first.ok()) return first.status();
    Status s = AddFromTable(first.value());
    if (!s.ok()) return s;

    std::vector<CostOptimizer::JoinEdge> edges;
    while (AcceptKeyword("JOIN") ||
           (AcceptKeyword("INNER") && AcceptKeyword("JOIN"))) {
      auto table = ExpectIdentifier();
      if (!table.ok()) return table.status();
      s = AddFromTable(table.value());
      if (!s.ok()) return s;
      s = ExpectKeyword("ON");
      if (!s.ok()) return s;
      auto lhs = ExpectIdentifier();
      if (!lhs.ok()) return lhs.status();
      auto lcol = ResolveColumn(lhs.value());
      if (!lcol.ok()) return lcol.status();
      const size_t eq_at = pos_;
      s = ExpectSymbol("=");
      if (!s.ok()) return s;
      auto rhs = ExpectIdentifier();
      if (!rhs.ok()) return rhs.status();
      auto rcol = ResolveColumn(rhs.value());
      if (!rcol.ok()) return rcol.status();
      if ((ColumnType(lcol.value()) == TypeId::kVarchar) !=
          (ColumnType(rcol.value()) == TypeId::kVarchar)) {
        return TypeError(eq_at, "compares a VARCHAR with a number");
      }
      const int o1 = TableOf(lcol.value());
      const int o2 = TableOf(rcol.value());
      if (o1 < 0 || o2 < 0 || o1 == o2) {
        return Error("ON clause must join two different tables");
      }
      const size_t lo_t = static_cast<size_t>(std::min(o1, o2));
      const size_t hi_t = static_cast<size_t>(std::max(o1, o2));
      const uint32_t lo_g = o1 < o2 ? lcol.value() : rcol.value();
      const uint32_t hi_g = o1 < o2 ? rcol.value() : lcol.value();
      edges.push_back({lo_t, lo_g - from_[lo_t].column_offset, hi_t,
                       hi_g - from_[hi_t].column_offset});
    }

    // WHERE, split into per-table conjuncts (pushdown).
    std::vector<std::vector<ExprPtr>> per_table(from_.size());
    std::vector<ExprPtr> conjuncts;
    s = ParseWhere(&conjuncts);
    if (!s.ok()) return s;
    for (auto &conjunct : conjuncts) {
      uint32_t lo = UINT32_MAX, hi = 0;
      ColumnRange(*conjunct, &lo, &hi);
      if (lo == UINT32_MAX) {
        per_table[0].push_back(std::move(conjunct));  // constant predicate
        continue;
      }
      const int owner = TableOf(lo);
      if (owner < 0 || owner != TableOf(hi)) {
        return Error("WHERE conjuncts must reference a single table "
                     "(join conditions go in ON)");
      }
      RebaseColumns(conjunct.get(), from_[owner].column_offset);
      per_table[owner].push_back(std::move(conjunct));
    }

    // Access paths and join order are the optimizer's call (heuristic or
    // model-costed per the optimizer_mode knob); either way the returned
    // tree's column layout matches the written table order.
    std::vector<CostOptimizer::TableRef> refs;
    refs.reserve(from_.size());
    for (size_t i = 0; i < from_.size(); i++) {
      refs.push_back({from_[i].table, std::move(per_table[i])});
    }
    auto tree = db_->optimizer().PlanJoinTree(std::move(refs), edges);
    if (!tree.ok()) return tree.status();
    PlanPtr root = std::move(tree.value());

    // Re-parse the select list with bindings available.
    const size_t resume = pos_;
    pos_ = select_start;
    std::vector<SelectItem> items;
    bool has_aggregate = false;
    for (;;) {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.kind = SelectItem::Kind::kStar;
      } else if (Peek().type == TokenType::kKeyword &&
                 (Peek().text == "COUNT" || Peek().text == "SUM" ||
                  Peek().text == "AVG" || Peek().text == "MIN" ||
                  Peek().text == "MAX")) {
        const size_t fn_at = pos_;
        const std::string fn = Next().text;
        item.kind = SelectItem::Kind::kAggregate;
        item.agg_func = fn == "COUNT" ? AggFunc::kCount
                        : fn == "SUM" ? AggFunc::kSum
                        : fn == "AVG" ? AggFunc::kAvg
                        : fn == "MIN" ? AggFunc::kMin
                                      : AggFunc::kMax;
        Status st = ExpectSymbol("(");
        if (!st.ok()) return st;
        if (AcceptSymbol("*")) {
          item.expr = nullptr;  // COUNT(*)
        } else {
          auto arg = ParseExpression();
          if (!arg.ok()) return arg.status();
          // The engine has no NULLs, so COUNT(x) of any type counts rows:
          // it binds as COUNT(*). The other aggregates take numbers.
          if (item.agg_func != AggFunc::kCount) {
            st = ExpectNumbers(fn_at, *arg.value());
            if (!st.ok()) return st;
            item.expr = std::move(arg.value());
          }
        }
        st = ExpectSymbol(")");
        if (!st.ok()) return st;
        has_aggregate = true;
      } else {
        auto expr = ParseExpression();
        if (!expr.ok()) return expr.status();
        item.kind = expr.value()->type == ExprType::kColumnRef
                        ? SelectItem::Kind::kColumn
                        : SelectItem::Kind::kExpr;
        item.expr = std::move(expr.value());
      }
      items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
    if (pos_ != select_end) return Error("malformed select list");
    pos_ = resume;

    // GROUP BY
    std::vector<uint32_t> group_by;
    if (AcceptKeyword("GROUP")) {
      Status st = ExpectKeyword("BY");
      if (!st.ok()) return st;
      for (;;) {
        auto name = ExpectIdentifier();
        if (!name.ok()) return name.status();
        auto col = ResolveColumn(name.value());
        if (!col.ok()) return col.status();
        group_by.push_back(col.value());
        if (!AcceptSymbol(",")) break;
      }
    }

    // Assemble aggregation / projection over the join output. `sort_row`
    // describes the row ORDER BY sorts: per output position, the joined-row
    // column it carries, or -1 for a computed value.
    std::vector<int64_t> sort_row;
    if (has_aggregate) {
      auto agg = std::make_unique<AggregatePlan>();
      agg->group_by = group_by;
      for (auto &item : items) {
        if (item.kind == SelectItem::Kind::kAggregate) {
          agg->terms.push_back(
              {item.agg_func, item.expr ? std::move(item.expr) : nullptr});
        } else if (item.kind == SelectItem::Kind::kColumn) {
          // Must be one of the group keys; its output position is the key's
          // position in group_by.
          bool found = false;
          for (uint32_t g : agg->group_by) {
            if (g == item.expr->col_idx) found = true;
          }
          if (!found) {
            return Error("non-aggregated column must appear in GROUP BY");
          }
        } else if (item.kind != SelectItem::Kind::kStar) {
          return Error("expressions over aggregates are not supported");
        }
      }
      // The aggregate emits its group keys, then one value per term.
      sort_row.assign(agg->group_by.begin(), agg->group_by.end());
      sort_row.resize(agg->group_by.size() + agg->terms.size(), -1);
      agg->children.push_back(std::move(root));
      root = std::move(agg);
    } else if (!(items.size() == 1 && items[0].kind == SelectItem::Kind::kStar)) {
      auto projection = std::make_unique<ProjectionPlan>();
      for (auto &item : items) {
        if (item.kind == SelectItem::Kind::kStar) {
          return Error("* cannot be mixed with other select items");
        }
        sort_row.push_back(item.kind == SelectItem::Kind::kColumn
                               ? static_cast<int64_t>(item.expr->col_idx)
                               : -1);
        projection->exprs.push_back(std::move(item.expr));
      }
      projection->children.push_back(std::move(root));
      root = std::move(projection);
    } else {
      const FromTable &last = from_.back();
      sort_row.resize(last.column_offset + last.table->schema().NumColumns());
      for (size_t i = 0; i < sort_row.size(); i++) sort_row[i] = i;
    }

    // ORDER BY <output position|column> [ASC|DESC]
    uint64_t limit = 0;
    int32_t limit_param = -1;
    bool has_limit = false;
    std::unique_ptr<SortPlan> sort;
    std::vector<std::pair<int32_t, Value>> structural_literals;
    if (AcceptKeyword("ORDER")) {
      Status st = ExpectKeyword("BY");
      if (!st.ok()) return st;
      sort = std::make_unique<SortPlan>();
      for (;;) {
        const size_t key_pos = pos_;
        uint32_t out_col;
        if (Peek().type == TokenType::kInteger) {
          const int64_t ordinal = Peek().int_value;
          if (ordinal < 1 || ordinal > static_cast<int64_t>(sort_row.size())) {
            return Error("ORDER BY position " + std::to_string(ordinal) +
                         " is not in 1.." + std::to_string(sort_row.size()));
          }
          // An output-position ordinal is part of the plan's *structure*
          // (it becomes a sort key), not a parameter: record it so the plan
          // cache never reuses this plan for a different ordinal.
          structural_literals.emplace_back(Next().literal_ordinal,
                                           Value::Integer(ordinal));
          out_col = static_cast<uint32_t>(ordinal - 1);  // 1-based
        } else {
          // A name sorts by the output position that carries its column.
          auto name = ExpectIdentifier();
          if (!name.ok()) return name.status();
          auto col = ResolveColumn(name.value());
          if (!col.ok()) return col.status();
          const auto it = std::find(sort_row.begin(), sort_row.end(),
                                    static_cast<int64_t>(col.value()));
          if (it == sort_row.end()) {
            pos_ = key_pos;
            return Error("ORDER BY column '" + name.value() +
                         "' is not in the query's output");
          }
          out_col = static_cast<uint32_t>(it - sort_row.begin());
        }
        sort->sort_keys.push_back(out_col);
        sort->descending.push_back(AcceptKeyword("DESC") ||
                                   (AcceptKeyword("ASC") && false));
        if (!AcceptSymbol(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) return Error("expected LIMIT count");
      const Token &count = Next();
      limit = static_cast<uint64_t>(count.int_value);
      limit_param = count.literal_ordinal;
      has_limit = true;
    }
    if (sort != nullptr) {
      sort->limit = limit;
      sort->limit_param = has_limit ? limit_param : -1;
      sort->children.push_back(std::move(root));
      root = std::move(sort);
    } else if (has_limit) {
      auto lim = std::make_unique<LimitPlan>();
      lim->limit = limit;
      lim->limit_param = limit_param;
      lim->children.push_back(std::move(root));
      root = std::move(lim);
    }

    BoundStatement bound;
    bound.kind = BoundStatement::Kind::kQuery;
    bound.plan = FinalizePlan(std::move(root), db_->catalog());
    db_->estimator().Estimate(bound.plan.get());
    bound.cacheable = true;
    bound.structural_literals = std::move(structural_literals);
    return bound;
  }

  Status AddFromTable(const std::string &name) {
    Table *table = db_->catalog().GetTable(name);
    if (table == nullptr) return ErrorStatus("unknown table '" + name + "'");
    uint32_t offset = 0;
    if (!from_.empty()) {
      offset = from_.back().column_offset +
               from_.back().table->schema().NumColumns();
    }
    from_.push_back({name, table, offset});
    return Status::Ok();
  }

  /// Index of the FROM table owning joined-row column `col`; -1 if none.
  int TableOf(uint32_t col) const {
    for (size_t i = from_.size(); i-- > 0;) {
      if (col >= from_[i].column_offset) return static_cast<int>(i);
    }
    return -1;
  }

  // --- INSERT / UPDATE / DELETE ----------------------------------------------

  Result<BoundStatement> ParseInsert() {
    Status s = ExpectKeyword("INTO");
    if (!s.ok()) return s;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    Table *table = db_->catalog().GetTable(name.value());
    if (table == nullptr) return Error("unknown table '" + name.value() + "'");
    s = ExpectKeyword("VALUES");
    if (!s.ok()) return s;

    auto insert = std::make_unique<InsertPlan>();
    insert->table = name.value();
    do {
      s = ExpectSymbol("(");
      if (!s.ok()) return s;
      Tuple row;
      for (;;) {
        auto expr = ParseExpression();
        if (!expr.ok()) return expr.status();
        if (expr.value()->type != ExprType::kConstant &&
            expr.value()->Complexity() == 0) {
          return Error("VALUES entries must be literals");
        }
        row.push_back(expr.value()->Evaluate({}));
        if (!AcceptSymbol(",")) break;
      }
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      if (row.size() != table->schema().NumColumns()) {
        return Error("VALUES arity does not match the table");
      }
      for (uint32_t c = 0; c < row.size(); c++) {
        const Column &column = table->schema().GetColumn(c);
        if (!CoerceToType(column.type, &row[c])) {
          return Error("type mismatch in VALUES for column " + column.name);
        }
      }
      insert->rows.push_back(std::move(row));
    } while (AcceptSymbol(","));

    BoundStatement bound;
    bound.kind = BoundStatement::Kind::kDml;
    bound.plan = FinalizePlan(std::move(insert), db_->catalog());
    db_->estimator().Estimate(bound.plan.get());
    return bound;
  }

  Result<BoundStatement> ParseUpdate() {
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    Table *table = db_->catalog().GetTable(name.value());
    if (table == nullptr) return Error("unknown table '" + name.value() + "'");
    Status s = AddFromTable(name.value());
    if (!s.ok()) return s;
    s = ExpectKeyword("SET");
    if (!s.ok()) return s;

    auto update = std::make_unique<UpdatePlan>();
    update->table = name.value();
    do {
      auto col_name = ExpectIdentifier();
      if (!col_name.ok()) return col_name.status();
      auto col = ResolveBaseColumn(table, col_name.value());
      if (!col.ok()) return col.status();
      const size_t eq_at = pos_;
      s = ExpectSymbol("=");
      if (!s.ok()) return s;
      auto expr = ParseExpression();
      if (!expr.ok()) return expr.status();
      const bool varchar_column =
          table->schema().GetColumn(col.value()).type == TypeId::kVarchar;
      if (IsVarchar(*expr.value()) != varchar_column) {
        return TypeError(eq_at, varchar_column
                                    ? "stores a number into a VARCHAR column"
                                    : "stores a VARCHAR into a numeric column");
      }
      update->sets.emplace_back(col.value(), std::move(expr.value()));
    } while (AcceptSymbol(","));

    std::vector<ExprPtr> conjuncts;
    s = ParseWhere(&conjuncts);
    if (!s.ok()) return s;
    update->children.push_back(db_->optimizer().ChooseScan(
        table, std::move(conjuncts), /*with_slots=*/true));

    BoundStatement bound;
    bound.kind = BoundStatement::Kind::kDml;
    bound.plan = FinalizePlan(std::move(update), db_->catalog());
    db_->estimator().Estimate(bound.plan.get());
    bound.cacheable = true;
    return bound;
  }

  Result<BoundStatement> ParseDelete() {
    Status s = ExpectKeyword("FROM");
    if (!s.ok()) return s;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    Table *table = db_->catalog().GetTable(name.value());
    if (table == nullptr) return Error("unknown table '" + name.value() + "'");
    s = AddFromTable(name.value());
    if (!s.ok()) return s;

    std::vector<ExprPtr> conjuncts;
    s = ParseWhere(&conjuncts);
    if (!s.ok()) return s;
    auto del = std::make_unique<DeletePlan>();
    del->table = name.value();
    del->children.push_back(db_->optimizer().ChooseScan(
        table, std::move(conjuncts), /*with_slots=*/true));

    BoundStatement bound;
    bound.kind = BoundStatement::Kind::kDml;
    bound.plan = FinalizePlan(std::move(del), db_->catalog());
    db_->estimator().Estimate(bound.plan.get());
    bound.cacheable = true;
    return bound;
  }

  // --- DDL -------------------------------------------------------------------

  Result<BoundStatement> ParseCreate() {
    const bool unique = AcceptKeyword("UNIQUE");
    if (AcceptKeyword("TABLE")) {
      if (unique) return Error("UNIQUE applies to indexes");
      auto name = ExpectIdentifier();
      if (!name.ok()) return name.status();
      Status s = ExpectSymbol("(");
      if (!s.ok()) return s;
      std::vector<Column> columns;
      for (;;) {
        auto col_name = ExpectIdentifier();
        if (!col_name.ok()) return col_name.status();
        Column column;
        column.name = col_name.value();
        if (AcceptKeyword("INTEGER") || AcceptKeyword("BIGINT")) {
          column.type = TypeId::kInteger;
        } else if (AcceptKeyword("DOUBLE")) {
          column.type = TypeId::kDouble;
        } else if (AcceptKeyword("VARCHAR")) {
          column.type = TypeId::kVarchar;
          if (AcceptSymbol("(")) {
            if (Peek().type != TokenType::kInteger) {
              return Error("expected VARCHAR length");
            }
            column.varchar_len = static_cast<uint32_t>(Next().int_value);
            s = ExpectSymbol(")");
            if (!s.ok()) return s;
          }
        } else {
          return Error("expected a column type");
        }
        columns.push_back(std::move(column));
        if (!AcceptSymbol(",")) break;
      }
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      BoundStatement bound;
      bound.kind = BoundStatement::Kind::kCreateTable;
      bound.table_name = name.value();
      bound.schema = Schema(std::move(columns));
      // WITH ( storage = memory|disk ) — per-table storage selection
      // (DESIGN.md §4i). `storage`/`memory`/`disk` are plain identifiers,
      // compared case-insensitively like keywords.
      if (AcceptKeyword("WITH")) {
        s = ExpectSymbol("(");
        if (!s.ok()) return s;
        auto option = ExpectIdentifier();
        if (!option.ok()) return option.status();
        if (ToLower(option.value()) != "storage") {
          return Error("unknown table option '" + option.value() + "'");
        }
        s = ExpectSymbol("=");
        if (!s.ok()) return s;
        auto storage = ExpectIdentifier();
        if (!storage.ok()) return storage.status();
        const std::string value = ToLower(storage.value());
        if (value == "disk") {
          bound.storage = TableStorage::kDisk;
        } else if (value == "memory") {
          bound.storage = TableStorage::kMemory;
        } else {
          return Error("storage must be 'memory' or 'disk'");
        }
        s = ExpectSymbol(")");
        if (!s.ok()) return s;
      }
      return bound;
    }
    if (AcceptKeyword("INDEX")) {
      auto name = ExpectIdentifier();
      if (!name.ok()) return name.status();
      Status s = ExpectKeyword("ON");
      if (!s.ok()) return s;
      auto table_name = ExpectIdentifier();
      if (!table_name.ok()) return table_name.status();
      Table *table = db_->catalog().GetTable(table_name.value());
      if (table == nullptr) {
        return Error("unknown table '" + table_name.value() + "'");
      }
      s = ExpectSymbol("(");
      if (!s.ok()) return s;
      std::vector<uint32_t> key_columns;
      for (;;) {
        auto col = ExpectIdentifier();
        if (!col.ok()) return col.status();
        auto idx = ResolveBaseColumn(table, col.value());
        if (!idx.ok()) return idx.status();
        key_columns.push_back(idx.value());
        if (!AcceptSymbol(",")) break;
      }
      s = ExpectSymbol(")");
      if (!s.ok()) return s;
      BoundStatement bound;
      bound.kind = BoundStatement::Kind::kCreateIndex;
      bound.index_schema =
          IndexSchema{name.value(), table_name.value(), key_columns, unique};
      bound.build_threads = 1;
      if (AcceptKeyword("WITH")) {
        if (Peek().type != TokenType::kInteger) return Error("expected thread count");
        bound.build_threads = static_cast<uint32_t>(Next().int_value);
        s = ExpectKeyword("THREADS");
        if (!s.ok()) return s;
      }
      return bound;
    }
    return Error("expected TABLE or INDEX after CREATE");
  }

  Result<BoundStatement> ParseDrop() {
    Status s = ExpectKeyword("INDEX");
    if (!s.ok()) return s;
    auto name = ExpectIdentifier();
    if (!name.ok()) return name.status();
    BoundStatement bound;
    bound.kind = BoundStatement::Kind::kDropIndex;
    bound.index_name = name.value();
    return bound;
  }

  Database *db_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<FromTable> from_;
};

}  // namespace

Result<BoundStatement> Parse(Database *db, const std::string &statement) {
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) return tokens.status();
  Parser parser(db, std::move(tokens.value()));
  return parser.ParseStatement();
}

Result<QueryResult> ExecuteSql(Database *db, const std::string &statement) {
  auto tokens = Tokenize(statement);
  if (!tokens.ok()) return tokens.status();

  PlanCache &cache = db->plan_cache();
  const bool use_cache = cache.Enabled();
  // Controller ingestion: successful query/DML executions are reported to
  // the attached workload stream under their normalized template key (the
  // plan-cache normalization, so literal variants collapse onto one
  // template). Cache hits and misses both report.
  ctrl::WorkloadStream *stream = db->workload_stream();
  std::string key;
  std::vector<Value> literals;
  if (use_cache || stream != nullptr) {
    key = NormalizeTokens(tokens.value());
  }
  const auto timed_execute = [&](const PlanNode &plan) {
    const auto start = std::chrono::steady_clock::now();
    QueryResult result = db->Execute(plan);
    if (stream != nullptr && result.status.ok()) {
      const double elapsed_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count();
      stream->Observe(key, statement, elapsed_us);
    }
    return result;
  };
  if (use_cache) {
    literals = LiteralValues(tokens.value());
    if (auto entry = cache.Lookup(key, literals)) {
      // The read-only gate must cover the cache-hit fast path too — a DML
      // template cached while this node was primary stays in the cache
      // after demotion.
      if (entry->kind == CachedPlan::Kind::kDml && db->read_only()) {
        return Status::Unavailable("read-only replica: writes not admitted");
      }
      // Literal-free templates are directly executable; otherwise clone the
      // template and splice the fresh literals into the parameter slots.
      if (entry->num_literals == 0) return timed_execute(*entry->plan);
      PlanPtr plan = InstantiatePlan(*entry, literals);
      return timed_execute(*plan);
    }
  }

  // Capture the catalog version BEFORE binding: if concurrent DDL lands
  // between parse and Insert, the entry is born stale and the next Lookup
  // discards it instead of serving a plan bound against the old catalog.
  const uint64_t version = db->catalog().version();
  Parser parser(db, std::move(tokens.value()));
  auto bound = parser.ParseStatement();
  if (!bound.ok()) return bound.status();
  BoundStatement &stmt = bound.value();
  // Everything except a pure query mutates state (DML writes rows, DDL
  // writes the catalog); none of it is admitted on a read-only replica.
  if (stmt.kind != BoundStatement::Kind::kQuery && db->read_only()) {
    return Status::Unavailable("read-only replica: writes not admitted");
  }
  switch (stmt.kind) {
    case BoundStatement::Kind::kQuery:
    case BoundStatement::Kind::kDml: {
      QueryResult result = timed_execute(*stmt.plan);
      if (use_cache && stmt.cacheable && result.status.ok()) {
        auto entry = std::make_shared<CachedPlan>();
        entry->kind = stmt.kind == BoundStatement::Kind::kQuery
                          ? CachedPlan::Kind::kQuery
                          : CachedPlan::Kind::kDml;
        entry->plan = std::move(stmt.plan);
        entry->structural_literals = std::move(stmt.structural_literals);
        entry->num_literals = stmt.num_literals;
        entry->catalog_version = version;
        cache.Insert(key, std::move(entry));
      }
      return result;
    }
    case BoundStatement::Kind::kCreateTable: {
      if (db->catalog().CreateTable(stmt.table_name, stmt.schema,
                                    stmt.storage) == nullptr) {
        // CreateTable also returns null when a disk table's heap file
        // cannot be opened; the name collision is by far the common case.
        return Status::AlreadyExists("table " + stmt.table_name +
                                     " (exists, or heap unavailable)");
      }
      return QueryResult{};
    }
    case BoundStatement::Kind::kCreateIndex: {
      // Shared self-driving action path (register unpublished, parallel
      // build, publish-or-drop) — identical whether the statement or the
      // autonomous controller asked for the index.
      Status s = Action::CreateIndex(stmt.index_schema, stmt.build_threads)
                     .Apply(db, "manual");
      if (!s.ok()) return s;
      return QueryResult{};
    }
    case BoundStatement::Kind::kDropIndex: {
      Status s = Action::DropIndex(stmt.index_name).Apply(db, "manual");
      if (!s.ok()) return s;
      return QueryResult{};
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace mb2::sql
