#include "exec/executors.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <unordered_map>

#include "common/serde.h"
#include "exec/expr_program.h"
#include "exec/interpreter.h"
#include "index/bplus_tree.h"
#include "metrics/metrics_collector.h"
#include "metrics/work_stats.h"
#include "modeling/node_ous.h"

namespace mb2 {

namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Rows per vectorized block, re-read from the (hot) knob per operator.
size_t VectorBlockRows(ExecutionContext *ctx) {
  const int64_t knob = ctx->settings()->GetInt("vector_batch_size");
  return knob > 0 ? static_cast<size_t>(knob) : 1;
}

/// One execution's OU list for a plan node (modeling/node_ous.h), which the
/// node's executor walks in order: each phase of its work opens the next
/// OU's scope with the features of the counts in `rows` so far. A phase
/// that counts what its work produced stores the count in `rows` and calls
/// Retake() before it ends.
class NodeOuList {
 public:
  NodeOuList(const PlanNode &node, ExecutionContext *ctx)
      : node_(node), ctx_(ctx) {}

  NodeRows rows;

  OuTrackerScope Track() {
    TranslatedOu ou = Entry(next_++);
    return OuTrackerScope(ou.type, std::move(ou.features));
  }

  /// Stops `scope`'s clock, then gives it the features of the OU Track()
  /// last opened, retaken from `rows`.
  void Retake(OuTrackerScope &scope) {
    scope.Stop();
    scope.MutableFeatures() = Entry(next_ - 1).features;
  }

 private:
  TranslatedOu Entry(size_t i) const {
    std::vector<TranslatedOu> ous;
    AppendNodeOus(node_, rows, ctx_->mode(), *ctx_->catalog(), &ous);
    MB2_ASSERT(i < ous.size(), "executor ran past its node's OU list");
    return std::move(ous[i]);
  }

  const PlanNode &node_;
  ExecutionContext *ctx_;
  size_t next_ = 0;
};

/// Evaluates `expr` over every row of `batch`, keeping matches, as the next
/// OU of `ous` (ARITHMETIC). The interpret path walks the expression tree
/// per tuple; the compiled path runs the flattened program's per-row driver;
/// the vectorized path runs its block driver (the per-row driver takes the
/// blocks, or the whole filter, that hold varchars).
void FilterBatch(const Expression &expr, ExecutionContext *ctx,
                 NodeOuList &ous, Batch *batch) {
  OuTrackerScope scope = ous.Track();
  std::vector<SlotId> *slots = batch->slots.empty() ? nullptr : &batch->slots;
  WorkStats::Current().tuples_processed += batch->rows.size();
  if (ctx->mode() == ExecutionMode::kVectorized &&
      VectorizedFilter(expr, VectorBlockRows(ctx), &batch->rows, slots)) {
    return;
  }
  if (ctx->mode() != ExecutionMode::kInterpret) {
    ExprProgram program(expr);
    FilterRows(&program, /*block_rows=*/0, &batch->rows, slots);
    return;
  }
  size_t kept = 0;
  for (size_t i = 0; i < batch->rows.size(); i++) {
    if (!expr.EvaluateBool(batch->rows[i])) continue;
    if (kept != i) {
      batch->rows[kept] = std::move(batch->rows[i]);
      if (slots != nullptr) (*slots)[kept] = (*slots)[i];
    }
    kept++;
  }
  batch->rows.resize(kept);
  if (slots != nullptr) slots->resize(kept);
}

Tuple ProjectRow(const Tuple &row, const std::vector<uint32_t> &columns) {
  if (columns.empty()) return row;
  Tuple out;
  out.reserve(columns.size());
  for (uint32_t c : columns) out.push_back(row[c]);
  return out;
}

// ---------------------------------------------------------------------------
// Interpreted tuple access. In interpret mode the scan's inner loop goes
// through a virtual per-value accessor — the dispatch cost a bytecode
// interpreter pays on every attribute, which NoisePage's compiled engine
// eliminates. Compiled mode copies directly. This is what makes the
// execution-mode knob a genuine, measurable whole-query tradeoff rather
// than an expression-only one.
// ---------------------------------------------------------------------------


/// Copies `row` into the output batch under the given execution mode.
void EmitRow(ExecutionMode mode, const TupleAccessor &accessor,
             const Tuple &row, const std::vector<uint32_t> &columns,
             std::vector<Tuple> *out) {
  if (mode != ExecutionMode::kInterpret) {
    // Compiled and vectorized modes both copy attributes directly.
    out->push_back(ProjectRow(row, columns));
    return;
  }
  // Interpreter: one virtual dispatch per attribute.
  Tuple projected;
  if (columns.empty()) {
    projected.reserve(row.size());
    for (uint32_t c = 0; c < row.size(); c++) {
      projected.push_back(accessor.Get(row, c));
    }
  } else {
    projected.reserve(columns.size());
    for (uint32_t c : columns) projected.push_back(accessor.Get(row, c));
  }
  out->push_back(std::move(projected));
}

/// Exact distinct count of the key columns across a batch (used as the
/// training-time cardinality feature for joins/aggs/sorts).
double DistinctKeys(const Batch &batch, const std::vector<uint32_t> &keys) {
  std::unordered_map<uint64_t, uint32_t> seen;
  seen.reserve(batch.rows.size());
  for (const auto &row : batch.rows) seen.emplace(HashColumns(row, keys), 0);
  return static_cast<double>(seen.size());
}

/// Vectorized mode hoists key hashing out of the hash-table loops: the hash
/// of every row's key columns, in row order. Empty in the other modes, whose
/// loops hash each row as they reach it.
std::vector<uint64_t> KeyHashes(ExecutionContext *ctx,
                                const std::vector<Tuple> &rows,
                                const std::vector<uint32_t> &keys) {
  std::vector<uint64_t> hashes;
  if (ctx->mode() != ExecutionMode::kVectorized) return hashes;
  hashes.reserve(rows.size());
  for (const Tuple &row : rows) hashes.push_back(HashColumns(row, keys));
  return hashes;
}

bool KeysEqual(const Tuple &a, const std::vector<uint32_t> &a_cols,
               const Tuple &b, const std::vector<uint32_t> &b_cols) {
  for (size_t i = 0; i < a_cols.size(); i++) {
    if (!(a[a_cols[i]] == b[b_cols[i]])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Vectorized scan fast path: the predicate is evaluated in blocks directly
/// over the tuples sitting in the version chains (gather by pointer), and
/// only surviving rows are materialized into the batch — a selective scan
/// skips the per-row copy for everything it rejects. The filter's work is
/// part of the scan loop here, so the SEQ_SCAN OU covers both and the list
/// holds no ARITHMETIC OU (ScanFusesFilter); results are bit-identical to
/// the materialize-then-filter path because blocks preserve slot order.
Status ExecSeqScanFused(const SeqScanPlan &plan, ExecutionContext *ctx,
                        Table *table, SlotId num_slots, NodeOuList &ous,
                        Batch *out) {
  ExprProgram predicate(*plan.predicate);
  OuTrackerScope scope = ous.Track();

  const size_t block = VectorBlockRows(ctx);
  const uint64_t read_ts = ctx->txn()->read_ts();
  const uint64_t reader_txn = ctx->txn()->txn_id();
  WorkStats &ws = WorkStats::Current();

  std::vector<const Tuple *> ptrs;
  std::vector<SlotId> slots;
  ptrs.reserve(block);
  slots.reserve(block);
  uint64_t visible = 0;

  auto flush = [&] {
    if (ptrs.empty()) return;
    // tuples_processed counts the filter pass over visible rows, matching
    // the separate FilterBatch call of the unfused path.
    ws.tuples_processed += ptrs.size();
    predicate.ForBlock(ptrs.data(), ptrs.size(),
                       [&](size_t l, const Datum &keep) {
                         if (!keep.IsTrue()) return;
                         out->rows.push_back(*ptrs[l]);
                         if (plan.with_slots) out->slots.push_back(slots[l]);
                       });
    ptrs.clear();
    slots.clear();
  };

  for (SlotId slot = 0; slot < num_slots; slot++) {
    ws.tuples_processed++;
    const VersionNode *node = table->Head(slot);
    while (node != nullptr && !node->VisibleTo(read_ts, reader_txn)) {
      node = node->next;
    }
    if (node == nullptr || node->deleted) continue;
    ws.bytes_read += TupleSize(node->data);
    visible++;
    ptrs.push_back(&node->data);
    slots.push_back(slot);
    if (ptrs.size() >= block) flush();
  }
  flush();
  // As on the unfused path: the rows read before the filter.
  ous.rows.out_rows = static_cast<double>(visible);
  ous.Retake(scope);
  return Status::Ok();
}

/// Disk-table scan: two phases, two OUs. Phase one stages every heap row
/// page-sequentially under a PAGE_READ scope (its elapsed time is the block
/// I/O plus decode — the cost the page OU models learn; the actual
/// buffer-pool miss count becomes the est_misses feature post hoc, the
/// train-on-actuals side of the cardinality idiom). Phase two emits, under
/// the usual SEQ_SCAN scope, each staged row whose location matches the
/// slot's visible version — updates and uncommitted writers stage stale
/// copies too, and the location match is what filters them. Output order is
/// heap (page, index) order, not slot order.
Status ExecSeqScanDisk(const SeqScanPlan &plan, ExecutionContext *ctx,
                       Table *table, SlotId num_slots, NodeOuList &ous,
                       Batch *out) {
  TableHeap *heap = table->heap();
  BufferPool *pool = heap->pool();
  std::vector<HeapRow> staged;
  {
    OuTrackerScope scope = ous.Track();
    const uint64_t misses_before = pool->stats().misses;
    Status s = heap->ScanRows(&staged);
    if (!s.ok()) return s;
    ous.rows.page_misses =
        static_cast<double>(pool->stats().misses - misses_before);
    ous.Retake(scope);
  }
  {
    OuTrackerScope scope = ous.Track();
    const TupleAccessor &accessor = *GetInterpretedAccessor();
    const uint64_t read_ts = ctx->txn()->read_ts();
    const uint64_t reader_txn = ctx->txn()->txn_id();
    WorkStats &ws = WorkStats::Current();
    for (const HeapRow &hr : staged) {
      if (hr.slot >= num_slots) continue;
      ws.tuples_processed++;
      const VersionNode *node = table->Head(hr.slot);
      while (node != nullptr && !node->VisibleTo(read_ts, reader_txn)) {
        node = node->next;
      }
      if (node == nullptr || node->deleted) continue;
      if (!(node->loc == hr.loc)) continue;  // stale copy of this slot
      ws.bytes_read += TupleSize(hr.row);
      EmitRow(ctx->mode(), accessor, hr.row, plan.columns, &out->rows);
      if (plan.with_slots) out->slots.push_back(hr.slot);
    }
    ous.rows.out_rows = static_cast<double>(out->rows.size());
    ous.Retake(scope);
  }
  if (plan.predicate != nullptr) FilterBatch(*plan.predicate, ctx, ous, out);
  return Status::Ok();
}

Status ExecSeqScan(const SeqScanPlan &plan, ExecutionContext *ctx, Batch *out) {
  Table *table = ctx->catalog()->GetTable(plan.table);
  if (table == nullptr) return Status::NotFound("table " + plan.table);
  const SlotId num_slots = table->NumSlots();
  NodeOuList ous(plan, ctx);
  ous.rows.in.rows = static_cast<double>(num_slots);
  if (table->storage() == TableStorage::kDisk) {
    // The fused fast path gathers &node->data pointers, which disk versions
    // don't have — disk scans always take the staged path.
    return ExecSeqScanDisk(plan, ctx, table, num_slots, ous, out);
  }
  if (ScanFusesFilter(plan, ctx->mode(), *table)) {
    return ExecSeqScanFused(plan, ctx, table, num_slots, ous, out);
  }
  {
    OuTrackerScope scope = ous.Track();
    out->rows.reserve(num_slots);
    const TupleAccessor &accessor = *GetInterpretedAccessor();
    Tuple row;
    for (SlotId slot = 0; slot < num_slots; slot++) {
      if (!table->Select(ctx->txn(), slot, &row)) continue;
      EmitRow(ctx->mode(), accessor, row, plan.columns, &out->rows);
      if (plan.with_slots) out->slots.push_back(slot);
    }
    ous.rows.out_rows = static_cast<double>(out->rows.size());
    ous.Retake(scope);
  }
  if (plan.predicate != nullptr) FilterBatch(*plan.predicate, ctx, ous, out);
  return Status::Ok();
}

Status ExecIndexScan(const IndexScanPlan &plan, ExecutionContext *ctx,
                     Batch *out) {
  Table *table = ctx->catalog()->GetTable(plan.table);
  BPlusTree *index = ctx->catalog()->GetIndex(plan.index);
  if (table == nullptr) return Status::NotFound("table " + plan.table);
  if (index == nullptr) return Status::NotFound("index " + plan.index);
  NodeOuList ous(plan, ctx);
  ous.rows.in.rows = static_cast<double>(index->NumEntries());
  {
    OuTrackerScope scope = ous.Track();
    std::vector<SlotId> slots;
    if (!plan.key_hi.empty()) {
      index->ScanRange(plan.key_lo, plan.key_hi, &slots, plan.limit);
    } else if (plan.key_lo.size() < index->schema().key_columns.size()) {
      index->ScanPrefix(plan.key_lo, &slots);
    } else {
      index->ScanKey(plan.key_lo, &slots);
    }
    const TupleAccessor &accessor = *GetInterpretedAccessor();
    Tuple row;
    out->rows.reserve(slots.size());
    for (SlotId slot : slots) {
      if (!table->Select(ctx->txn(), slot, &row)) continue;
      EmitRow(ctx->mode(), accessor, row, plan.columns, &out->rows);
      if (plan.with_slots) out->slots.push_back(slot);
      if (plan.limit != 0 && out->rows.size() >= plan.limit) break;
    }
    ous.rows.out_rows = static_cast<double>(out->rows.size());
    ous.Retake(scope);
  }
  if (plan.predicate != nullptr) FilterBatch(*plan.predicate, ctx, ous, out);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

Status ExecHashJoin(const HashJoinPlan &plan, ExecutionContext *ctx,
                    Batch *out) {
  Batch build, probe;
  Status status = ExecuteNode(*plan.children[0], ctx, &build);
  if (!status.ok()) return status;
  status = ExecuteNode(*plan.children[1], ctx, &probe);
  if (!status.ok()) return status;

  // Join hash table: key hash -> row indexes. Pre-sized by the build count
  // (the paper's memory-normalization special case for join hash tables).
  std::unordered_map<uint64_t, std::vector<uint32_t>> ht;
  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(build.rows);
  ous.rows.probe = MeasureRows(probe.rows);
  const double payload = ous.rows.in.width;
  {
    OuTrackerScope scope = ous.Track();
    ht.reserve(build.rows.size());
    WorkStats &ws = WorkStats::Current();
    const std::vector<uint64_t> hashes =
        KeyHashes(ctx, build.rows, plan.build_keys);
    // Sec 8.5's simulated "software update": a 1µs stall every N inserts.
    const auto sleep_every = static_cast<uint64_t>(
        ctx->settings()->GetDouble("jht_sleep_every_n"));
    for (uint32_t i = 0; i < build.rows.size(); i++) {
      ht[hashes.empty() ? HashColumns(build.rows[i], plan.build_keys)
                        : hashes[i]]
          .push_back(i);
      ws.hash_ops++;
      if (sleep_every != 0 && (i + 1) % sleep_every == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::microseconds(1);
        while (std::chrono::steady_clock::now() < deadline) {
        }
      }
    }
    ws.tuples_processed += build.rows.size();
    const double ht_bytes =
        static_cast<double>(ht.bucket_count()) * 16.0 +
        static_cast<double>(build.rows.size()) * (payload + 24.0);
    ws.alloc_bytes += static_cast<uint64_t>(ht_bytes);
    scope.SetMemoryBytes(ht_bytes);
    ous.rows.distinct = static_cast<double>(ht.size());
    ous.Retake(scope);
  }

  {
    OuTrackerScope scope = ous.Track();
    WorkStats &ws = WorkStats::Current();
    const std::vector<uint64_t> hashes =
        KeyHashes(ctx, probe.rows, plan.probe_keys);
    for (size_t p = 0; p < probe.rows.size(); p++) {
      const auto &probe_row = probe.rows[p];
      ws.hash_ops++;
      auto it = ht.find(hashes.empty()
                            ? HashColumns(probe_row, plan.probe_keys)
                            : hashes[p]);
      if (it == ht.end()) continue;
      for (uint32_t build_idx : it->second) {
        const Tuple &build_row = build.rows[build_idx];
        if (!KeysEqual(build_row, plan.build_keys, probe_row, plan.probe_keys)) {
          continue;  // hash collision
        }
        Tuple joined;
        joined.reserve(build_row.size() + probe_row.size());
        joined.insert(joined.end(), build_row.begin(), build_row.end());
        joined.insert(joined.end(), probe_row.begin(), probe_row.end());
        out->rows.push_back(std::move(joined));
      }
    }
    ws.tuples_processed += probe.rows.size();
    ous.rows.out_rows = static_cast<double>(out->rows.size());
    ous.Retake(scope);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

struct Accumulator {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  uint64_t count = 0;

  void Add(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    count++;
  }
  void AddCountOnly() { count++; }

  Value Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount: return Value::Integer(static_cast<int64_t>(count));
      case AggFunc::kSum: return Value::Double(sum);
      case AggFunc::kAvg:
        return Value::Double(count == 0 ? 0.0 : sum / static_cast<double>(count));
      case AggFunc::kMin: return Value::Double(min);
      case AggFunc::kMax: return Value::Double(max);
    }
    return Value::Integer(0);
  }
};

struct Group {
  Tuple keys;
  std::vector<Accumulator> accs;
  /// Groups whose keys hash like this one's but differ from them.
  std::vector<Group> collisions;
};

/// Whether `row` belongs to group `g`. Doubles compare by bits, as the key
/// hash reads them, so NaN keys keep sharing one group.
bool InGroup(const Group &g, const Tuple &row,
             const std::vector<uint32_t> &group_by) {
  for (size_t k = 0; k < group_by.size(); k++) {
    const Value &a = g.keys[k];
    const Value &b = row[group_by[k]];
    const bool same =
        a.type() == TypeId::kDouble && b.type() == TypeId::kDouble
            ? std::bit_cast<uint64_t>(a.AsDouble()) ==
                  std::bit_cast<uint64_t>(b.AsDouble())
            : a == b;
    if (!same) return false;
  }
  return true;
}

Status ExecAggregate(const AggregatePlan &plan, ExecutionContext *ctx,
                     Batch *out) {
  Batch input;
  Status status = ExecuteNode(*plan.children[0], ctx, &input);
  if (!status.ok()) return status;

  std::unordered_map<uint64_t, Group> groups;
  size_t num_groups = 0;
  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(input.rows);

  {
    OuTrackerScope scope = ous.Track();
    WorkStats &ws = WorkStats::Current();
    // The compiled and vectorized modes evaluate each aggregate argument for
    // all rows up front with its program, so the grouping loop below only
    // does hash-table ops; vectorized mode hashes the group keys up front
    // too. The accumulators take the argument's AsDouble() view in every
    // mode, so sums stay bit-identical.
    const std::vector<uint64_t> hashes =
        plan.group_by.empty() ? std::vector<uint64_t>{}
                              : KeyHashes(ctx, input.rows, plan.group_by);
    std::vector<std::vector<double>> term_vals(plan.terms.size());
    if (ctx->mode() != ExecutionMode::kInterpret) {
      // 0 rows per block selects the per-row driver.
      const size_t block = ctx->mode() == ExecutionMode::kVectorized
                               ? VectorBlockRows(ctx)
                               : 0;
      for (size_t t = 0; t < plan.terms.size(); t++) {
        if (plan.terms[t].arg == nullptr) continue;
        ExprProgram program(*plan.terms[t].arg);
        std::vector<double> &vals = term_vals[t];
        vals.resize(input.rows.size());
        program.ForEach(input.rows, block, [&vals](size_t i, const Datum &d) {
          vals[i] = d.Number();
        });
      }
    }
    for (size_t r = 0; r < input.rows.size(); r++) {
      const auto &row = input.rows[r];
      const uint64_t h = plan.group_by.empty()
                             ? 0
                             : (hashes.empty()
                                    ? HashColumns(row, plan.group_by)
                                    : hashes[r]);
      ws.hash_ops++;
      auto [it, inserted] = groups.try_emplace(h);
      Group *g = &it->second;
      if (!inserted && !InGroup(*g, row, plan.group_by)) {
        // A hash collision: the row's group is another one chained here.
        auto &chain = g->collisions;
        auto found = std::find_if(chain.begin(), chain.end(), [&](const Group &c) {
          return InGroup(c, row, plan.group_by);
        });
        inserted = found == chain.end();
        g = inserted ? &chain.emplace_back() : &*found;
      }
      if (inserted) {
        g->keys.reserve(plan.group_by.size());
        for (uint32_t c : plan.group_by) g->keys.push_back(row[c]);
        g->accs.resize(plan.terms.size());
        ws.alloc_bytes += 64 + plan.group_by.size() * 8 + plan.terms.size() * 32;
        num_groups++;
      }
      for (size_t t = 0; t < plan.terms.size(); t++) {
        const auto &term = plan.terms[t];
        if (term.arg == nullptr) {
          g->accs[t].AddCountOnly();
        } else if (ctx->mode() != ExecutionMode::kInterpret) {
          g->accs[t].Add(term_vals[t][r]);
        } else {
          g->accs[t].Add(term.arg->Evaluate(row).AsDouble());
        }
      }
    }
    ws.tuples_processed += input.rows.size();
    // The agg hash table grows with distinct keys (memory normalized by
    // cardinality, not input rows — Sec 4.3).
    scope.SetMemoryBytes(static_cast<double>(num_groups) *
                         (64.0 + plan.group_by.size() * 8.0 +
                          plan.terms.size() * 32.0));
    ous.rows.distinct = static_cast<double>(num_groups);
    ous.Retake(scope);
  }

  {
    OuTrackerScope scope = ous.Track();
    out->rows.reserve(num_groups);
    auto emit = [&](Group &g) {
      Tuple row = std::move(g.keys);
      for (size_t t = 0; t < plan.terms.size(); t++) {
        row.push_back(g.accs[t].Finish(plan.terms[t].func));
      }
      out->rows.push_back(std::move(row));
    };
    for (auto &[h, g] : groups) {
      emit(g);
      for (Group &c : g.collisions) emit(c);
    }
    WorkStats::Current().tuples_processed += out->rows.size();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

Status ExecSort(const SortPlan &plan, ExecutionContext *ctx, Batch *out) {
  Batch input;
  Status status = ExecuteNode(*plan.children[0], ctx, &input);
  if (!status.ok()) return status;

  auto cmp = [&plan](const Tuple &a, const Tuple &b) {
    WorkStats::Current().comparisons++;
    for (size_t i = 0; i < plan.sort_keys.size(); i++) {
      const uint32_t k = plan.sort_keys[i];
      const int c = a[k].Compare(b[k]);
      if (c != 0) {
        const bool desc = i < plan.descending.size() && plan.descending[i];
        return desc ? c > 0 : c < 0;
      }
    }
    return false;
  };

  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(input.rows);
  ous.rows.distinct = DistinctKeys(input, plan.sort_keys);
  const RowSet &in = ous.rows.in;
  {
    OuTrackerScope scope = ous.Track();
    WorkStats &ws = WorkStats::Current();
    ws.tuples_processed += input.rows.size();
    ws.alloc_bytes += static_cast<uint64_t>(in.rows * in.width);
    std::sort(input.rows.begin(), input.rows.end(), cmp);
    scope.SetMemoryBytes(in.rows * (in.width + 24.0));
  }

  {
    OuTrackerScope scope = ous.Track();
    if (plan.limit != 0 && input.rows.size() > plan.limit) {
      input.rows.resize(plan.limit);
    }
    out->rows = std::move(input.rows);
    WorkStats::Current().tuples_processed += out->rows.size();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Projection / Limit
// ---------------------------------------------------------------------------

Status ExecProjection(const ProjectionPlan &plan, ExecutionContext *ctx,
                      Batch *out) {
  Batch input;
  Status status = ExecuteNode(*plan.children[0], ctx, &input);
  if (!status.ok()) return status;

  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(input.rows);
  OuTrackerScope scope = ous.Track();

  if (ctx->mode() == ExecutionMode::kVectorized &&
      VectorizedProject(plan.exprs, VectorBlockRows(ctx), input.rows,
                        &out->rows)) {
    WorkStats::Current().tuples_processed += out->rows.size();
    return Status::Ok();
  }
  // Compiled mode, and vectorized mode when a varchar constant keeps the
  // block driver out, run each expression's per-row driver.
  std::vector<ExprProgram> programs;
  if (ctx->mode() != ExecutionMode::kInterpret) {
    programs.reserve(plan.exprs.size());
    for (const auto &e : plan.exprs) programs.emplace_back(*e);
  }
  out->rows.reserve(input.rows.size());
  for (const auto &row : input.rows) {
    Tuple projected;
    projected.reserve(plan.exprs.size());
    if (ctx->mode() != ExecutionMode::kInterpret) {
      for (ExprProgram &p : programs) projected.push_back(p.Run(row).ToValue());
    } else {
      for (const auto &e : plan.exprs) projected.push_back(e->Evaluate(row));
    }
    out->rows.push_back(std::move(projected));
  }
  WorkStats::Current().tuples_processed += out->rows.size();
  return Status::Ok();
}

Status ExecLimit(const LimitPlan &plan, ExecutionContext *ctx, Batch *out) {
  Status status = ExecuteNode(*plan.children[0], ctx, out);
  if (!status.ok()) return status;
  if (out->rows.size() > plan.limit) {
    out->rows.resize(plan.limit);
    if (!out->slots.empty()) out->slots.resize(plan.limit);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

/// Inserts `row`'s index entries for every index on `table`.
void MaintainIndexesInsert(ExecutionContext *ctx, const std::string &table,
                           const Tuple &row, SlotId slot) {
  for (BPlusTree *index : ctx->catalog()->GetTableIndexes(table)) {
    Tuple key;
    key.reserve(index->schema().key_columns.size());
    for (uint32_t c : index->schema().key_columns) key.push_back(row[c]);
    index->Insert(key, slot);
  }
}

Status ExecInsert(const InsertPlan &plan, ExecutionContext *ctx, Batch *out) {
  Table *table = ctx->catalog()->GetTable(plan.table);
  if (table == nullptr) return Status::NotFound("table " + plan.table);

  const std::vector<Tuple> *rows = &plan.rows;
  Batch child;
  if (!plan.children.empty()) {
    Status status = ExecuteNode(*plan.children[0], ctx, &child);
    if (!status.ok()) return status;
    rows = &child.rows;
  }

  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(*rows);
  OuTrackerScope scope = ous.Track();
  for (const auto &row : *rows) {
    Result<SlotId> slot = table->TryInsert(ctx->txn(), row);
    if (!slot.ok()) return slot.status();
    MaintainIndexesInsert(ctx, plan.table, row, *slot);
  }
  out->rows.push_back({Value::Integer(static_cast<int64_t>(rows->size()))});
  return Status::Ok();
}

Status ExecUpdate(const UpdatePlan &plan, ExecutionContext *ctx, Batch *out) {
  Table *table = ctx->catalog()->GetTable(plan.table);
  if (table == nullptr) return Status::NotFound("table " + plan.table);
  Batch input;
  Status status = ExecuteNode(*plan.children[0], ctx, &input);
  if (!status.ok()) return status;
  MB2_ASSERT(input.slots.size() == input.rows.size(),
             "update child must carry slots (set with_slots on the scan)");

  const auto indexes = ctx->catalog()->GetTableIndexes(plan.table);
  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(input.rows);
  OuTrackerScope scope = ous.Track();

  for (size_t i = 0; i < input.rows.size(); i++) {
    Tuple new_row = input.rows[i];
    for (const auto &[col, expr] : plan.sets) {
      new_row[col] = expr->Evaluate(input.rows[i]);
      // Checked per value, so cached plans with rebound parameters are too.
      const Column &column = table->schema().GetColumn(col);
      if (!CoerceToType(column.type, &new_row[col])) {
        return Status::InvalidArgument(
            std::string("UPDATE stores a ") + TypeName(new_row[col].type()) +
            " into " + TypeName(column.type) + " column " + column.name);
      }
    }
    status = table->Update(ctx->txn(), input.slots[i], new_row);
    if (!status.ok()) return status;
    // Maintain indexes whose keys changed.
    for (BPlusTree *index : indexes) {
      bool key_changed = false;
      for (uint32_t c : index->schema().key_columns) {
        for (const auto &[col, expr] : plan.sets) {
          if (col == c && !(new_row[c] == input.rows[i][c])) key_changed = true;
        }
      }
      if (!key_changed) continue;
      Tuple old_key, new_key;
      for (uint32_t c : index->schema().key_columns) {
        old_key.push_back(input.rows[i][c]);
        new_key.push_back(new_row[c]);
      }
      index->Delete(old_key, input.slots[i]);
      index->Insert(new_key, input.slots[i]);
    }
  }
  out->rows.push_back({Value::Integer(static_cast<int64_t>(input.rows.size()))});
  return Status::Ok();
}

Status ExecDelete(const DeletePlan &plan, ExecutionContext *ctx, Batch *out) {
  Table *table = ctx->catalog()->GetTable(plan.table);
  if (table == nullptr) return Status::NotFound("table " + plan.table);
  Batch input;
  Status status = ExecuteNode(*plan.children[0], ctx, &input);
  if (!status.ok()) return status;
  MB2_ASSERT(input.slots.size() == input.rows.size(),
             "delete child must carry slots (set with_slots on the scan)");

  const auto indexes = ctx->catalog()->GetTableIndexes(plan.table);
  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(input.rows);
  OuTrackerScope scope = ous.Track();

  for (size_t i = 0; i < input.rows.size(); i++) {
    status = table->Delete(ctx->txn(), input.slots[i]);
    if (!status.ok()) return status;
    for (BPlusTree *index : indexes) {
      Tuple key;
      for (uint32_t c : index->schema().key_columns) {
        key.push_back(input.rows[i][c]);
      }
      index->Delete(key, input.slots[i]);
    }
  }
  out->rows.push_back({Value::Integer(static_cast<int64_t>(input.rows.size()))});
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Output (simulated network)
// ---------------------------------------------------------------------------

Status ExecOutput(const OutputPlan &plan, ExecutionContext *ctx, Batch *out) {
  Status status = ExecuteNode(*plan.children[0], ctx, out);
  if (!status.ok()) return status;

  NodeOuList ous(plan, ctx);
  ous.rows.in = MeasureRows(out->rows);
  OuTrackerScope scope = ous.Track();

  // Serialize rows into the output buffer in the shared Value encoding.
  auto &wire = ctx->output_buffer();
  wire.clear();
  ByteWriter w(&wire);
  for (const auto &row : out->rows) {
    for (const auto &v : row) PutValue(&w, v);
  }
  WorkStats &ws = WorkStats::Current();
  ws.tuples_processed += out->rows.size();
  ws.bytes_written += wire.size();
  ctx->rows_output += out->rows.size();
  return Status::Ok();
}

}  // namespace

Status ExecuteNode(const PlanNode &node, ExecutionContext *ctx, Batch *out) {
  switch (node.type) {
    case PlanNodeType::kSeqScan:
      return ExecSeqScan(*node.As<SeqScanPlan>(), ctx, out);
    case PlanNodeType::kIndexScan:
      return ExecIndexScan(*node.As<IndexScanPlan>(), ctx, out);
    case PlanNodeType::kHashJoin:
      return ExecHashJoin(*node.As<HashJoinPlan>(), ctx, out);
    case PlanNodeType::kAggregate:
      return ExecAggregate(*node.As<AggregatePlan>(), ctx, out);
    case PlanNodeType::kSort:
      return ExecSort(*node.As<SortPlan>(), ctx, out);
    case PlanNodeType::kProjection:
      return ExecProjection(*node.As<ProjectionPlan>(), ctx, out);
    case PlanNodeType::kLimit:
      return ExecLimit(*node.As<LimitPlan>(), ctx, out);
    case PlanNodeType::kInsert:
      return ExecInsert(*node.As<InsertPlan>(), ctx, out);
    case PlanNodeType::kUpdate:
      return ExecUpdate(*node.As<UpdatePlan>(), ctx, out);
    case PlanNodeType::kDelete:
      return ExecDelete(*node.As<DeletePlan>(), ctx, out);
    case PlanNodeType::kOutput:
      return ExecOutput(*node.As<OutputPlan>(), ctx, out);
  }
  return Status::Internal("unknown plan node");
}

}  // namespace mb2
