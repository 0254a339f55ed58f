#include "modeling/node_ous.h"

#include <algorithm>

#include "exec/expr_program.h"

namespace mb2 {

namespace {

/// The exec_mode feature. Vectorized shares compiled's value (both drop the
/// interpreter's per-attribute dispatch), so models of modes 0/1 price it.
double ExecModeFeature(ExecutionMode mode) {
  return mode == ExecutionMode::kInterpret ? 0.0 : 1.0;
}

/// Where one node's OUs go, and the mode they run in.
struct OuList {
  const Catalog &catalog;
  ExecutionMode mode;
  std::vector<TranslatedOu> *out;

  /// A singular execution OU (all but ARITHMETIC): the 7-wide layout.
  void Exec(OuType type, double rows, double cols, double width,
            double cardinality, double payload) const {
    out->push_back({type, MakeExecFeatures(rows, cols, width, cardinality,
                                           payload, 1.0, ExecModeFeature(mode))});
  }
  void Arithmetic(double rows, uint32_t complexity) const {
    out->push_back({OuType::kArithmetic, {rows, static_cast<double>(complexity),
                                          ExecModeFeature(mode)}});
  }
  /// One pass over the node's input rows (INSERT, UPDATE, DELETE, OUTPUT).
  void Rows(OuType type, const RowSet &in, double cols) const {
    Exec(type, in.rows, cols, in.width, 0.0, 0.0);
  }
};

/// Columns a scan emits: its projection, or every column of the table.
double ScanCols(const std::vector<uint32_t> &columns, const Schema &schema) {
  return static_cast<double>(columns.empty() ? schema.NumColumns()
                                             : columns.size());
}

// One function per node type. A scan's tuple width is the table's full row,
// whatever it projects.

void SeqScanOus(const SeqScanPlan &scan, const NodeRows &r, const OuList &ous) {
  const Table *table = ous.catalog.GetTable(scan.table);
  if (table == nullptr) return;  // execution fails before its first OU
  if (table->storage() == TableStorage::kDisk) {  // stages its pages first
    TableHeap *heap = table->heap();
    ous.out->push_back(
        {OuType::kPageRead,
         {static_cast<double>(heap->NumPages()), r.page_misses, r.in.rows,
          static_cast<double>(heap->pool()->CapacityPages())}});
  }
  const Schema &schema = table->schema();
  ous.Exec(OuType::kSeqScan, r.in.rows, ScanCols(scan.columns, schema),
           schema.TupleByteSize(), r.out_rows, 0.0);
  if (scan.predicate != nullptr && !ScanFusesFilter(scan, ous.mode, *table)) {
    ous.Arithmetic(r.out_rows, scan.predicate->Complexity());
  }
}

void IndexScanOus(const IndexScanPlan &scan, const NodeRows &r,
                  const OuList &ous) {
  const Table *table = ous.catalog.GetTable(scan.table);
  if (table == nullptr) return;
  const Schema &schema = table->schema();
  ous.Exec(OuType::kIdxScan, r.out_rows, ScanCols(scan.columns, schema),
           schema.TupleByteSize(), r.in.rows, 0.0);
  if (scan.predicate != nullptr) {
    ous.Arithmetic(r.out_rows, scan.predicate->Complexity());
  }
}

void HashJoinOus(const NodeRows &r, const OuList &ous) {
  // Both sides carry the build row as the hash-table payload.
  ous.Exec(OuType::kHashJoinBuild, r.in.rows, r.in.cols, r.in.width,
           r.distinct, r.in.width);
  ous.Exec(OuType::kHashJoinProbe, r.probe.rows, r.probe.cols, r.probe.width,
           r.out_rows, r.in.width);
}

void AggregateOus(const AggregatePlan &agg, const NodeRows &r,
                  const OuList &ous) {
  const size_t keys = agg.group_by.size();
  const size_t terms = agg.terms.size();
  ous.Exec(OuType::kAggBuild, r.in.rows, r.in.cols, r.in.width, r.distinct,
           static_cast<double>(keys * 8 + terms * 32));
  // One output row per group.
  ous.Exec(OuType::kAggProbe, r.distinct, static_cast<double>(keys + terms),
           static_cast<double>(keys * 8 + terms * 8), r.distinct, 0.0);
}

void SortOus(const SortPlan &sort, const NodeRows &r, const OuList &ous) {
  ous.Exec(OuType::kSortBuild, r.in.rows, r.in.cols, r.in.width, r.distinct,
           r.in.width);
  const double emitted =
      sort.limit != 0 ? std::min(r.in.rows, static_cast<double>(sort.limit))
                      : r.in.rows;
  ous.Exec(OuType::kSortIterate, emitted, r.in.cols, r.in.width, 0.0, 0.0);
}

void ProjectionOus(const ProjectionPlan &proj, const NodeRows &r,
                   const OuList &ous) {
  uint32_t complexity = 0;
  for (const auto &e : proj.exprs) complexity += e->Complexity();
  ous.Arithmetic(r.in.rows, complexity);
}

}  // namespace

RowSet MeasureRows(const std::vector<Tuple> &rows) {
  RowSet set{static_cast<double>(rows.size())};
  if (rows.empty()) return set;
  set.cols = static_cast<double>(rows[0].size());
  uint64_t bytes = 0;
  for (const auto &r : rows) bytes += TupleSize(r);
  set.width = static_cast<double>(bytes) / set.rows;
  return set;
}

bool ScanFusesFilter(const SeqScanPlan &scan, ExecutionMode mode,
                     const Table &table) {
  return mode == ExecutionMode::kVectorized && scan.predicate != nullptr &&
         scan.columns.empty() && table.storage() == TableStorage::kMemory &&
         ExprProgram::BlockDriverTakes(*scan.predicate);
}

void AppendNodeOus(const PlanNode &node, const NodeRows &rows,
                   ExecutionMode mode, const Catalog &catalog,
                   std::vector<TranslatedOu> *out) {
  const OuList ous{catalog, mode, out};
  switch (node.type) {
    case PlanNodeType::kSeqScan:
      return SeqScanOus(*node.As<SeqScanPlan>(), rows, ous);
    case PlanNodeType::kIndexScan:
      return IndexScanOus(*node.As<IndexScanPlan>(), rows, ous);
    case PlanNodeType::kHashJoin:
      return HashJoinOus(rows, ous);
    case PlanNodeType::kAggregate:
      return AggregateOus(*node.As<AggregatePlan>(), rows, ous);
    case PlanNodeType::kSort:
      return SortOus(*node.As<SortPlan>(), rows, ous);
    case PlanNodeType::kProjection:
      return ProjectionOus(*node.As<ProjectionPlan>(), rows, ous);
    case PlanNodeType::kLimit:
      return;  // no measurable work of its own
    case PlanNodeType::kInsert:
      return ous.Rows(OuType::kInsert, rows.in, rows.in.cols);
    case PlanNodeType::kUpdate:  // counts the columns it sets
      return ous.Rows(OuType::kUpdate, rows.in,
                      static_cast<double>(node.As<UpdatePlan>()->sets.size()));
    case PlanNodeType::kDelete:
      return ous.Rows(OuType::kDelete, rows.in, rows.in.cols);
    case PlanNodeType::kOutput:
      return ous.Rows(OuType::kOutput, rows.in, rows.in.cols);
  }
}

}  // namespace mb2
