#include "modeling/ou_translator.h"

#include <algorithm>

#include "index/bplus_tree.h"
#include "storage/table.h"
#include "wal/log_record.h"

namespace mb2 {

namespace {

double SchemaTupleBytes(const Schema &schema) {
  return static_cast<double>(schema.TupleByteSize());
}

/// The rows a node hands its parent, estimated. A DML node emits one row,
/// its count.
RowSet EstimatedOutput(const PlanNode &node) {
  const bool dml = node.type == PlanNodeType::kInsert ||
                   node.type == PlanNodeType::kUpdate ||
                   node.type == PlanNodeType::kDelete;
  return {dml ? 1.0 : node.estimated_rows,
          static_cast<double>(node.output_schema.NumColumns()),
          SchemaTupleBytes(node.output_schema)};
}

}  // namespace

std::vector<TranslatedOu> OuTranslator::TranslateQuery(
    const PlanNode &plan, double exec_mode_override) const {
  const ExecutionMode mode =
      exec_mode_override >= 0.0
          ? static_cast<ExecutionMode>(static_cast<int64_t>(exec_mode_override))
          : settings_->GetExecutionMode();
  std::vector<TranslatedOu> out;
  TranslatePlan(plan, mode, &out);
  return out;
}

void OuTranslator::TranslatePlan(const PlanNode &node, ExecutionMode mode,
                                 std::vector<TranslatedOu> *out) const {
  // Children first: execution is bottom-up (operator-at-a-time).
  for (const auto &child : node.children) TranslatePlan(*child, mode, out);
  AppendNodeOus(node, EstimatedRows(node), mode, *catalog_, out);
}

NodeRows OuTranslator::EstimatedRows(const PlanNode &node) const {
  NodeRows rows;
  if (!node.children.empty()) rows.in = EstimatedOutput(*node.children[0]);
  if (node.children.size() > 1) rows.probe = EstimatedOutput(*node.children[1]);
  rows.out_rows = node.estimated_rows;
  rows.distinct = node.estimated_cardinality;
  switch (node.type) {
    case PlanNodeType::kSeqScan: {
      // The scan reads every row and emits each visible one to its filter.
      const auto *scan = node.As<SeqScanPlan>();
      rows.in.rows = rows.out_rows = estimator_->TableRows(scan->table);
      // A disk table misses the buffer pool on the pages that do not fit
      // it: none when the table fits (hot cache), pages - pool otherwise
      // (the steady-state eviction regime).
      const Table *table = catalog_->GetTable(scan->table);
      if (table != nullptr && table->storage() == TableStorage::kDisk) {
        TableHeap *heap = table->heap();
        rows.page_misses =
            std::max(0.0, static_cast<double>(heap->NumPages()) -
                              static_cast<double>(heap->pool()->CapacityPages()));
      }
      break;
    }
    case PlanNodeType::kIndexScan: {
      const auto *scan = node.As<IndexScanPlan>();
      const BPlusTree *index = catalog_->GetIndex(scan->index);
      rows.in.rows = index != nullptr ? static_cast<double>(index->NumEntries())
                                      : estimator_->TableRows(scan->table);
      break;
    }
    case PlanNodeType::kInsert:
      // Literal rows are known exactly.
      if (node.children.empty()) rows.in = MeasureRows(node.As<InsertPlan>()->rows);
      break;
    default:
      break;
  }
  return rows;
}

std::vector<TranslatedOu> OuTranslator::TranslateAction(const Action &action) const {
  std::vector<TranslatedOu> out;
  if (action.type != ActionType::kCreateIndex) return out;

  Table *table = catalog_->GetTable(action.index.table_name);
  if (table == nullptr) return out;
  const double rows = estimator_->TableRows(action.index.table_name);
  double key_size = 0.0;
  double cardinality = 1.0;
  for (uint32_t c : action.index.key_columns) {
    const Column &col = table->schema().GetColumn(c);
    key_size += col.type == TypeId::kVarchar ? col.varchar_len : 8;
    cardinality = std::max(
        cardinality, estimator_->ColumnDistinct(action.index.table_name, c));
  }
  out.push_back({OuType::kIndexBuild,
                 {rows, static_cast<double>(action.index.key_columns.size()),
                  key_size, cardinality,
                  static_cast<double>(action.build_threads)}});
  return out;
}

double OuTranslator::EstimateWriteBytes(const PlanNode &node) const {
  double bytes = 0.0;
  for (const auto &child : node.children) bytes += EstimateWriteBytes(*child);
  switch (node.type) {
    case PlanNodeType::kInsert: {
      const auto *insert = node.As<InsertPlan>();
      const Table *table = catalog_->GetTable(insert->table);
      const double row_bytes =
          table != nullptr ? SchemaTupleBytes(table->schema()) : 64.0;
      bytes += node.estimated_rows * (row_bytes + 25.0);
      break;
    }
    case PlanNodeType::kUpdate: {
      const auto *update = node.As<UpdatePlan>();
      const Table *table = catalog_->GetTable(update->table);
      const double row_bytes =
          table != nullptr ? SchemaTupleBytes(table->schema()) : 64.0;
      bytes += node.estimated_rows * (row_bytes + 25.0);
      break;
    }
    case PlanNodeType::kDelete:
      bytes += node.estimated_rows * 25.0;
      break;
    default:
      break;
  }
  return bytes;
}

std::vector<TranslatedOu> OuTranslator::TranslateIntervalMaintenance(
    const WorkloadForecast &forecast) const {
  std::vector<TranslatedOu> out;
  double total_bytes = 0.0;
  double total_records = 0.0;
  for (const auto &entry : forecast.entries) {
    if (entry.plan == nullptr) continue;
    const double execs = entry.arrival_rate * forecast.interval_s;
    const double bytes = EstimateWriteBytes(*entry.plan);
    total_bytes += execs * bytes;
    if (bytes > 0.0) total_records += execs;
  }
  const double flush_interval = settings_->GetDouble("log_flush_interval_us");
  const double gc_interval = settings_->GetDouble("gc_interval_us");
  if (total_bytes > 0.0) {
    const double buffers = std::max(1.0, total_bytes / LogBuffer::kCapacity);
    out.push_back({OuType::kLogSerialize,
                   {total_records, total_bytes, buffers, flush_interval}});
    out.push_back({OuType::kLogFlush, {total_bytes, buffers, flush_interval}});
  }
  // GC reclaims roughly the interval's superseded versions.
  const double interval_us = forecast.interval_s * 1e6;
  const double gc_runs = std::max(1.0, interval_us / std::max(1.0, gc_interval));
  if (total_records > 0.0) {
    out.push_back({OuType::kGarbageCollection,
                   {total_records / gc_runs, total_bytes / gc_runs, gc_interval}});
  }
  return out;
}

std::vector<TranslatedOu> OuTranslator::TranslateTransactions(
    const WorkloadForecast &forecast) const {
  std::vector<TranslatedOu> out;
  double rate = 0.0;
  for (const auto &entry : forecast.entries) rate += entry.arrival_rate;
  if (rate <= 0.0) return out;
  const double running = rate / std::max(1u, forecast.num_threads) * 0.001;
  out.push_back({OuType::kTxnBegin, {rate, running}});
  out.push_back({OuType::kTxnCommit, {rate, running}});
  return out;
}

}  // namespace mb2
