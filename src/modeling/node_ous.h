#pragma once

/// \file node_ous.h
/// The OUs each plan node runs, in execution order, with their features:
/// one function per node type over the node and a row-count record. The
/// translator fills the record from the optimizer's estimates; each
/// executor fills it with what it measured and records the OUs it returns.
/// So training data and inference agree OU for OU on what a plan runs and
/// how each feature is built (Sec 6.1).

#include <vector>

#include "catalog/catalog.h"
#include "catalog/settings.h"
#include "modeling/operating_unit.h"
#include "plan/plan_node.h"

namespace mb2 {

/// One OU occurrence with its model input features.
struct TranslatedOu {
  OuType type;
  FeatureVector features;
};

/// Rows, columns per row and bytes per row of a set of tuples.
struct RowSet {
  double rows = 0.0;
  double cols = 0.0;
  double width = 0.0;
};

/// The counts a plan node's OU features are computed from.
struct NodeRows {
  /// What the node reads: its child's output, a hash join's build side, a
  /// literal INSERT's rows; for a scan only `rows`, the table's row slots or
  /// the index's entries.
  RowSet in;
  RowSet probe;              ///< a hash join's probe side
  double out_rows = 0.0;     ///< scan: rows read before its filter; join: matches
  double distinct = 0.0;     ///< join build keys, groups, sort keys
  double page_misses = 0.0;  ///< buffer-pool misses staging a disk table
};

/// The count, the first row's columns (0 when empty) and the mean TupleSize.
RowSet MeasureRows(const std::vector<Tuple> &rows);

/// Whether a sequential scan evaluates its predicate inside the scan loop,
/// its SEQ_SCAN OU covering the filter with no ARITHMETIC OU: vectorized
/// mode, an in-memory table, no projection, a predicate the block driver
/// takes.
bool ScanFusesFilter(const SeqScanPlan &scan, ExecutionMode mode,
                     const Table &table);

/// Appends the OUs one execution of `node` itself runs in `mode` (after its
/// children's), in execution order, with features from `rows`.
void AppendNodeOus(const PlanNode &node, const NodeRows &rows,
                   ExecutionMode mode, const Catalog &catalog,
                   std::vector<TranslatedOu> *out);

}  // namespace mb2
