#pragma once

/// \file operating_unit.h
/// The operating-unit (OU) decomposition of the engine — Table 1 of the
/// paper. An OU is a step the DBMS performs to complete a task: query
/// execution steps (build a join hash table), maintenance steps (garbage
/// collection), and self-driving actions (index build). Every OU gets its
/// own behavior model; the enum below is the contract between the engine's
/// instrumentation, the OU-runners, and the modeling layer.

#include <cstdint>
#include <string>
#include <vector>

namespace mb2 {

enum class OuType : uint8_t {
  // --- Execution (singular) ---
  kSeqScan = 0,
  kIdxScan,
  kHashJoinBuild,
  kHashJoinProbe,
  kAggBuild,
  kAggProbe,
  kSortBuild,
  kSortIterate,
  kInsert,
  kUpdate,
  kDelete,
  kArithmetic,
  // --- Network (singular) ---
  kOutput,
  // --- Util (batch) ---
  kGarbageCollection,
  // --- Contending ---
  kIndexBuild,
  // --- WAL (batch) ---
  kLogSerialize,
  kLogFlush,
  // --- Transactions (contending) ---
  kTxnBegin,
  kTxnCommit,
  // --- Block I/O (batch; disk-backed table heap, DESIGN.md §4i) ---
  kPageRead,
  kPageWrite,
  kPageEvict,

  kNumOuTypes,
};

constexpr size_t kNumOuTypes = static_cast<size_t>(OuType::kNumOuTypes);

/// Behavior pattern of an OU (Sec 4.2). Singular OUs describe one
/// invocation's work; batch OUs describe the aggregate work of a forecast
/// interval; contending OUs carry internal-contention features (threads,
/// arrival rates).
enum class OuClass : uint8_t { kSingular, kBatch, kContending };

/// Asymptotic complexity in the tuple count used for output-label
/// normalization (Sec 4.3).
enum class OuComplexity : uint8_t { kConstant, kLinear, kNLogN };

/// Static description of one OU: its name, trace-span name, class,
/// input-feature names, and the normalization rules for its labels.
struct OuDescriptor {
  OuType type;
  const char *name;
  /// Name of the trace span the OU's tracker scope opens (a literal, as
  /// ObsSpan requires). Execution OUs' names start with "exec.".
  const char *span_name;
  OuClass ou_class;
  std::vector<std::string> feature_names;
  OuComplexity complexity;
  /// Feature index holding the tuple/record count `n` used to normalize
  /// labels; -1 disables normalization for this OU.
  int32_t tuple_count_feature;
  /// Feature index used to normalize the memory label. Joins pre-allocate by
  /// tuple count; aggregation hash tables grow with distinct keys, so the
  /// agg-build OU normalizes memory by its cardinality feature instead
  /// (Sec 4.3's special case). -1 follows tuple_count_feature.
  int32_t memory_normalizer_feature;
};

const OuDescriptor &GetOuDescriptor(OuType type);
const char *OuTypeName(OuType type);

/// Feature vector for one OU invocation. Width varies per OU (at most 10 per
/// the paper's low-dimensionality principle).
using FeatureVector = std::vector<double>;

/// Canonical feature layout for the 12 "singular" execution OUs:
///   [0] num_rows         input tuples
///   [1] num_cols         input tuple columns
///   [2] avg_tuple_size   bytes
///   [3] cardinality      estimated key cardinality (sort/join/agg)
///   [4] payload_size     hash-table entry / sort-row payload bytes
///   [5] num_loops        repeated invocations (index-nested-loop joins)
///   [6] exec_mode        0 interpret / 1 compiled
namespace exec_feature {
constexpr size_t kNumRows = 0;
constexpr size_t kNumCols = 1;
constexpr size_t kAvgTupleSize = 2;
constexpr size_t kCardinality = 3;
constexpr size_t kPayloadSize = 4;
constexpr size_t kNumLoops = 5;
constexpr size_t kExecMode = 6;
constexpr size_t kCount = 7;
}  // namespace exec_feature

/// Builds the 7-wide singular execution feature vector.
FeatureVector MakeExecFeatures(double num_rows, double num_cols,
                               double avg_tuple_size, double cardinality,
                               double payload_size, double num_loops,
                               double exec_mode);

}  // namespace mb2
