#include "modeling/operating_unit.h"

#include <array>

#include "common/macros.h"

namespace mb2 {

namespace {

std::vector<std::string> ExecFeatureNames() {
  return {"num_rows", "num_cols",     "avg_tuple_size", "cardinality",
          "payload_size", "num_loops", "exec_mode"};
}

std::array<OuDescriptor, kNumOuTypes> BuildDescriptors() {
  std::array<OuDescriptor, kNumOuTypes> d{};
  auto set = [&](OuType t, const char *name, const char *span_name,
                 OuClass cls, std::vector<std::string> feats, OuComplexity cx,
                 int32_t n_feat, int32_t mem_feat = -1) {
    d[static_cast<size_t>(t)] = OuDescriptor{
        t, name, span_name, cls, std::move(feats), cx, n_feat, mem_feat};
  };

  set(OuType::kSeqScan, "SEQ_SCAN", "exec.seq_scan", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kIdxScan, "IDX_SCAN", "exec.idx_scan", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kHashJoinBuild, "HASHJOIN_BUILD", "exec.hashjoin_build",
      OuClass::kSingular, ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kHashJoinProbe, "HASHJOIN_PROBE", "exec.hashjoin_probe",
      OuClass::kSingular, ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kAggBuild, "AGG_BUILD", "exec.agg_build", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0, /*mem_feat=*/3);
  set(OuType::kAggProbe, "AGG_PROBE", "exec.agg_probe", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kSortBuild, "SORT_BUILD", "exec.sort_build", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kNLogN, 0);
  set(OuType::kSortIterate, "SORT_ITER", "exec.sort_iter", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kInsert, "INSERT", "exec.insert", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kUpdate, "UPDATE", "exec.update", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kDelete, "DELETE", "exec.delete", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kArithmetic, "ARITHMETICS", "exec.arithmetics",
      OuClass::kSingular, {"num_rows", "op_complexity", "exec_mode"},
      OuComplexity::kLinear, 0);
  set(OuType::kOutput, "OUTPUT", "exec.output", OuClass::kSingular,
      ExecFeatureNames(), OuComplexity::kLinear, 0);
  set(OuType::kGarbageCollection, "GC", "gc.pass", OuClass::kBatch,
      {"versions_unlinked", "bytes_reclaimed", "gc_interval_us"},
      OuComplexity::kLinear, 0);
  set(OuType::kIndexBuild, "INDEX_BUILD", "index.build", OuClass::kContending,
      {"num_rows", "num_keys", "key_size", "cardinality", "num_threads"},
      OuComplexity::kNLogN, 0);
  set(OuType::kLogSerialize, "LOG_SERIALIZE", "wal.serialize", OuClass::kBatch,
      {"num_records", "num_bytes", "num_buffers", "interval_us"},
      OuComplexity::kLinear, 0);
  set(OuType::kLogFlush, "LOG_FLUSH", "wal.flush", OuClass::kBatch,
      {"num_bytes", "num_buffers", "flush_interval_us"}, OuComplexity::kLinear,
      1);
  set(OuType::kTxnBegin, "TXN_BEGIN", "txn.begin", OuClass::kContending,
      {"arrival_rate", "running_txns"}, OuComplexity::kConstant, -1);
  set(OuType::kTxnCommit, "TXN_COMMIT", "txn.commit", OuClass::kContending,
      {"arrival_rate", "running_txns"}, OuComplexity::kConstant, -1);
  // Block I/O over the disk-backed heap. PAGE_READ's cost is bimodal per
  // page (buffer-pool hit vs miss), so the estimated miss count is its own
  // feature — a linear model then fits hit_cost*num_pages +
  // miss_extra*est_misses. Training measures actual misses; serving
  // estimates them from table pages vs pool capacity (the cardinality
  // train-on-actuals/serve-on-estimates idiom).
  set(OuType::kPageRead, "PAGE_READ", "storage.page_read", OuClass::kBatch,
      {"num_pages", "est_misses", "num_rows", "pool_pages"},
      OuComplexity::kLinear, 0);
  set(OuType::kPageWrite, "PAGE_WRITE", "storage.page_write", OuClass::kBatch,
      {"num_pages", "num_bytes", "pool_pages"}, OuComplexity::kLinear, 0);
  set(OuType::kPageEvict, "PAGE_EVICT", "storage.page_evict", OuClass::kBatch,
      {"num_pages", "pool_pages"}, OuComplexity::kLinear, 0);
  return d;
}

}  // namespace

const OuDescriptor &GetOuDescriptor(OuType type) {
  static const std::array<OuDescriptor, kNumOuTypes> kDescriptors =
      BuildDescriptors();
  MB2_ASSERT(type < OuType::kNumOuTypes, "bad OU type");
  return kDescriptors[static_cast<size_t>(type)];
}

const char *OuTypeName(OuType type) { return GetOuDescriptor(type).name; }

FeatureVector MakeExecFeatures(double num_rows, double num_cols,
                               double avg_tuple_size, double cardinality,
                               double payload_size, double num_loops,
                               double exec_mode) {
  return {num_rows, num_cols, avg_tuple_size, cardinality,
          payload_size, num_loops, exec_mode};
}

}  // namespace mb2
