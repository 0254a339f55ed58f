#include "exec/execution_engine.h"

#include <chrono>

#include "exec/executors.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace mb2 {

QueryResult ExecutionEngine::ExecuteQuery(const PlanNode &plan) {
  QueryResult result;
  // Root span of the query's trace tree: the spans of its OUs (txn.begin,
  // each execution OU, wal.serialize around txn.commit) open below it.
  ObsSpan span("engine.execute_query");
  const auto start = std::chrono::steady_clock::now();

  auto txn = txn_manager_->Begin();
  ExecutionContext ctx(txn.get(), catalog_, settings_);
  result.status = ExecuteNode(plan, &ctx, &result.batch);
  if (result.status.ok()) {
    const Status commit_status = txn_manager_->Commit(txn.get());
    if (!commit_status.ok()) {
      // Commit already rolled the txn back (e.g. injected txn.commit fault);
      // surface it as an abort the caller may retry.
      result.status = commit_status;
      result.aborted = true;
    }
  } else {
    txn_manager_->Abort(txn.get());
    result.aborted = true;
  }

  result.elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  static Counter &queries =
      MetricsRegistry::Instance().GetCounter("mb2_queries_total");
  static Counter &query_aborts =
      MetricsRegistry::Instance().GetCounter("mb2_query_aborts_total");
  static Histogram &latency =
      MetricsRegistry::Instance().GetHistogram("mb2_query_latency_us");
  queries.Add();
  if (result.aborted) query_aborts.Add();
  latency.Observe(static_cast<double>(result.elapsed_us));
  return result;
}

Status ExecutionEngine::ExecuteInTxn(const PlanNode &plan, Transaction *txn,
                                     Batch *out) {
  ExecutionContext ctx(txn, catalog_, settings_);
  return ExecuteNode(plan, &ctx, out);
}

}  // namespace mb2
