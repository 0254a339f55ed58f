#pragma once

// The three workloads, and the pieces the two SQL workloads (oltp, olap)
// share: engine-counter snapshots around the traced loop and the in-process
// replay that times each layer's public calls.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "database.h"

namespace perfbench {

Report RunOltp(const RunConfig &cfg);
Report RunOlap(const RunConfig &cfg);
Report RunOuServe(const RunConfig &cfg);

/// Set-ups per end-to-end run of the SQL workloads; setup_s is their median.
constexpr int kSqlSetups = 5;

/// One generated SQL operation.
struct SqlOp {
  std::string sql;
  bool heavy = false;
  size_t kind = 0;            ///< statement kind or template index
  double scanned_rows = 0.0;  ///< rows in the tables the statement scans
  bool disk = false;          ///< scans the disk-backed table
};

/// Runs `sql` in-process; records a failed check on error.
mb2::QueryResult MustExecute(mb2::Database &db, const std::string &sql, Report *r);

/// Order-insensitive checksum of a result: sum of per-row hashes.
uint64_t ChecksumRows(const std::vector<mb2::Tuple> &rows);

/// The traced repeat of a SQL workload's loop: metrics sampling on, a span
/// per client call, engine counters (plan cache, WAL flushes, commits) read
/// before and after, then the ping floor. Fills the per-layer metrics that
/// come from the loop itself.
LoopResult RunTracedSqlLoop(mb2::Database &db, mb2::net::Server &server, size_t conns,
                            double seconds, size_t windows, const OpFn &op,
                            const LoopResult &untraced, SpanLog *spans, Report *r);

/// In-process replay of a seeded sample of a SQL workload's operations.
/// `frontend_ops` go through Database::Execute(sql) (sql.frontend_us);
/// `chain_ops` through sql::Parse -> Begin -> ExecuteInTxn -> Commit ->
/// FlushNow, each call inside a span, with GarbageCollector::RunOnce spans
/// between them. Fills the sql/exec/txn/wal/gc/storage/translate metrics and
/// trace.residual_pct against the traced loop.
void ReplaySqlOps(mb2::Database &db, const std::vector<SqlOp> &frontend_ops,
                  const std::vector<SqlOp> &chain_ops,
                  const std::vector<std::string> &kind_names,
                  const LoopResult &traced, SpanLog *spans, Report *r);

/// Client::Ping p50 with `conns` concurrent connections.
double MeasurePingP50Us(uint16_t port, size_t conns);

/// Last traced-run steps every workload shares: the WAL-device probe, then
/// the span log is written out next to the work directory.
void FinishTrace(const RunConfig &cfg, const SpanLog &spans, Report *r);

}  // namespace perfbench
