// oltp: 4 connections against a 100k-row memory table with a unique B+tree
// index on its key. Light class: point SELECT (50%). Heavy class: single-row
// UPDATE (40%) and INSERT (10%). Durable commits (wal_sync_commit=1) with
// background GC on. Each connection updates only keys congruent to its own
// index, so no two transactions ever write the same row and no operation
// aborts; point reads cover every key.
//
// Check: after the loop the log device is closed without a final flush
// (LogManager::Crash), the WAL is replayed into a fresh database, and the
// replayed table must match the live one in row count and checksum.

#include <memory>

#include "common/rng.h"
#include "wal/log_recovery.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kWindows = 10;
constexpr size_t kConns = 4;
constexpr const char *kSchema = "CREATE TABLE kv (id INTEGER, a INTEGER, b INTEGER)";
constexpr const char *kIndex = "CREATE UNIQUE INDEX kv_pk ON kv (id)";
const std::vector<std::string> kKinds = {"select", "update", "insert"};

/// Seeded operation stream of one connection.
class OltpGen {
 public:
  OltpGen(uint64_t seed, uint64_t rows, size_t conn, int64_t insert_base)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + conn + 1),
        rows_(rows),
        conn_(conn),
        next_insert_(insert_base + static_cast<int64_t>(conn)) {}

  SqlOp Next(int64_t *key) {
    SqlOp op;
    op.scanned_rows = static_cast<double>(rows_);
    const int64_t dice = rng_.Uniform(0, 99);
    if (dice < 50) {
      *key = rng_.Uniform(int64_t{0}, static_cast<int64_t>(rows_) - 1);
      op.kind = 0;
      op.sql = "SELECT id, a, b FROM kv WHERE id = " + std::to_string(*key);
    } else if (dice < 90) {
      const int64_t slots = static_cast<int64_t>(rows_ / kConns);
      *key = static_cast<int64_t>(conn_) +
             static_cast<int64_t>(kConns) * rng_.Uniform(int64_t{0}, slots - 1);
      op.kind = 1;
      op.heavy = true;
      op.sql = "UPDATE kv SET a = a + 1 WHERE id = " + std::to_string(*key);
    } else {
      *key = next_insert_;
      next_insert_ += static_cast<int64_t>(kConns);
      op.kind = 2;
      op.heavy = true;
      op.sql = "INSERT INTO kv VALUES (" + std::to_string(*key) + ", " +
               std::to_string(rng_.Uniform(0, 1 << 20)) + ", " +
               std::to_string(rng_.Uniform(0, 1 << 20)) + ")";
    }
    return op;
  }

 private:
  mb2::Rng rng_;
  uint64_t rows_;
  size_t conn_;
  int64_t next_insert_;
};

struct Live {
  std::unique_ptr<mb2::Database> db;
  std::unique_ptr<mb2::net::Server> server;
  std::string wal_path;
};

Live SetUp(const RunConfig &cfg, uint64_t rows, int index, Report *r) {
  const int64_t t0 = NowNs();
  Live s;
  s.wal_path = cfg.workdir + "/oltp-" + std::to_string(index) + ".wal";
  mb2::Database::Options opts;
  opts.wal_path = s.wal_path;
  opts.start_gc = true;
  s.db = std::make_unique<mb2::Database>(opts);
  MustExecute(*s.db, kSchema, r);
  mb2::Rng rng(cfg.seed);
  for (uint64_t base = 0; base < rows; base += 1000) {
    std::string sql = "INSERT INTO kv VALUES ";
    for (uint64_t id = base; id < std::min(rows, base + 1000); id++) {
      if (id > base) sql += ", ";
      sql += "(" + std::to_string(id) + ", " + std::to_string(rng.Uniform(0, 1 << 20)) +
             ", " + std::to_string(rng.Uniform(0, 1 << 20)) + ")";
    }
    MustExecute(*s.db, sql, r);
  }
  if (!s.db->log_manager().FlushNow().ok()) r->Fail("load flush");
  MustExecute(*s.db, kIndex, r);
  s.db->settings().SetInt("wal_sync_commit", 1, "perfbench");
  s.server = std::make_unique<mb2::net::Server>(s.db.get(), nullptr, BenchServerOptions());
  if (!s.server->Start().ok()) r->Fail("server start");
  r->setup_s.push_back(SecondsSince(t0));
  return s;
}

/// Row count and checksum of kv, read in-process.
std::pair<size_t, uint64_t> TableDigest(mb2::Database &db, Report *r) {
  const mb2::QueryResult q = MustExecute(db, "SELECT id, a, b FROM kv", r);
  return {q.batch.rows.size(), ChecksumRows(q.batch.rows)};
}

}  // namespace

Report RunOltp(const RunConfig &cfg) {
  Report r;
  r.workload = "oltp";
  r.connections = kConns;
  r.min_ops_per_class = cfg.smoke ? 50 : 5000;
  const uint64_t rows = cfg.smoke ? 20000 : 100000;
  const double warmup_s = cfg.smoke ? 0.2 : 1.0;

  Live live;
  const int setups = (cfg.smoke || cfg.trace) ? 1 : kSqlSetups;
  for (int i = 0; i < setups; i++) {
    // Tear the previous set-up down, server first, before the next one.
    live.server.reset();
    live.db.reset();
    live = SetUp(cfg, rows, i, &r);
  }
  if (!r.errors.empty()) return r;

  std::vector<OltpGen> gens;
  for (size_t c = 0; c < kConns; c++) {
    gens.emplace_back(cfg.seed, rows, c, static_cast<int64_t>(rows));
  }
  std::vector<uint64_t> inserted(kConns, 0);
  const OpFn op = [&](size_t c, mb2::net::Client &client, uint64_t) {
    int64_t key = 0;
    const SqlOp sql = gens[c].Next(&key);
    OpOutcome out;
    out.heavy = sql.heavy;
    auto res = client.ExecuteSql(sql.sql);
    if (!res.ok()) return out;
    const mb2::net::RemoteQueryResult &q = res.value();
    out.aborted = q.aborted;
    out.server_us = q.elapsed_us;
    if (sql.kind == 0) {
      out.ok = !q.aborted && q.rows.size() == 1 && q.rows[0][0].AsInt() == key;
    } else {
      out.ok = !q.aborted;
      if (out.ok && sql.kind == 2) inserted[c]++;
    }
    return out;
  };

  r.loop = RunClosedLoop(*live.server, kConns, warmup_s, cfg.seconds, kWindows, op, nullptr);

  SpanLog spans;
  if (cfg.trace) {
    r.traced = RunTracedSqlLoop(*live.db, *live.server, kConns, cfg.seconds, kWindows, op,
                              r.loop, &spans, &r);
  }
  live.server->Stop();

  // Durability check: only bytes that reached the log device count.
  live.db->log_manager().Crash();
  const auto [live_rows, live_sum] = TableDigest(*live.db, &r);
  uint64_t acked_inserts = 0;
  for (uint64_t n : inserted) acked_inserts += n;
  if (live_rows != rows + acked_inserts) {
    r.Fail("live table has " + std::to_string(live_rows) + " rows, expected " +
           std::to_string(rows + acked_inserts));
  }
  {
    mb2::Database fresh;
    MustExecute(fresh, kSchema, &r);
    MustExecute(fresh, kIndex, &r);
    auto replayed = mb2::ReplayLog(live.wal_path, &fresh.catalog(), &fresh.txn_manager());
    if (!replayed.ok()) {
      r.Fail("WAL replay: " + replayed.status().ToString());
    } else {
      const auto [rows_back, sum_back] = TableDigest(fresh, &r);
      if (rows_back != live_rows || sum_back != live_sum) {
        r.Fail("WAL replay recovered " + std::to_string(rows_back) +
               " rows (checksum " + std::to_string(sum_back) + ") against " +
               std::to_string(live_rows) + " live (checksum " +
               std::to_string(live_sum) + ")");
      }
    }
  }

  if (cfg.trace) {
    // Replay on the live database with sync commit off, so Commit and the
    // explicit FlushNow are timed apart.
    if (!live.db->log_manager().OpenSegment(cfg.workdir + "/oltp-replay.wal").ok()) {
      r.Fail("replay WAL segment");
    }
    live.db->settings().SetInt("wal_sync_commit", 0, "perfbench");
    const size_t n = cfg.smoke ? 256 : 4000;
    // A separate key range for the replay's inserts.
    OltpGen gen(cfg.seed ^ 0x5eed, rows, 0, int64_t{1} << 40);
    std::vector<SqlOp> frontend, chain;
    int64_t key = 0;
    for (size_t i = 0; i < n; i++) frontend.push_back(gen.Next(&key));
    for (size_t i = 0; i < n; i++) chain.push_back(gen.Next(&key));
    ReplaySqlOps(*live.db, frontend, chain, kKinds, r.traced, &spans, &r);
    FinishTrace(cfg, spans, &r);
  }
  return r;
}

}  // namespace perfbench
