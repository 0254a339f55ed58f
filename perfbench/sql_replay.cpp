// Shared pieces of the SQL workloads: answer checksums, engine-counter
// deltas around the traced loop, and the in-process replay that times each
// layer's public calls from outside the layer.

#include <cmath>
#include <cstdio>
#include <thread>

#include "modeling/ou_translator.h"
#include "obs/metrics_registry.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

mb2::QueryResult MustExecute(mb2::Database &db, const std::string &sql, Report *r) {
  auto result = db.Execute(sql);
  if (!result.ok()) {
    r->Fail(sql.substr(0, 80) + ": " + result.status().ToString());
    return {};
  }
  return std::move(result.value());
}

uint64_t ChecksumRows(const std::vector<mb2::Tuple> &rows) {
  uint64_t sum = 0;
  for (const mb2::Tuple &row : rows) {
    uint64_t h = 0x51ed270b27c1f6a3ULL;
    for (const mb2::Value &v : row) h = mb2::HashCombine(h, v.Hash());
    sum += h;
  }
  return sum;
}

namespace {

/// Engine counters read before and after the traced loop.
struct EngineSnapshot {
  mb2::sql::PlanCacheStats plan_cache;
  uint64_t wal_flushes = 0;
  uint64_t commits = 0;
  uint64_t wal_bytes = 0;
};

EngineSnapshot TakeEngineSnapshot(mb2::Database &db) {
  auto &registry = mb2::MetricsRegistry::Instance();
  EngineSnapshot s;
  s.plan_cache = db.plan_cache().stats();
  s.wal_flushes = registry.GetCounter("mb2_wal_flushes_total").Value();
  s.commits = registry.GetCounter("mb2_txn_commits_total").Value();
  s.wal_bytes = db.log_manager().total_bytes_flushed();
  return s;
}

}  // namespace

LoopResult RunTracedSqlLoop(mb2::Database &db, mb2::net::Server &server, size_t conns,
                            double seconds, size_t windows, const OpFn &op,
                            const LoopResult &untraced, SpanLog *spans, Report *r) {
  mb2::obs::SetEnabled(true);
  const EngineSnapshot before = TakeEngineSnapshot(db);
  LoopResult traced = RunClosedLoop(server, conns, 0.0, seconds, windows, op, spans);
  const EngineSnapshot after = TakeEngineSnapshot(db);
  mb2::obs::SetEnabled(false);

  const double hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double lookups =
      hits + static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  if (lookups > 0) r->layer["sql.plan_cache_hit_ratio"] = hits / lookups;
  const double commits = static_cast<double>(after.commits - before.commits);
  if (commits > 0) {
    r->layer["wal.flushes_per_commit"] =
        static_cast<double>(after.wal_flushes - before.wal_flushes) / commits;
    r->layer["wal.bytes_per_commit"] =
        static_cast<double>(after.wal_bytes - before.wal_bytes) / commits;
  }
  FillLoopLayerMetrics(untraced, traced, r);
  r->layer["net.ping_us"] = MeasurePingP50Us(server.port(), conns);
  return traced;
}

namespace {

/// Per-class medians of the replayed layer times, for trace.residual_pct.
struct ClassLayers {
  std::vector<double> frontend, begin, execute, commit, flush;
};

void AddNote(Report *r, const std::string &what, double value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-44s %12.3f", what.c_str(), value);
  r->notes.push_back(buf);
}

}  // namespace

void ReplaySqlOps(mb2::Database &db, const std::vector<SqlOp> &frontend_ops,
                  const std::vector<SqlOp> &chain_ops,
                  const std::vector<std::string> &kind_names,
                  const LoopResult &traced, SpanLog *spans, Report *r) {
  const size_t kinds = kind_names.size();
  ClassLayers per_class[2];
  std::vector<std::vector<double>> frontend_by_kind(kinds), parse_by_kind(kinds),
      exec_by_kind(kinds);

  // Phase A: the full frontend (plan cache, parse, bind) as the server runs it.
  for (const SqlOp &op : frontend_ops) {
    const int64_t t0 = NowNs();
    auto result = db.Execute(op.sql);
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (!result.ok() || result.value().aborted) {
      r->Fail("replay: " + op.sql.substr(0, 60));
      continue;
    }
    const double frontend = us - result.value().elapsed_us;
    frontend_by_kind[op.kind].push_back(frontend);
    per_class[op.heavy].frontend.push_back(frontend);
  }

  // Phase B: each public call of the request path in its own span.
  mb2::OuTranslator translator(&db.catalog(), &db.estimator(), &db.settings());
  std::vector<double> ns_per_row, disk_ns_per_row, translate_us, gc_us, gc_versions;
  uint64_t pool_hits = 0, pool_misses = 0, disk_scans = 0;
  uint64_t request_id = 1ULL << 62;
  for (size_t i = 0; i < chain_ops.size(); i++) {
    const SqlOp &op = chain_ops[i];
    request_id++;
    mb2::Result<mb2::sql::BoundStatement> bound = mb2::Status::Ok();
    double exec_us = 0.0;
    {
      ScopedSpan root(spans, op.heavy ? "replay.heavy" : "replay.light", request_id);
      int64_t t = NowNs();
      {
        ScopedSpan s(spans, "sql.parse", request_id);
        bound = mb2::sql::Parse(&db, op.sql);
      }
      parse_by_kind[op.kind].push_back(static_cast<double>(NowNs() - t) / 1e3);
      if (!bound.ok() || bound.value().plan == nullptr) {
        r->Fail("replay parse: " + op.sql.substr(0, 60));
        continue;
      }
      const mb2::PlanNode &plan = *bound.value().plan;
      t = NowNs();
      std::unique_ptr<mb2::Transaction> txn;
      {
        ScopedSpan s(spans, "txn.begin", request_id);
        txn = db.txn_manager().Begin();
      }
      per_class[op.heavy].begin.push_back(static_cast<double>(NowNs() - t) / 1e3);
      mb2::BufferPool *pool = db.buffer_pool();
      const mb2::BufferPool::Stats pool0 =
          pool != nullptr ? pool->stats() : mb2::BufferPool::Stats{};
      mb2::Batch out;
      t = NowNs();
      mb2::Status status;
      {
        ScopedSpan s(spans, "exec.execute", request_id);
        status = db.engine().ExecuteInTxn(plan, txn.get(), &out);
      }
      exec_us = static_cast<double>(NowNs() - t) / 1e3;
      if (!status.ok()) {
        db.txn_manager().Abort(txn.get());
        r->Fail("replay execute: " + op.sql.substr(0, 60) + ": " + status.ToString());
        continue;
      }
      if (op.disk && pool != nullptr) {
        const mb2::BufferPool::Stats pool1 = pool->stats();
        pool_hits += pool1.hits - pool0.hits;
        pool_misses += pool1.misses - pool0.misses;
        disk_scans++;
        disk_ns_per_row.push_back(exec_us * 1e3 / op.scanned_rows);
      }
      t = NowNs();
      {
        ScopedSpan s(spans, "txn.commit", request_id);
        status = db.txn_manager().Commit(txn.get());
      }
      per_class[op.heavy].commit.push_back(static_cast<double>(NowNs() - t) / 1e3);
      if (!status.ok()) r->Fail("replay commit: " + status.ToString());
      t = NowNs();
      {
        ScopedSpan s(spans, "wal.flush", request_id);
        status = db.log_manager().FlushNow();
      }
      per_class[op.heavy].flush.push_back(static_cast<double>(NowNs() - t) / 1e3);
      if (!status.ok()) r->Fail("replay flush: " + status.ToString());
    }
    per_class[op.heavy].execute.push_back(exec_us);
    exec_by_kind[op.kind].push_back(exec_us);
    if (op.scanned_rows > 0) ns_per_row.push_back(exec_us * 1e3 / op.scanned_rows);

    // Translation is the planner's path, not the request's: its own root.
    int64_t t = NowNs();
    {
      ScopedSpan s(spans, "modeling.translate", request_id);
      translator.TranslateQuery(*bound.value().plan);
    }
    translate_us.push_back(static_cast<double>(NowNs() - t) / 1e3);

    if (i % 64 == 63) {
      t = NowNs();
      mb2::GcResult gc;
      {
        ScopedSpan s(spans, "gc.run", request_id);
        gc = db.gc().RunOnce();
      }
      gc_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      gc_versions.push_back(static_cast<double>(gc.versions_unlinked));
    }
  }

  auto &m = r->layer;
  std::vector<double> all_frontend, all_parse, all_exec;
  for (size_t k = 0; k < kinds; k++) {
    all_frontend.insert(all_frontend.end(), frontend_by_kind[k].begin(),
                        frontend_by_kind[k].end());
    all_parse.insert(all_parse.end(), parse_by_kind[k].begin(), parse_by_kind[k].end());
    all_exec.insert(all_exec.end(), exec_by_kind[k].begin(), exec_by_kind[k].end());
    AddNote(r, "sql.parse_us[" + kind_names[k] + "]", Median(parse_by_kind[k]));
    AddNote(r, "sql.frontend_us[" + kind_names[k] + "]", Median(frontend_by_kind[k]));
    AddNote(r, "exec.execute_us[" + kind_names[k] + "]", Median(exec_by_kind[k]));
  }
  m["sql.parse_us"] = Median(all_parse);
  m["sql.frontend_us"] = Median(all_frontend);
  m["exec.execute_us"] = Median(all_exec);
  m["exec.ns_per_row"] = Median(ns_per_row);
  m["txn.commit_us"] = spans->MedianSelfUs("txn.commit");
  // Read-only commits leave nothing to flush; the heavy class carries the
  // writes (oltp) or is as empty as the light one (olap).
  m["wal.flush_us"] = Median(per_class[1].flush);
  m["gc.run_us"] = Median(gc_us);
  m["gc.versions_per_run"] = Median(gc_versions);
  m["modeling.translate_us"] = Median(translate_us);
  if (disk_scans > 0) {
    m["storage.pool_hit_ratio"] =
        static_cast<double>(pool_hits) / static_cast<double>(pool_hits + pool_misses);
    m["storage.misses_per_scan"] =
        static_cast<double>(pool_misses) / static_cast<double>(disk_scans);
    m["storage.disk_ns_per_row"] = Median(disk_ns_per_row);
  }

  // Residual: the share of each class's client p50 that neither the network
  // floor (ping p50) nor a replayed layer's time accounts for.
  double worst = 0.0;
  for (int heavy = 0; heavy < 2; heavy++) {
    const ClassStats &c = heavy ? traced.heavy : traced.light;
    const ClassLayers &l = per_class[heavy];
    const double client = Median(c.lat_us);
    if (client <= 0.0) continue;
    const double covered = m["net.ping_us"] + Median(l.frontend) + Median(l.begin) +
                           Median(l.execute) + Median(l.commit) + Median(l.flush);
    const double pct = 100.0 * (client - covered) / client;
    AddNote(r, std::string("trace.residual_pct[") + (heavy ? "heavy" : "light") + "]",
            pct);
    if (std::abs(pct) > std::abs(worst)) worst = pct;
  }
  m["trace.residual_pct"] = worst;
}

double MeasurePingP50Us(uint16_t port, size_t conns) {
  std::vector<std::vector<double>> lat(conns);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      mb2::net::ClientOptions copts;
      copts.port = port;
      copts.pool_size = 1;
      mb2::net::Client client(copts);
      client.Ping();  // connect outside the sample
      for (int i = 0; i < 2000; i++) {
        const int64_t t = NowNs();
        if (client.Ping().ok()) lat[c].push_back(static_cast<double>(NowNs() - t) / 1e3);
      }
    });
  }
  for (std::thread &t : threads) t.join();
  std::vector<double> all;
  for (auto &v : lat) all.insert(all.end(), v.begin(), v.end());
  return Median(all);
}

namespace {

/// Median LogManager::FlushNow time of one small commit record on a WAL file
/// in `workdir` (the disk the checkout lives on).
double MeasureFlushDiskUs(const std::string &workdir) {
  mb2::SettingsManager settings;
  const std::string path = workdir + "/flush-probe.wal";
  std::vector<double> us;
  {
    mb2::LogManager log(path, &settings);
    mb2::RedoRecord rec;
    rec.op = mb2::LogOpType::kUpdate;
    rec.table_id = 1;
    for (int i = 0; i < 200; i++) {
      rec.slot = static_cast<uint64_t>(i);
      rec.after = {mb2::Value::Integer(i), mb2::Value::Integer(2 * i)};
      log.Serialize({rec}, static_cast<uint64_t>(i));
      const int64_t t = NowNs();
      log.FlushNow();
      us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    }
  }
  std::remove(path.c_str());
  return Median(us);
}

}  // namespace

void FinishTrace(const RunConfig &cfg, const SpanLog &spans, Report *r) {
  r->layer["wal.flush_disk_us"] = MeasureFlushDiskUs(cfg.workdir);
  const std::string path = cfg.workdir + ".spans-" + cfg.workload + ".tsv";
  if (spans.WriteTsv(path)) {
    r->notes.push_back("spans written to " + path + " (" +
                       std::to_string(spans.spans().size()) + " spans)");
  }
}

}  // namespace perfbench
