// Replication benchmark: a loopback primary + follower pair under a live
// insert load. Phase 1 measures steady-state shipping — replication lag
// (bytes behind the durable tip, sampled while the writer runs), apply
// throughput, and time-to-converge once the writer stops. Phase 2 kills the
// primary under a health-checked FailoverCoordinator and measures wall-clock
// failover time (detection + promotion replay), asserting zero
// committed-row loss. Results go to BENCH_repl.json so future PRs have a
// perf baseline for the replication path.
//
//   --smoke       tiny sizes for CI (ctest label "perf"): asserts zero lost
//                 rows, a completed failover, and a valid JSON artifact
//   --out PATH    JSON output path (default BENCH_repl.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "database.h"
#include "harness.h"
#include "metrics/metrics_collector.h"
#include "net/server.h"
#include "repl/health.h"
#include "repl/replication.h"

using namespace mb2;
using namespace mb2::bench;

namespace {

constexpr const char *kPrimaryWal = "/tmp/mb2_bench_repl_primary.wal";
constexpr const char *kCopyWal = "/tmp/mb2_bench_repl_copy.wal";
constexpr const char *kPromotedWal = "/tmp/mb2_bench_repl_promoted.wal";

double Percentile(std::vector<double> *sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

size_t RowCount(Database *db) {
  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = "t";
  PlanPtr plan = FinalizePlan(std::move(scan), db->catalog());
  return db->Execute(*plan).batch.rows.size();
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  std::string out_path = "BENCH_repl.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const size_t steady_rows = smoke ? 400 : 5000;
  const size_t failover_rows = smoke ? 100 : 1000;

  Section header("WAL-shipping replication");
  std::printf("(mode=%s, steady rows=%zu, failover rows=%zu)\n",
              smoke ? "smoke" : "bench", steady_rows, failover_rows);

  std::remove(kPrimaryWal);
  std::remove(kCopyWal);
  std::remove(kPromotedWal);

  // --- Primary + follower pair --------------------------------------------
  Database::Options popts;
  popts.wal_path = kPrimaryWal;
  Database primary(popts);
  primary.settings().SetInt("wal_sync_commit", 1);
  primary.settings().SetInt("repl_heartbeat_ms", 10);
  primary.settings().SetInt("repl_failover_grace_ms", 100);
  const char *kDdl = "CREATE TABLE t (id INTEGER, payload VARCHAR(8))";
  if (!primary.Execute(kDdl).ok()) {
    std::fprintf(stderr, "FAIL: setup DDL\n");
    return 1;
  }

  repl::ReplicationSource source(&primary);
  net::ServerOptions sopts;
  sopts.num_reactors = 1;
  sopts.num_workers = 2;
  net::Server server(&primary, nullptr, sopts);
  server.set_repl_service(&source);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "FAIL: server start\n");
    return 1;
  }

  Database follower;
  follower.settings().SetInt("repl_heartbeat_ms", 10);
  follower.settings().SetInt("repl_failover_grace_ms", 100);
  if (!follower.Execute(kDdl).ok()) {
    std::fprintf(stderr, "FAIL: follower DDL\n");
    return 1;
  }
  repl::ReplicaNodeOptions ropts;
  ropts.replica_id = "bench-r1";
  ropts.primary_port = server.port();
  ropts.wal_copy_path = kCopyWal;
  ropts.heartbeat_ms = 1;  // tight fetch loop: measure shipping, not polling
  repl::ReplicaNode node(&follower, ropts);
  if (!node.Bootstrap().ok() || !node.Start().ok()) {
    std::fprintf(stderr, "FAIL: follower bootstrap/start\n");
    return 1;
  }

  // --- Phase 1: steady-state lag + apply throughput -----------------------
  std::atomic<bool> writing{true};
  std::vector<double> lag_bytes_samples;
  std::thread sampler([&] {
    while (writing.load(std::memory_order_acquire)) {
      const uint64_t tip = source.durable_tip();
      const uint64_t applied = node.applied_offset();
      lag_bytes_samples.push_back(
          tip > applied ? static_cast<double>(tip - applied) : 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  WallTimer steady_wall;
  for (size_t i = 0; i < steady_rows; i++) {
    primary.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", 'p')");
  }
  const double write_seconds = steady_wall.Seconds();
  writing.store(false, std::memory_order_release);
  sampler.join();

  // Convergence: how long until the follower drains the remaining lag.
  const int64_t drain_begin_us = NowMicros();
  while (node.applied_offset() < source.durable_tip()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    if (NowMicros() - drain_begin_us > 30'000'000) {
      std::fprintf(stderr, "FAIL: follower never converged\n");
      return 1;
    }
  }
  const double drain_ms =
      static_cast<double>(NowMicros() - drain_begin_us) / 1000.0;
  const double applied_records =
      static_cast<double>(node.applied_records());
  const double apply_rps =
      applied_records / (write_seconds + drain_ms / 1000.0);
  const double lag_mean =
      lag_bytes_samples.empty()
          ? 0.0
          : std::accumulate(lag_bytes_samples.begin(), lag_bytes_samples.end(),
                            0.0) /
                static_cast<double>(lag_bytes_samples.size());
  std::vector<double> lag_sorted = lag_bytes_samples;
  const double lag_p95 = Percentile(&lag_sorted, 0.95);
  const double lag_max =
      lag_sorted.empty() ? 0.0 : lag_sorted.back();

  PrintKv("primary write rate",
          Fmt(static_cast<double>(steady_rows) / write_seconds) + " rows/s");
  PrintKv("apply throughput", Fmt(apply_rps) + " records/s");
  PrintKv("steady-state lag",
          "mean " + Fmt(lag_mean) + " B, p95 " + Fmt(lag_p95) + " B, max " +
              Fmt(lag_max) + " B (" +
              std::to_string(lag_bytes_samples.size()) + " samples)");
  PrintKv("drain after writer stop", Fmt(drain_ms) + " ms");

  // --- Phase 2: kill the primary, measure failover ------------------------
  size_t committed = steady_rows;
  for (size_t i = 0; i < failover_rows; i++) {
    primary.Execute("INSERT INTO t VALUES (" +
                    std::to_string(steady_rows + i) + ", 'f')");
  }
  committed += failover_rows;

  repl::HealthMonitorOptions watch;
  watch.port = server.port();
  repl::FailoverCoordinator coordinator(&node, watch, &follower.settings(),
                                        kPrimaryWal, kPromotedWal);
  coordinator.Start();

  const int64_t killed_at_us = NowMicros();
  server.Stop();
  while (!coordinator.failed_over() &&
         NowMicros() - killed_at_us < 30'000'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double failover_ms =
      static_cast<double>(NowMicros() - killed_at_us) / 1000.0;
  coordinator.Stop();

  const bool failed_over = coordinator.failed_over();
  const bool promote_ok = coordinator.promote_status().ok();
  const size_t follower_rows = RowCount(&follower);
  const size_t lost = committed > follower_rows ? committed - follower_rows : 0;

  PrintKv("failover (detect + promote)", Fmt(failover_ms) + " ms");
  PrintKv("promotion status", promote_ok ? "ok" : "FAILED");
  PrintKv("committed rows", std::to_string(committed) + " written, " +
                                std::to_string(follower_rows) +
                                " on new primary, " + std::to_string(lost) +
                                " lost");

  // --- JSON ---------------------------------------------------------------
  FILE *f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"mode\": \"%s\",\n  \"stamp\": %s,\n"
      "  \"steady_state\": {\"rows\": %zu, \"write_rows_per_s\": %s, "
      "\"apply_records_per_s\": %s, \"lag_bytes_mean\": %s, "
      "\"lag_bytes_p95\": %s, \"lag_bytes_max\": %s, \"drain_ms\": %s},\n"
      "  \"failover\": {\"rows\": %zu, \"failover_ms\": %s, "
      "\"promote_ok\": %s, \"committed\": %zu, \"recovered\": %zu, "
      "\"lost\": %zu}\n}\n",
      smoke ? "smoke" : "bench", BenchStamp().c_str(), steady_rows,
      Fmt(static_cast<double>(steady_rows) / write_seconds).c_str(),
      Fmt(apply_rps).c_str(), Fmt(lag_mean).c_str(), Fmt(lag_p95).c_str(),
      Fmt(lag_max).c_str(), Fmt(drain_ms).c_str(), failover_rows,
      Fmt(failover_ms).c_str(),
      promote_ok ? "true" : "false", committed, follower_rows, lost);
  std::fclose(f);
  PrintKv("json written", out_path);

  // --- Smoke assertions (ctest -L perf) -----------------------------------
  if (smoke) {
    bool ok = true;
    if (!failed_over || !promote_ok) {
      std::fprintf(stderr, "FAIL: failover did not complete\n");
      ok = false;
    }
    if (lost != 0) {
      std::fprintf(stderr, "FAIL: %zu committed rows lost\n", lost);
      ok = false;
    }
    if (apply_rps <= 0.0) {
      std::fprintf(stderr, "FAIL: no apply throughput measured\n");
      ok = false;
    }
    FILE *check = std::fopen(out_path.c_str(), "r");
    long depth = 0, chars = 0;
    bool balanced_error = check == nullptr;
    if (check != nullptr) {
      for (int c = std::fgetc(check); c != EOF; c = std::fgetc(check)) {
        chars++;
        if (c == '{' || c == '[') depth++;
        if (c == '}' || c == ']') depth--;
        if (depth < 0) balanced_error = true;
      }
      std::fclose(check);
    }
    if (balanced_error || depth != 0 || chars < 64) {
      std::fprintf(stderr, "FAIL: %s is not valid JSON\n", out_path.c_str());
      ok = false;
    }
    if (!ok) return 1;
    std::printf("\nsmoke assertions passed\n");
  }
  return 0;
}
