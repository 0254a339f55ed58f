// End-to-end autonomy benchmark: a live workload that shifts OLTP -> OLAP
// mid-run (the paper's day/night pattern compressed), executed under every
// static configuration and once under the autonomous controller. The
// controller ingests the SQL stream, forecasts per-template rates, prices
// index candidates with the trained behavior models, applies the best one
// online, and verifies it against observed latency — the full Sec 3 loop.
//
// Three guarantees are checked, not just reported:
//   * result fidelity: the FNV checksum over every query's result rows is
//     bit-identical across all configurations — autonomy must never change
//     answers, only latency;
//   * accountability: every applied action appears in the decision log with
//     its predicted baseline/benefit and the observed before/after latency;
//   * safety: zero failed rollbacks.
//
// Flags:
//   --smoke      CI sizes (ctest label "perf"): asserts >=1 beneficial
//                (applied and verified) action, zero failed rollbacks, and
//                identical checksums; writes the JSON artifact
//   --out PATH   JSON output path (default BENCH_autonomy.json)
//
// In full mode (no --smoke) the run is long enough that the controller's
// adaptation window is under 1% of queries, and the bench additionally
// asserts the controlled run beats every static configuration on p99.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "ctrl/controller.h"
#include "sql/parser.h"

using namespace mb2;
using namespace mb2::bench;

namespace {

uint64_t BatchChecksum(const Batch &batch) {
  uint64_t h = 1469598103934665603ull;
  for (const auto &row : batch.rows) {
    for (const auto &v : row) {
      for (char c : v.ToString()) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
        h *= 1099511628211ull;
      }
      h ^= '|';
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The scripted two-phase workload. Literals rotate deterministically, so
/// every configuration executes the byte-identical statement sequence.
struct Workload {
  std::vector<std::string> statements;  ///< full run, phase 1 then phase 2
  size_t phase_boundary = 0;            ///< index of the first OLAP statement
};

Workload MakeWorkload(int rows, size_t ticks_per_phase, size_t per_tick) {
  Workload w;
  // Phase 1 (OLTP): selective point filters on `k` — a sequential scan
  // until somebody builds ctrl_events_k.
  for (size_t t = 0; t < ticks_per_phase; t++) {
    for (size_t q = 0; q < per_tick; q++) {
      const size_t i = t * per_tick + q;
      w.statements.push_back("SELECT val FROM events WHERE k = " +
                             std::to_string((i * 37) % rows));
    }
  }
  w.phase_boundary = w.statements.size();
  // Phase 2 (OLAP): aggregates filtered on `grp` — the old index is useless,
  // a new one on `grp` is the win.
  for (size_t t = 0; t < ticks_per_phase; t++) {
    for (size_t q = 0; q < per_tick; q++) {
      const size_t i = t * per_tick + q;
      w.statements.push_back("SELECT COUNT(*), SUM(val) FROM events WHERE grp = " +
                             std::to_string((i * 13) % 64));
    }
  }
  return w;
}

void LoadEvents(Database *db, int rows) {
  auto created = db->Execute(
      "CREATE TABLE events (k INTEGER, grp INTEGER, val DOUBLE)");
  if (!created.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 created.status().ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < rows; i++) {
    db->Execute("INSERT INTO events VALUES (" + std::to_string(i) + ", " +
                std::to_string(i % 64) + ", " + std::to_string(i % 997) +
                ".5)");
  }
}

struct RunResult {
  std::string name;
  uint64_t checksum = 0;
  size_t failures = 0;
  double p99_us = 0.0;
  double p50_us = 0.0;
  double mean_us = 0.0;
  double seconds = 0.0;
  ctrl::ControllerStatus status;  ///< controlled run only
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Executes the scripted run on a fresh engine. `static_index_col` pre-builds
/// one index ("the DBA guessed"); `controlled` attaches the controller and
/// ticks it after every `per_tick` statements.
RunResult RunConfig(const std::string &name, const Workload &workload,
                    int rows, size_t per_tick, int64_t execution_mode,
                    const std::string &static_index_col, bool controlled) {
  RunResult res;
  res.name = name;

  Database db;
  LoadEvents(&db, rows);
  db.settings().SetInt("execution_mode", execution_mode);
  if (!static_index_col.empty()) {
    Table *events = db.catalog().GetTable("events");
    const int32_t col_idx = events->schema().ColumnIndex(static_index_col);
    if (col_idx < 0) {
      std::fprintf(stderr, "unknown static index column\n");
      std::exit(1);
    }
    const uint32_t col = static_cast<uint32_t>(col_idx);
    Action build = Action::CreateIndex(
        IndexSchema{"static_events_" + static_index_col, "events", {col},
                    false},
        4);
    if (!build.Apply(&db, "manual").ok()) {
      std::fprintf(stderr, "static index build failed\n");
      std::exit(1);
    }
  }

  std::unique_ptr<ModelBot> bot;
  std::unique_ptr<ctrl::FakeClock> clock;
  std::unique_ptr<ctrl::Controller> controller;
  if (controlled) {
    // Behavior models first — the controller prices candidates with them.
    OuRunnerConfig cfg = OuRunnerConfig::Small();
    cfg.repetitions = 2;
    OuRunner runner(&db, cfg);
    bot = std::make_unique<ModelBot>(&db.catalog(), &db.estimator(),
                                     &db.settings());
    bot->TrainOuModels(runner.RunAll(),
                       {MlAlgorithm::kLinear, MlAlgorithm::kRandomForest});
    db.settings().SetInt("ctrl_cooldown_ms", 1000);  // one tick
    ctrl::ControllerConfig conf;
    conf.forecast.interval_s = 1.0;
    conf.workload_threads = 1;
    conf.check_drift = false;
    conf.candidates.propose_knobs = false;  // index story; knobs stay put
    clock = std::make_unique<ctrl::FakeClock>();
    controller = std::make_unique<ctrl::Controller>(&db, bot.get(), conf,
                                                    clock.get());
  }

  std::vector<double> latencies;
  latencies.reserve(workload.statements.size());
  WallTimer wall;
  for (size_t i = 0; i < workload.statements.size(); i++) {
    WallTimer q;
    auto result = sql::ExecuteSql(&db, workload.statements[i]);
    const double us = q.Seconds() * 1e6;
    if (!result.ok() || !result.value().status.ok()) {
      res.failures++;
      continue;
    }
    latencies.push_back(us);
    res.checksum ^= BatchChecksum(result.value().batch);
    if (controlled && (i + 1) % per_tick == 0) {
      clock->Advance(1'000'000);  // one forecast interval per batch
      controller->Tick();
    }
  }
  res.seconds = wall.Seconds();
  res.p99_us = Percentile(latencies, 0.99);
  res.p50_us = Percentile(latencies, 0.50);
  double sum = 0.0;
  for (double v : latencies) sum += v;
  res.mean_us = latencies.empty() ? 0.0 : sum / latencies.size();
  if (controlled) res.status = controller->GetStatus();
  return res;
}

std::string JsonEscape(const std::string &s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  std::string out_path = "BENCH_autonomy.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const int rows = smoke ? 4000 : 20000;
  const size_t ticks_per_phase = smoke ? 12 : 200;
  const size_t per_tick = smoke ? 20 : 20;
  const Workload workload = MakeWorkload(rows, ticks_per_phase, per_tick);

  Section section("autonomy: OLTP -> OLAP shift, static configs vs controller");
  std::printf("(mode=%s, rows=%d, statements=%zu, tick=%zu stmts)\n",
              smoke ? "smoke" : "bench", rows, workload.statements.size(),
              per_tick);

  std::vector<RunResult> results;
  results.push_back(RunConfig("static interpret, no index", workload, rows,
                              per_tick, 0, "", false));
  results.push_back(RunConfig("static compiled, no index", workload, rows,
                              per_tick, 1, "", false));
  results.push_back(RunConfig("static compiled, index on k", workload, rows,
                              per_tick, 1, "k", false));
  results.push_back(RunConfig("static compiled, index on grp", workload, rows,
                              per_tick, 1, "grp", false));
  RunResult controlled = RunConfig("autonomous controller", workload, rows,
                                   per_tick, 1, "", true);

  for (const RunResult &r : results) {
    PrintKv(r.name, "p99 " + Fmt(r.p99_us) + " us, p50 " + Fmt(r.p50_us) +
                        " us, mean " + Fmt(r.mean_us) + " us" +
                        (r.failures > 0
                             ? ", FAILURES " + std::to_string(r.failures)
                             : ""));
  }
  PrintKv(controlled.name,
          "p99 " + Fmt(controlled.p99_us) + " us, p50 " +
              Fmt(controlled.p50_us) + " us, mean " + Fmt(controlled.mean_us) +
              " us" +
              (controlled.failures > 0
                   ? ", FAILURES " + std::to_string(controlled.failures)
                   : ""));

  // --- Accountability: the decision log with predicted-vs-actual ------------
  Section decisions("controller decision log (predicted vs actual)");
  size_t beneficial = 0;
  bool predicted_vs_actual_complete = true;
  for (const ctrl::Decision &d : controlled.status.decisions) {
    std::printf("  t=%8lld us  %-12s %s\n", static_cast<long long>(d.time_us),
                d.kind.c_str(), d.action.c_str());
    if (d.kind == "apply") {
      std::printf("      predicted: baseline %s us -> with action %s us\n",
                  Fmt(d.predicted_baseline_us).c_str(),
                  Fmt(d.predicted_benefit_us).c_str());
      if (d.predicted_baseline_us <= 0.0 ||
          d.predicted_benefit_us >= d.predicted_baseline_us) {
        predicted_vs_actual_complete = false;  // applied without a case
      }
    }
    if (d.kind == "verified" || d.kind == "rollback") {
      std::printf("      observed:  before %s us -> after %s us\n",
                  Fmt(d.observed_before_us).c_str(),
                  Fmt(d.observed_after_us).c_str());
      if (d.observed_after_us <= 0.0) predicted_vs_actual_complete = false;
    }
    if (d.kind == "verified") beneficial++;
  }
  PrintKv("actions applied",
          std::to_string(controlled.status.actions_applied));
  PrintKv("actions verified beneficial", std::to_string(beneficial));
  PrintKv("actions rolled back",
          std::to_string(controlled.status.actions_rolled_back));
  PrintKv("rollback failures",
          std::to_string(controlled.status.rollback_failures));

  // --- Fidelity: bit-identical results across every configuration -----------
  bool checksums_agree = true;
  size_t failures = controlled.failures;
  for (const RunResult &r : results) {
    checksums_agree &= r.checksum == controlled.checksum;
    failures += r.failures;
  }
  PrintKv("checksums agree across all configs", checksums_agree ? "yes" : "NO");

  bool beats_all_statics = true;
  for (const RunResult &r : results) {
    beats_all_statics &= controlled.p99_us < r.p99_us;
  }
  PrintKv("controller beats every static p99",
          beats_all_statics ? "yes" : "no");

  // --- JSON artifact ---------------------------------------------------------
  FILE *f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"autonomy\",\n  \"mode\": \"%s\",\n"
                 "  \"stamp\": %s,\n",
                 smoke ? "smoke" : "bench", BenchStamp().c_str());
    std::fprintf(f, "  \"rows\": %d,\n  \"statements\": %zu,\n", rows,
                 workload.statements.size());
    std::fprintf(f, "  \"configs\": [\n");
    bool first = true;
    auto emit = [&](const RunResult &r, bool is_controlled) {
      std::fprintf(f,
                   "%s    {\"name\": \"%s\", \"controlled\": %s, "
                   "\"p99_us\": %.3f, \"p50_us\": %.3f, \"mean_us\": %.3f, "
                   "\"checksum\": \"%016llx\", \"failures\": %zu}",
                   first ? "" : ",\n", JsonEscape(r.name).c_str(),
                   is_controlled ? "true" : "false", r.p99_us, r.p50_us,
                   r.mean_us,
                   static_cast<unsigned long long>(r.checksum), r.failures);
      first = false;
    };
    for (const RunResult &r : results) emit(r, false);
    emit(controlled, true);
    std::fprintf(f, "\n  ],\n  \"decisions\": [\n");
    first = true;
    for (const ctrl::Decision &d : controlled.status.decisions) {
      std::fprintf(f,
                   "%s    {\"time_us\": %lld, \"kind\": \"%s\", "
                   "\"action\": \"%s\", \"predicted_baseline_us\": %.3f, "
                   "\"predicted_benefit_us\": %.3f, "
                   "\"observed_before_us\": %.3f, "
                   "\"observed_after_us\": %.3f}",
                   first ? "" : ",\n", static_cast<long long>(d.time_us),
                   JsonEscape(d.kind).c_str(), JsonEscape(d.action).c_str(),
                   d.predicted_baseline_us, d.predicted_benefit_us,
                   d.observed_before_us, d.observed_after_us);
      first = false;
    }
    std::fprintf(f,
                 "\n  ],\n  \"actions_applied\": %llu,\n"
                 "  \"actions_verified\": %zu,\n"
                 "  \"actions_rolled_back\": %llu,\n"
                 "  \"rollback_failures\": %llu,\n"
                 "  \"checksums_agree\": %s,\n"
                 "  \"beats_all_statics_p99\": %s\n}\n",
                 static_cast<unsigned long long>(
                     controlled.status.actions_applied),
                 beneficial,
                 static_cast<unsigned long long>(
                     controlled.status.actions_rolled_back),
                 static_cast<unsigned long long>(
                     controlled.status.rollback_failures),
                 checksums_agree ? "true" : "false",
                 beats_all_statics ? "true" : "false");
    std::fclose(f);
    PrintKv("artifact", out_path);
  }

  // --- Gate -------------------------------------------------------------------
  // Smoke: the loop closed (an action was applied AND verified beneficial),
  // nothing failed to roll back, and autonomy never changed an answer. Full
  // mode additionally demands the p99 win over every static config (the
  // adaptation window is <1% of the run there; in smoke it is ~10%, so tail
  // latency is dominated by the pre-adaptation queries by construction).
  const bool gate_ok = beneficial >= 1 &&
                       controlled.status.rollback_failures == 0 &&
                       checksums_agree && predicted_vs_actual_complete &&
                       failures == 0 && (smoke || beats_all_statics);
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: beneficial=%zu rollback_failures=%llu "
                 "checksums_agree=%d predicted_vs_actual=%d failures=%zu "
                 "beats_all_statics=%d\n",
                 beneficial,
                 static_cast<unsigned long long>(
                     controlled.status.rollback_failures),
                 static_cast<int>(checksums_agree),
                 static_cast<int>(predicted_vs_actual_complete), failures,
                 static_cast<int>(beats_all_statics));
    return 1;
  }
  std::printf("\nOK\n");
  return 0;
}
