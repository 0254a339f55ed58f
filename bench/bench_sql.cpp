// SQL fast-path benchmark: the same parameterized statement mix run over the
// full {plan cache off/on} x {row-at-a-time / vectorized} x {heuristic /
// model-costed optimizer} grid, written machine-readable to BENCH_sql.json
// so future PRs have a perf baseline for the SQL frontend. A separate join
// section reports the optimizer-mode comparison (and whether the model
// actually picked a different plan than the heuristic).
//
// Result checksums must agree across every grid cell — the plan cache and
// the vectorized engine are required to be invisible in results.
//
//   --smoke       tiny sizes for CI (ctest label "perf"): asserts identical
//                 checksums, cache hits, zero failures, a valid artifact
//   --out PATH    JSON output path (default BENCH_sql.json)

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/metrics_registry.h"
#include "sql/parser.h"

using namespace mb2;
using namespace mb2::bench;

namespace {

struct GridResult {
  bool cache = false;
  bool vectorized = false;
  bool model_opt = false;
  size_t statements = 0;
  size_t failures = 0;
  double seconds = 0.0;
  double throughput_sps = 0.0;  ///< statements per second
  uint64_t checksum = 0;
  uint64_t cache_hits = 0;
};

const char *OnOff(bool b) { return b ? "on" : "off"; }

/// Order-sensitive checksum over a result batch (the grid queries have
/// deterministic plans modulo vectorization, so row order is stable).
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

/// The statement mix: point lookups and predicate scans with rotating
/// literals — the cache's parameterization and the vector engine's filters
/// both get exercised on every iteration.
std::vector<std::string> MakeStatements(size_t iterations, int rows) {
  std::vector<std::string> stmts;
  stmts.reserve(iterations * 6);
  for (size_t i = 0; i < iterations; i++) {
    const int id = static_cast<int>(i * 37) % rows;
    const int grp = static_cast<int>(i) % 16;
    // OLTP-style point lookups dominate the mix (parse-bound through the
    // index; the cache's territory), with one filter scan and one aggregate
    // per iteration (execution-bound; the vector engine's territory).
    for (int p = 0; p < 4; p++) {
      stmts.push_back("SELECT id, val FROM bench WHERE id = " +
                      std::to_string((id + p * 101) % rows));
    }
    stmts.push_back("SELECT id, val * 2.0 + 1.0 FROM bench WHERE grp = " +
                    std::to_string(grp) + " AND val > " +
                    std::to_string(3 * rows / 4) + ".5");
    stmts.push_back("SELECT grp, COUNT(*), SUM(val) FROM bench WHERE id < " +
                    std::to_string(rows / 4 + id % 64) + " GROUP BY grp");
  }
  return stmts;
}

GridResult RunGrid(Database *db, const std::vector<std::string> &stmts,
                   bool cache, bool vectorized, bool model_opt,
                   int64_t cache_capacity) {
  GridResult res;
  res.cache = cache;
  res.vectorized = vectorized;
  res.model_opt = model_opt;
  db->settings().SetInt("sql_plan_cache_capacity", cache ? cache_capacity : 0);
  db->settings().SetInt("execution_mode", vectorized ? 2 : 0);
  db->settings().SetInt("optimizer_mode", model_opt ? 1 : 0);
  db->plan_cache().Clear();
  const sql::PlanCacheStats before = db->plan_cache().stats();

  WallTimer wall;
  for (const std::string &stmt : stmts) {
    auto result = db->Execute(stmt);
    if (!result.ok() || !result.value().status.ok()) {
      res.failures++;
      continue;
    }
    res.checksum ^= BatchChecksum(result.value().batch);
    res.statements++;
  }
  res.seconds = wall.Seconds();
  res.throughput_sps =
      res.seconds > 0 ? static_cast<double>(res.statements) / res.seconds : 0;
  res.cache_hits = db->plan_cache().stats().hits - before.hits;
  return res;
}

void PrintGrid(const GridResult &r) {
  PrintKv(std::string("cache ") + OnOff(r.cache) + ", " +
              (r.vectorized ? "vectorized" : "row") + ", " +
              (r.model_opt ? "model" : "heuristic"),
          Fmt(r.throughput_sps) + " stmt/s, hits " +
              std::to_string(r.cache_hits) +
              (r.failures > 0 ? ", FAILURES " + std::to_string(r.failures)
                              : ""));
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sql.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const int rows = smoke ? 2000 : 20000;
  const size_t iterations = smoke ? 60 : 400;
  obs::SetEnabled(true);  // the reordered-plan gate reads an obs counter

  Section header("SQL fast path (plan cache + vectorized + MB2-costed)");
  std::printf("(mode=%s, rows=%d, statements=%zu)\n", smoke ? "smoke" : "bench",
              rows, iterations * 6);

  // --- Data + model setup --------------------------------------------------
  Database db;
  {
    auto created =
        db.Execute("CREATE TABLE bench (id INTEGER, grp INTEGER, val DOUBLE)");
    if (!created.ok()) {
      std::fprintf(stderr, "FAIL: setup DDL: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < rows; i++) {
      db.Execute("INSERT INTO bench VALUES (" + std::to_string(i) + ", " +
                 std::to_string(i % 16) + ", " + std::to_string(i) + ".5)");
    }
    // Point lookups go through this index, which makes them parse-bound —
    // the component of statement latency the plan cache removes.
    db.Execute("CREATE INDEX bench_id ON bench (id)");
    // A lopsided join partner so the model-costed optimizer has a genuinely
    // cheaper alternative (build the hash table on 16 rows, not `rows`).
    db.Execute("CREATE TABLE dim (g INTEGER, weight DOUBLE)");
    for (int g = 0; g < 16; g++) {
      db.Execute("INSERT INTO dim VALUES (" + std::to_string(g) + ", " +
                 std::to_string(g) + ".25)");
    }
    db.estimator().RefreshStats();
  }
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  {
    // Quick linear models, monotone in every feature, with hash-table builds
    // priced above probes per row — enough signal for plan ranking without a
    // full OU-runner sweep.
    std::vector<OuRecord> records;
    for (OuType type :
         {OuType::kSeqScan, OuType::kIdxScan, OuType::kArithmetic,
          OuType::kHashJoinBuild, OuType::kHashJoinProbe, OuType::kAggBuild,
          OuType::kAggProbe, OuType::kSortBuild, OuType::kSortIterate,
          OuType::kOutput}) {
      const size_t d = GetOuDescriptor(type).feature_names.size();
      for (size_t i = 0; i < 12; i++) {
        OuRecord r;
        r.ou = type;
        r.features.resize(d);
        double sum = 0.0;
        for (size_t j = 0; j < d; j++) {
          r.features[j] = static_cast<double>((7 * i + 3 * j) % 64);
          sum += r.features[j];
        }
        const double weight = type == OuType::kHashJoinBuild ? 4.0 : 1.0;
        for (size_t j = 0; j < kNumLabels; j++) {
          r.labels[j] = 5.0 + weight * sum * (1.0 + 0.1 * static_cast<double>(j));
        }
        records.push_back(std::move(r));
      }
    }
    bot.TrainOuModels(records, {MlAlgorithm::kLinear}, /*normalize=*/false);
    db.set_model_bot(&bot);
  }

  // --- Grid ----------------------------------------------------------------
  const std::vector<std::string> stmts = MakeStatements(iterations, rows);
  std::vector<GridResult> grid;
  for (bool cache : {false, true}) {
    for (bool vectorized : {false, true}) {
      for (bool model_opt : {false, true}) {
        grid.push_back(RunGrid(&db, stmts, cache, vectorized, model_opt, 1024));
      }
    }
  }
  for (const GridResult &r : grid) PrintGrid(r);

  size_t failures = 0;
  bool checksums_agree = true;
  for (const GridResult &r : grid) {
    failures += r.failures;
    checksums_agree &= r.checksum == grid[0].checksum;
  }
  const GridResult &baseline = grid[0];  // cache off, row, heuristic
  double best_sps = 0.0;
  for (const GridResult &r : grid) {
    if (r.cache && r.vectorized) best_sps = std::max(best_sps, r.throughput_sps);
  }
  const double speedup =
      baseline.throughput_sps > 0 ? best_sps / baseline.throughput_sps : 0.0;
  PrintKv("checksums agree across grid", checksums_agree ? "yes" : "NO");
  PrintKv("speedup (cache+vectorized vs baseline)", Fmt(speedup) + "x");

  // --- Optimizer-mode join comparison --------------------------------------
  // The model prices building on `dim` (16 rows) below building on `bench`;
  // the reordered-counter delta proves it picked a different plan than the
  // heuristic would.
  Counter &reordered_counter =
      MetricsRegistry::Instance().GetCounter("mb2_optimizer_reordered_total");
  const std::string join =
      "SELECT grp, weight, val FROM bench JOIN dim ON bench.grp = dim.g "
      "WHERE id < " + std::to_string(rows / 2);
  const size_t join_reps = smoke ? 10 : 50;
  double join_sps[2] = {0.0, 0.0};
  size_t join_rows[2] = {0, 0};
  bool model_reordered = false;
  for (int opt = 0; opt <= 1; opt++) {
    db.settings().SetInt("sql_plan_cache_capacity", 0);
    db.settings().SetInt("execution_mode", 2);
    db.settings().SetInt("optimizer_mode", opt);
    db.plan_cache().Clear();
    const uint64_t reordered_before = reordered_counter.Value();
    WallTimer wall;
    for (size_t i = 0; i < join_reps; i++) {
      auto result = db.Execute(join);
      if (!result.ok() || !result.value().status.ok()) {
        failures++;
        continue;
      }
      join_rows[opt] = result.value().batch.rows.size();
    }
    join_sps[opt] = wall.Seconds() > 0
                        ? static_cast<double>(join_reps) / wall.Seconds()
                        : 0.0;
    if (opt == 1) model_reordered = reordered_counter.Value() > reordered_before;
  }
  PrintKv("join (heuristic)", Fmt(join_sps[0]) + " stmt/s, " +
                                  std::to_string(join_rows[0]) + " rows");
  PrintKv("join (model-costed)", Fmt(join_sps[1]) + " stmt/s, " +
                                     std::to_string(join_rows[1]) + " rows");
  PrintKv("model picked a different plan", model_reordered ? "yes" : "NO");
  const bool join_rows_agree = join_rows[0] == join_rows[1];

  // --- JSON ----------------------------------------------------------------
  FILE *f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n  \"stamp\": %s,\n  \"grid\": [\n",
               smoke ? "smoke" : "bench", BenchStamp().c_str());
  for (size_t i = 0; i < grid.size(); i++) {
    const GridResult &r = grid[i];
    std::fprintf(f,
                 "    {\"cache\": %s, \"vectorized\": %s, \"model_opt\": %s, "
                 "\"statements\": %zu, \"failures\": %zu, "
                 "\"throughput_sps\": %s, \"cache_hits\": %llu}%s\n",
                 r.cache ? "true" : "false", r.vectorized ? "true" : "false",
                 r.model_opt ? "true" : "false", r.statements, r.failures,
                 Fmt(r.throughput_sps).c_str(),
                 static_cast<unsigned long long>(r.cache_hits),
                 i + 1 == grid.size() ? "" : ",");
  }
  std::fprintf(f,
               "  ],\n  \"checksums_agree\": %s,\n"
               "  \"speedup_cache_vectorized\": %s,\n"
               "  \"join\": {\"heuristic_sps\": %s, \"model_sps\": %s, "
               "\"model_reordered\": %s, \"rows_agree\": %s}\n}\n",
               checksums_agree ? "true" : "false", Fmt(speedup).c_str(),
               Fmt(join_sps[0]).c_str(), Fmt(join_sps[1]).c_str(),
               model_reordered ? "true" : "false",
               join_rows_agree ? "true" : "false");
  std::fclose(f);
  PrintKv("json written", out_path);

  // --- Gates ---------------------------------------------------------------
  if (failures > 0 || !checksums_agree || !join_rows_agree) {
    std::fprintf(stderr,
                 "FAIL: failures=%zu checksums_agree=%d join_rows_agree=%d\n",
                 failures, static_cast<int>(checksums_agree),
                 static_cast<int>(join_rows_agree));
    return 1;
  }
  if (!model_reordered) {
    std::fprintf(stderr, "FAIL: model-costed optimizer never reordered\n");
    return 1;
  }
  return 0;
}
