// Storage micro-benchmark: cold vs hot buffer-pool scans on a disk-backed
// table, with MB2's page OU models predicting the I/O-bound staging cost.
// The dataset is sized at least 4x `buffer_pool_pages`, so a cold scan
// faults every page through the pool while a warm rescan hits the resident
// frames — the latency separation the PAGE_READ model must capture via its
// miss-count feature. Results go to BENCH_storage.json.
//
// Flags:
//   --smoke       tiny sizes for CI (ctest label "perf"): asserts the
//                 cold/hot separation, trained page OU models, and a valid
//                 JSON artifact
//   --out PATH    JSON output path (default BENCH_storage.json)
//   --jobs N      forwarded to the training pool (sweep stays serial: every
//                 record must come from one pool whose knob we control)

#include <algorithm>
#include <cstring>

#include "harness.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/table_heap.h"

using namespace mb2;
using namespace mb2::bench;

namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct ScanSample {
  double elapsed_us = 0.0;    ///< full-query latency
  double stage_us = 0.0;      ///< the PAGE_READ OU's recorded elapsed
  double actual_misses = 0.0; ///< pool misses the staging phase took
};

/// One measured scan with metrics collection on; pulls the PAGE_READ record
/// the disk scan path emits for its staging phase.
ScanSample MeasureScan(Database *db, const PlanNode &plan) {
  ScanSample sample;
  auto &metrics = MetricsManager::Instance();
  metrics.DrainAll();
  metrics.SetEnabled(true);
  QueryResult result = db->Execute(plan);
  metrics.SetEnabled(false);
  sample.elapsed_us = result.elapsed_us;
  for (const OuRecord &r : metrics.DrainAll()) {
    if (r.ou != OuType::kPageRead) continue;
    sample.stage_us = r.labels[kLabelElapsedUs];
    sample.actual_misses = r.features.size() > 1 ? r.features[1] : 0.0;
  }
  return sample;
}

double RelError(double predicted, double actual) {
  return std::abs(predicted - actual) / std::max(1.0, std::abs(actual));
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  std::string out_path = "BENCH_storage.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const size_t jobs = ParseJobs(argc, argv);
  Section header("Storage: cold vs hot cache scans + page OU model accuracy");
  std::printf("(mode=%s, scale=%s, jobs=%zu)\n", smoke ? "smoke" : "bench",
              BenchScale().c_str(), jobs);

  // ---- Workload table: disk storage, dataset >= 4x the pool -------------
  const int64_t pool_pages = smoke ? 16 : 64;
  const uint64_t rows = smoke ? 4000 : 40000;
  const uint32_t reps = smoke ? 5 : 15;

  Database db;
  db.settings().SetInt("buffer_pool_pages", pool_pages);
  Table *table = MakeSyntheticTable(&db, "bench_disk", rows, rows, /*seed=*/7,
                                    TableStorage::kDisk);
  BufferPool *pool = table->heap()->pool();
  db.estimator().RefreshStats();
  const uint64_t table_pages = table->heap()->NumPages();
  PrintKv("rows", Fmt(static_cast<double>(rows)));
  PrintKv("table pages", Fmt(static_cast<double>(table_pages)));
  PrintKv("pool pages", Fmt(static_cast<double>(pool_pages)));
  if (table_pages < static_cast<uint64_t>(pool_pages) * 4) {
    std::printf("FAIL: dataset smaller than 4x the buffer pool\n");
    return 1;
  }

  auto scan = std::make_unique<SeqScanPlan>();
  scan->table = table->name();
  for (uint32_t c = 0; c < table->schema().NumColumns(); c++) {
    scan->columns.push_back(c);
  }
  PlanPtr plan = FinalizePlan(std::move(scan), db.catalog());

  // ---- Cold: dropped pool before every scan -----------------------------
  std::vector<double> cold_us, cold_stage_us, cold_misses;
  for (uint32_t r = 0; r < reps; r++) {
    if (!pool->DropAll().ok()) return 1;
    const ScanSample s = MeasureScan(&db, *plan);
    cold_us.push_back(s.elapsed_us);
    cold_stage_us.push_back(s.stage_us);
    cold_misses.push_back(s.actual_misses);
  }
  // ---- Hot: rescans against resident frames -----------------------------
  // A strict-LRU pool smaller than the table re-misses every page on a
  // repeated sequential scan (the rescan evicts what it is about to need),
  // so the hot phase grows the pool past the table — the knob is
  // hot-tunable — and rescans hit every page.
  const int64_t hot_pool_pages = static_cast<int64_t>(table_pages) + 16;
  db.settings().SetInt("buffer_pool_pages", hot_pool_pages);
  db.Execute(*plan);  // warm the enlarged pool
  std::vector<double> hot_us, hot_stage_us, hot_misses;
  for (uint32_t r = 0; r < reps; r++) {
    const ScanSample s = MeasureScan(&db, *plan);
    hot_us.push_back(s.elapsed_us);
    hot_stage_us.push_back(s.stage_us);
    hot_misses.push_back(s.actual_misses);
  }

  const double cold_med = Median(cold_us), hot_med = Median(hot_us);
  const double ratio = cold_med / std::max(1.0, hot_med);
  PrintKv("cold scan median (us)", Fmt(cold_med));
  PrintKv("hot scan median (us)", Fmt(hot_med));
  PrintKv("cold/hot latency ratio", Fmt(ratio));
  PrintKv("cold misses (median)", Fmt(Median(cold_misses)));
  PrintKv("hot misses (median)", Fmt(Median(hot_misses)));

  // ---- Train the page OU models from a dedicated runner sweep -----------
  Section train_header("Page OU models (PAGE_READ / PAGE_WRITE / PAGE_EVICT)");
  WallTimer sweep_timer;
  Database sweep_db;
  OuRunnerConfig cfg = smoke ? OuRunnerConfig::Small() : RunnerConfig();
  OuRunner runner(&sweep_db, cfg);
  std::vector<OuRecord> records = runner.RunStorage();
  const double sweep_wall_s = sweep_timer.Seconds();
  std::printf("  collected %zu page OU records in %.2f s\n", records.size(),
              sweep_wall_s);

  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  const std::vector<MlAlgorithm> algos =
      smoke ? std::vector<MlAlgorithm>{MlAlgorithm::kHuber,
                                       MlAlgorithm::kRandomForest}
            : Fig5Algorithms();
  WallTimer train_timer;
  TrainingReport report = bot.TrainOuModels(records, algos);
  const double train_wall_s = train_timer.Seconds();
  for (const auto &[type, err] : report.per_ou_test_error) {
    PrintKv(std::string("test error ") + OuTypeName(type), Fmt(err));
  }

  // ---- Serve: predict the workload scan's staging OU --------------------
  // Cold prediction uses the actual miss count (what training measured);
  // the translator's serving-time estimate (pages - pool) is evaluated
  // separately as the deployed estimate.
  const double pages_f = static_cast<double>(table_pages);
  const double pool_cold_f = static_cast<double>(pool_pages);
  const double pool_hot_f = static_cast<double>(hot_pool_pages);
  const double rows_f = static_cast<double>(table->NumSlots());
  auto predict_stage_us = [&](double est_misses, double pool_f) {
    std::vector<TranslatedOu> ous = {
        {OuType::kPageRead, {pages_f, est_misses, rows_f, pool_f}}};
    const std::vector<Labels> out = bot.PredictOus(ous);
    return out.empty() ? 0.0 : out[0][kLabelElapsedUs];
  };
  const double pred_cold = predict_stage_us(Median(cold_misses), pool_cold_f);
  const double pred_hot = predict_stage_us(Median(hot_misses), pool_hot_f);
  const double pred_est = predict_stage_us(
      pages_f > pool_cold_f ? pages_f - pool_cold_f : 0.0, pool_cold_f);
  const double err_cold = RelError(pred_cold, Median(cold_stage_us));
  const double err_hot = RelError(pred_hot, Median(hot_stage_us));
  const double err_est = RelError(pred_est, Median(cold_stage_us));
  Section serve_header("PAGE_READ serving accuracy (elapsed us)");
  PrintKv("measured cold staging", Fmt(Median(cold_stage_us)));
  PrintKv("predicted cold (actual misses)", Fmt(pred_cold));
  PrintKv("relative error cold", Fmt(err_cold));
  PrintKv("measured hot staging", Fmt(Median(hot_stage_us)));
  PrintKv("predicted hot (actual misses)", Fmt(pred_hot));
  PrintKv("relative error hot", Fmt(err_hot));
  PrintKv("relative error with translator miss estimate", Fmt(err_est));

  // ---- JSON artifact ----------------------------------------------------
  FILE *f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n  \"stamp\": %s,\n",
               smoke ? "smoke" : "bench", BenchStamp().c_str());
  std::fprintf(f, "  \"rows\": %llu,\n  \"table_pages\": %llu,\n"
               "  \"pool_pages\": %lld,\n  \"hot_pool_pages\": %lld,\n",
               static_cast<unsigned long long>(rows),
               static_cast<unsigned long long>(table_pages),
               static_cast<long long>(pool_pages),
               static_cast<long long>(hot_pool_pages));
  std::fprintf(f, "  \"cold_scan_us_median\": %s,\n  \"hot_scan_us_median\": %s,\n"
               "  \"cold_hot_ratio\": %s,\n",
               Fmt(cold_med).c_str(), Fmt(hot_med).c_str(), Fmt(ratio).c_str());
  std::fprintf(f, "  \"cold_misses_median\": %s,\n  \"hot_misses_median\": %s,\n",
               Fmt(Median(cold_misses)).c_str(), Fmt(Median(hot_misses)).c_str());
  std::fprintf(f, "  \"page_ou_records\": %zu,\n  \"train_test_error\": {",
               records.size());
  bool first = true;
  for (const auto &[type, err] : report.per_ou_test_error) {
    std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ", OuTypeName(type),
                 Fmt(err).c_str());
    first = false;
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"page_read_pred_error_cold\": %s,\n"
               "  \"page_read_pred_error_hot\": %s,\n"
               "  \"page_read_pred_error_translator_estimate\": %s,\n",
               Fmt(err_cold).c_str(), Fmt(err_hot).c_str(),
               Fmt(err_est).c_str());
  std::fprintf(f, "  \"sweep_wall_s\": %s,\n  \"train_wall_s\": %s\n}\n",
               Fmt(sweep_wall_s).c_str(), Fmt(train_wall_s).c_str());
  std::fclose(f);
  PrintKv("json written", out_path);

  if (smoke) {
    // Cold scans must be visibly slower than hot ones: the pool misses on
    // every page (checksummed fread) instead of hitting resident frames.
    if (!(cold_med > hot_med * 1.05)) {
      std::printf("FAIL: no cold/hot separation (%.1f vs %.1f us)\n", cold_med,
                  hot_med);
      return 1;
    }
    if (Median(cold_misses) < pages_f) {
      std::printf("FAIL: cold scan did not miss every page\n");
      return 1;
    }
    if (report.per_ou_test_error.count(OuType::kPageRead) == 0 ||
        report.per_ou_test_error.count(OuType::kPageWrite) == 0 ||
        report.per_ou_test_error.count(OuType::kPageEvict) == 0) {
      std::printf("FAIL: a page OU trained no model\n");
      return 1;
    }
    FILE *check = std::fopen(out_path.c_str(), "r");
    if (check == nullptr) {
      std::printf("FAIL: JSON artifact missing\n");
      return 1;
    }
    std::fclose(check);
    std::printf("\nsmoke assertions passed\n");
  }
  return 0;
}
