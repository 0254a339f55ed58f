// ou_serve: 2 connections sending PREDICT_OUS, the self-driving planner's
// what-if calls. Set-up runs the real offline pipeline: the OuRunner sweep,
// then ModelBot::TrainOuModels with gradient boosting alone (selecting among
// algorithms on timing labels can change which model family serves an OU,
// and the families differ about 12x in serving cost). It then parses and
// translates a seeded pool of query plans into OU batches.
//
// Light class: one plan's OUs, plans drawn with Zipf skew, so most requests
// hit the OU-prediction cache. Heavy class: a 256-OU what-if batch with
// fresh features, so most OUs miss the cache and OuModel::PredictBatch runs.
//
// Checks: no OU is served degraded (the sweep gives every OU type in the
// pool a model), and a seeded sample of answers is byte-identical to
// in-process ModelBot::PredictOus and to OuModel::Predict of each OU.

#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "common/rng.h"
#include "modeling/model_bot.h"
#include "obs/metrics_registry.h"
#include "runner/ou_runner.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kWindows = 10;
constexpr size_t kConns = 2;
constexpr size_t kPlans = 256;
constexpr size_t kHeavyOus = 256;
constexpr size_t kSampleEvery = 64;  ///< every Nth answer is re-checked
/// Set-ups per end-to-end run (each is a full sweep and training);
/// setup_s is their median.
constexpr int kSetups = 3;

/// Ten row counts give the DML runners ten records per OU type, the least
/// TrainOuModels fits a model on; the largest table and the single
/// cardinality keep one sweep near four seconds.
mb2::OuRunnerConfig SweepConfig() {
  mb2::OuRunnerConfig cfg;
  cfg.row_counts = {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  cfg.cardinality_fractions = {1.0};
  cfg.column_counts = {2, 4};
  cfg.exec_modes = {0, 1};
  cfg.index_build_threads = {1, 4};
  cfg.repetitions = 3;
  cfg.warmups = 1;
  return cfg;
}

/// Query templates of the plan pool; every OU type they produce needs a model.
std::string PlanSql(size_t t, mb2::Rng &rng, int64_t *next_id) {
  switch (t % 8) {
    case 0:
      return "SELECT id, qty FROM orders WHERE id = " + std::to_string(rng.Uniform(0, 4095));
    case 1:
      return "SELECT cust, COUNT(*), SUM(qty) FROM orders WHERE qty > " +
             std::to_string(rng.Uniform(1, 90)) + " GROUP BY cust";
    case 2:
      return "SELECT cust.region, SUM(orders.qty) FROM orders JOIN cust ON "
             "orders.cust = cust.id WHERE orders.qty < " +
             std::to_string(rng.Uniform(10, 100)) + " GROUP BY cust.region";
    case 3:
      return "SELECT id, price FROM orders WHERE cust = " +
             std::to_string(rng.Uniform(0, 63)) + " ORDER BY 2 DESC LIMIT " +
             std::to_string(rng.Uniform(1, 50));
    case 4:
      return "SELECT COUNT(*), SUM(qty * price) FROM orders WHERE price > " +
             std::to_string(rng.Uniform(100, 99000));
    case 5:
      return "UPDATE orders SET qty = qty + 1 WHERE id = " +
             std::to_string(rng.Uniform(0, 4095));
    case 6:
      return "INSERT INTO orders VALUES (" + std::to_string((*next_id)++) + ", " +
             std::to_string(rng.Uniform(0, 63)) + ", " + std::to_string(rng.Uniform(1, 100)) +
             ", " + std::to_string(rng.Uniform(100, 99999)) + ".5)";
    default:
      return "DELETE FROM orders WHERE qty = " + std::to_string(rng.Uniform(1, 100));
  }
}

struct Live {
  std::unique_ptr<mb2::Database> db;  ///< catalog and statistics the plans bind to
  std::unique_ptr<mb2::ModelBot> bot;
  std::unique_ptr<mb2::net::Server> server;
  std::vector<std::vector<mb2::TranslatedOu>> pool;  ///< OUs of each plan
  std::vector<std::string> pool_sql;
  double sweep_s = 0.0, train_s = 0.0, test_error = 0.0;
  std::vector<double> parse_us, translate_us;
};

void SetUp(const RunConfig &cfg, int index, Live *s, Report *r) {
  const int64_t t0 = NowNs();
  mb2::Database::Options sweep_opts;
  sweep_opts.heap_path = cfg.workdir + "/sweep-heap-" + std::to_string(index) + ".bin";
  std::vector<mb2::OuRecord> records;
  {
    mb2::Database sweep_db(sweep_opts);
    mb2::OuRunner runner(&sweep_db, SweepConfig());
    const int64_t t = NowNs();
    records = runner.RunAll();
    s->sweep_s = SecondsSince(t);
  }
  s->db = std::make_unique<mb2::Database>();
  mb2::Database &db = *s->db;
  s->bot = std::make_unique<mb2::ModelBot>(&db.catalog(), &db.estimator(), &db.settings());
  {
    const int64_t t = NowNs();
    const mb2::TrainingReport report =
        s->bot->TrainOuModels(records, {mb2::MlAlgorithm::kGradientBoosting});
    s->train_s = SecondsSince(t);
    std::vector<double> errors;
    for (const auto &[type, err] : report.per_ou_test_error) errors.push_back(err);
    s->test_error = Median(errors);
  }

  MustExecute(db, "CREATE TABLE orders (id INTEGER, cust INTEGER, qty INTEGER, price DOUBLE)", r);
  MustExecute(db, "CREATE TABLE cust (id INTEGER, region INTEGER)", r);
  mb2::Rng rng(cfg.seed);
  std::string sql = "INSERT INTO orders VALUES ";
  for (int i = 0; i < 4096; i++) {
    sql += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " +
           std::to_string(rng.Uniform(0, 63)) + ", " + std::to_string(rng.Uniform(1, 100)) +
           ", " + std::to_string(rng.Uniform(100, 99999)) + ".5)";
  }
  MustExecute(db, sql, r);
  sql = "INSERT INTO cust VALUES ";
  for (int i = 0; i < 64; i++) {
    sql += (i > 0 ? ", (" : "(") + std::to_string(i) + ", " + std::to_string(i % 8) + ")";
  }
  MustExecute(db, sql, r);
  MustExecute(db, "CREATE UNIQUE INDEX orders_pk ON orders (id)", r);
  db.estimator().RefreshStats();

  s->pool.clear();
  s->pool_sql.clear();
  s->parse_us.clear();
  s->translate_us.clear();
  int64_t next_id = 1 << 20;
  for (size_t p = 0; p < kPlans; p++) {
    s->pool_sql.push_back(PlanSql(p, rng, &next_id));
    int64_t t = NowNs();
    auto bound = mb2::sql::Parse(&db, s->pool_sql.back());
    s->parse_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    if (!bound.ok() || bound.value().plan == nullptr) {
      r->Fail("plan pool: " + s->pool_sql.back());
      return;
    }
    t = NowNs();
    s->pool.push_back(s->bot->translator().TranslateQuery(*bound.value().plan));
    s->translate_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
  }
  s->server = std::make_unique<mb2::net::Server>(&db, s->bot.get(), BenchServerOptions());
  if (!s->server->Start().ok()) r->Fail("server start");
  r->setup_s.push_back(SecondsSince(t0));
}

/// Seeded request stream of one connection.
class ServeGen {
 public:
  ServeGen(uint64_t seed, size_t conn, const Live &live)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + conn + 211),
        zipf_(kPlans, 0.9, seed * 31 + conn),
        live_(live) {}

  /// Fills `batch`; returns whether it is a heavy what-if batch. A light
  /// batch is the OUs of plan `*plan`.
  bool Next(std::vector<mb2::TranslatedOu> *batch, size_t *plan) {
    // A fair coin: the controller's own PredictOus calls split 381:376
    // between single-plan calls and interval-wide batches (NOTES.md).
    if (rng_.Uniform(0, 1) == 0) {
      *plan = std::min<size_t>(zipf_.Next(), kPlans - 1);
      *batch = live_.pool[*plan];
      return false;
    }
    batch->clear();
    while (batch->size() < kHeavyOus) {
      const auto &plan = live_.pool[static_cast<size_t>(rng_.Uniform(0, kPlans - 1))];
      mb2::TranslatedOu ou = plan[static_cast<size_t>(rng_.Uniform(0, plan.size() - 1))];
      // A fresh row count: the what-if explores a cardinality the cache has
      // not seen.
      if (!ou.features.empty()) ou.features[0] *= rng_.Uniform(0.5, 2.0);
      batch->push_back(std::move(ou));
    }
    return true;
  }

 private:
  mb2::Rng rng_;
  mb2::Zipf zipf_;
  const Live &live_;
};

bool SameLabels(const std::vector<mb2::Labels> &a, const std::vector<mb2::Labels> &b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(mb2::Labels)) == 0);
}

struct Sample {
  std::vector<mb2::TranslatedOu> batch;
  std::vector<mb2::Labels> answer;
};

}  // namespace

Report RunOuServe(const RunConfig &cfg) {
  Report r;
  r.workload = "ou_serve";
  r.connections = kConns;
  r.min_ops_per_class = cfg.smoke ? 50 : 2000;
  const double warmup_s = cfg.smoke ? 0.2 : 1.0;

  Live live;
  const int setups = (cfg.smoke || cfg.trace) ? 1 : kSetups;
  for (int i = 0; i < setups; i++) {
    // Tear the previous set-up down, server first, before the next one.
    live.server.reset();
    live.bot.reset();
    live.db.reset();
    SetUp(cfg, i, &live, &r);
    if (!r.errors.empty()) return r;
  }
  std::map<mb2::OuType, size_t> pool_types;
  for (const auto &plan : live.pool) {
    for (const auto &ou : plan) pool_types[ou.type]++;
  }
  for (const auto &[type, n] : pool_types) {
    const mb2::OuModel *model = live.bot->GetOuModel(type);
    if (model == nullptr || !model->trained()) {
      r.Fail(std::string("no model for OU type ") + mb2::OuTypeName(type));
    }
  }
  if (!r.errors.empty()) return r;

  std::vector<ServeGen> gens;
  for (size_t c = 0; c < kConns; c++) gens.emplace_back(cfg.seed, c, live);
  std::vector<std::vector<Sample>> samples(kConns);
  std::vector<uint64_t> degraded(kConns, 0);
  const OpFn op = [&](size_t c, mb2::net::Client &client, uint64_t n) {
    std::vector<mb2::TranslatedOu> batch;
    size_t plan = 0;
    OpOutcome out;
    out.heavy = gens[c].Next(&batch, &plan);
    auto res = client.PredictOus(batch);
    if (!res.ok()) return out;
    degraded[c] += res.value().degraded_ous;
    out.ok = res.value().degraded_ous == 0 && res.value().per_ou.size() == batch.size();
    if (n % kSampleEvery == 0) {
      samples[c].push_back({std::move(batch), std::move(res.value().per_ou)});
    }
    return out;
  };

  r.loop = RunClosedLoop(*live.server, kConns, warmup_s, cfg.seconds, kWindows, op, nullptr);

  SpanLog spans;
  if (cfg.trace) {
    mb2::obs::SetEnabled(true);
    const mb2::PredictionCacheStats before = live.bot->ou_cache_stats();
    r.traced = RunClosedLoop(*live.server, kConns, 0.0, cfg.seconds, kWindows, op, &spans);
    const mb2::PredictionCacheStats after = live.bot->ou_cache_stats();
    mb2::obs::SetEnabled(false);
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups = hits + static_cast<double>(after.misses - before.misses);
    if (lookups > 0) {
      r.notes.push_back("OU cache hit ratio over the traced loop, all OUs: " +
                        FormatDouble(hits / lookups));
    }
    FillLoopLayerMetrics(r.loop, r.traced, &r);
    r.layer["net.ping_us"] = MeasurePingP50Us(live.server->port(), kConns);
  }
  live.server->Stop();

  uint64_t total_degraded = 0;
  for (uint64_t d : degraded) total_degraded += d;
  if (total_degraded > 0) r.Fail(std::to_string(total_degraded) + " OUs served degraded");
  size_t checked = 0;
  for (const auto &per_conn : samples) {
    for (const Sample &s : per_conn) {
      uint32_t deg = 0;
      const std::vector<mb2::Labels> in_process = live.bot->PredictOus(s.batch, &deg);
      std::vector<mb2::Labels> single;
      for (const mb2::TranslatedOu &ou : s.batch) {
        single.push_back(live.bot->GetOuModel(ou.type)->Predict(ou.features));
      }
      checked++;
      if (deg != 0 || !SameLabels(s.answer, in_process) || !SameLabels(s.answer, single)) {
        r.wrong_answers++;
      }
    }
  }
  if (r.wrong_answers > 0) {
    r.Fail(std::to_string(r.wrong_answers) + " of " + std::to_string(checked) +
           " sampled answers differ from in-process prediction");
  }
  r.notes.push_back("answers re-checked in-process: " + std::to_string(checked));

  if (cfg.trace) {
    auto &m = r.layer;
    m["runner.sweep_s"] = live.sweep_s;
    m["runner.train_s"] = live.train_s;
    m["modeling.test_error"] = live.test_error;
    m["modeling.degraded_ous"] = static_cast<double>(total_degraded);
    m["sql.parse_us"] = Median(live.parse_us);

    // Replay: translate and predict in-process, each call in a span.
    ServeGen gen(cfg.seed ^ 0x5eed, 0, live);
    mb2::Database &db = *live.db;
    std::vector<double> predict_us[2], translate_us;
    double predict_total_us = 0.0, ous_total = 0.0;
    uint64_t light_hits = 0, light_lookups = 0;
    std::map<mb2::OuType, std::pair<double, double>> batch_us_rows;  // type -> (us, rows)
    const size_t n = cfg.smoke ? 64 : 1000;
    for (size_t i = 0; i < n; i++) {
      const uint64_t request_id = (1ULL << 62) + i;
      std::vector<mb2::TranslatedOu> batch;
      size_t plan = 0;
      const bool heavy = gen.Next(&batch, &plan);
      // A light request is the planner translating its plan, then pricing it.
      mb2::Result<mb2::sql::BoundStatement> bound = mb2::Status::Ok();
      if (!heavy) bound = mb2::sql::Parse(&db, live.pool_sql[plan]);
      {
        ScopedSpan root(&spans, heavy ? "replay.heavy" : "replay.light", request_id);
        if (!heavy && bound.ok() && bound.value().plan != nullptr) {
          const int64_t t = NowNs();
          {
            ScopedSpan s(&spans, "modeling.translate", request_id);
            batch = live.bot->translator().TranslateQuery(*bound.value().plan);
          }
          translate_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
        }
        const mb2::PredictionCacheStats cache0 = live.bot->ou_cache_stats();
        const int64_t t = NowNs();
        {
          ScopedSpan s(&spans, "modeling.predict", request_id);
          live.bot->PredictOus(batch);
        }
        const double us = static_cast<double>(NowNs() - t) / 1e3;
        if (!heavy) {
          const mb2::PredictionCacheStats cache1 = live.bot->ou_cache_stats();
          light_hits += cache1.hits - cache0.hits;
          light_lookups += (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
        }
        predict_us[heavy].push_back(us);
        predict_total_us += us;
        ous_total += static_cast<double>(batch.size());
      }
      if (heavy) {
        std::map<mb2::OuType, std::vector<mb2::FeatureVector>> by_type;
        for (const auto &ou : batch) by_type[ou.type].push_back(ou.features);
        for (const auto &[type, features] : by_type) {
          std::vector<mb2::Labels> labels;
          const int64_t t = NowNs();
          {
            ScopedSpan s(&spans, "ml.predict_batch", request_id);
            live.bot->GetOuModel(type)->PredictBatch(features, &labels);
          }
          auto &acc = batch_us_rows[type];
          acc.first += static_cast<double>(NowNs() - t) / 1e3;
          acc.second += static_cast<double>(features.size());
        }
      }
    }
    m["modeling.translate_us"] = Median(translate_us);
    if (light_lookups > 0) {
      m["modeling.ou_cache_hit_ratio"] =
          static_cast<double>(light_hits) / static_cast<double>(light_lookups);
    }
    m["modeling.predict_us_per_ou"] = ous_total > 0 ? predict_total_us / ous_total : 0.0;
    double batch_us = 0.0, batch_rows = 0.0;
    for (const auto &[type, acc] : batch_us_rows) {
      batch_us += acc.first;
      batch_rows += acc.second;
      r.notes.push_back(std::string("ml.predict_batch_us_per_row[") + mb2::OuTypeName(type) +
                        "] " + FormatDouble(acc.first / acc.second));
    }
    if (batch_rows > 0) m["ml.predict_batch_us_per_row"] = batch_us / batch_rows;

    // The PREDICT_OUS reply carries no server time: the network share is
    // the client p50 minus the in-process PredictOus p50 of the same class.
    double worst = 0.0;
    for (int heavy = 0; heavy < 2; heavy++) {
      const ClassStats &c = heavy ? r.traced.heavy : r.traced.light;
      const double client = Median(c.lat_us);
      const double predict = Median(predict_us[heavy]);
      const char *cls = heavy ? "heavy" : "light";
      r.notes.push_back(std::string("modeling.predict_us[") + cls + "] " +
                        FormatDouble(predict));
      r.notes.push_back(std::string("net.overhead_us[") + cls + "] " +
                        FormatDouble(client - predict));
      if (!heavy) m["net.overhead_us"] = client - predict;
      if (client <= 0.0) continue;
      const double pct = 100.0 * (client - m["net.ping_us"] - predict) / client;
      r.notes.push_back(std::string("trace.residual_pct[") + cls + "] " + FormatDouble(pct));
      if (std::abs(pct) > std::abs(worst)) worst = pct;
    }
    m["trace.residual_pct"] = worst;
    FinishTrace(cfg, spans, &r);
  }
  return r;
}

}  // namespace perfbench
