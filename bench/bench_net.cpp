// Network service layer benchmark: an in-process epoll server on loopback
// driven by closed-loop (back-to-back) and open-loop (paced arrivals) client
// fleets, per opcode. Reports throughput and p50/p95/p99 latency, written
// machine-readable to BENCH_net.json so future PRs have a perf baseline for
// the serving path (remote SQL and remote OU prediction). The file's
// "stamp" names the host, cores, build type and commit (BenchStamp).
//
//   --smoke       tiny sizes for CI (ctest label "perf"): asserts zero
//                 request failures and a valid JSON artifact
//   --out PATH    JSON output path (default BENCH_net.json)
//   --jobs N      closed-loop client thread count (default 4)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "net/client.h"
#include "net/server.h"

using namespace mb2;
using namespace mb2::bench;
using namespace mb2::net;

namespace {

struct LoadResult {
  std::string opcode;
  std::string loop;  ///< "closed" or "open"
  size_t threads = 0;
  size_t requests = 0;
  size_t failures = 0;
  double throughput_rps = 0.0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
};

double Percentile(std::vector<double> *sorted_in_place, double p) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

/// One request against the server; returns false on failure.
using RequestFn = bool (*)(Client *, const std::vector<TranslatedOu> &);

bool DoPing(Client *c, const std::vector<TranslatedOu> &) {
  return c->Ping().ok();
}
bool DoSql(Client *c, const std::vector<TranslatedOu> &) {
  const auto r = c->ExecuteSql("SELECT id, val FROM bench WHERE id < 32");
  return r.ok() && !r.value().rows.empty();
}
bool DoPredict(Client *c, const std::vector<TranslatedOu> &ous) {
  const auto r = c->PredictOus(ous);
  return r.ok() && r.value().per_ou.size() == ous.size();
}

std::vector<TranslatedOu> MakeOus() {
  std::vector<TranslatedOu> ous;
  for (OuType type : {OuType::kSeqScan, OuType::kIdxScan}) {
    const size_t d = GetOuDescriptor(type).feature_names.size();
    for (size_t i = 0; i < 8; i++) {
      FeatureVector f(d);
      for (size_t j = 0; j < d; j++) {
        f[j] = 1.0 + static_cast<double>((3 * i + 5 * j) % 16);
      }
      ous.push_back({type, std::move(f)});
    }
  }
  return ous;
}

/// Closed loop: `threads` clients issue `per_thread` requests back-to-back.
/// Open loop (pace_us > 0): each client schedules sends on a fixed cadence
/// regardless of completion times, the standard arrival-driven load model.
LoadResult RunLoad(const std::string &opcode, RequestFn fn, uint16_t port,
                   size_t threads, size_t per_thread, int64_t pace_us) {
  const std::vector<TranslatedOu> ous = MakeOus();
  std::vector<std::vector<double>> lat_per_thread(threads);
  std::atomic<size_t> failures{0};

  WallTimer wall;
  std::vector<std::thread> fleet;
  for (size_t t = 0; t < threads; t++) {
    fleet.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = port;
      copts.pool_size = 1;
      Client client(copts);
      auto &lat = lat_per_thread[t];
      lat.reserve(per_thread);
      auto next = std::chrono::steady_clock::now();
      for (size_t i = 0; i < per_thread; i++) {
        if (pace_us > 0) {
          next += std::chrono::microseconds(pace_us);
          std::this_thread::sleep_until(next);
        }
        const auto begin = std::chrono::steady_clock::now();
        if (!fn(&client, ous)) failures.fetch_add(1);
        const auto end = std::chrono::steady_clock::now();
        lat.push_back(
            std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                end - begin)
                .count());
      }
    });
  }
  for (auto &thr : fleet) thr.join();
  const double seconds = wall.Seconds();

  std::vector<double> all;
  for (auto &lat : lat_per_thread) all.insert(all.end(), lat.begin(), lat.end());

  LoadResult res;
  res.opcode = opcode;
  res.loop = pace_us > 0 ? "open" : "closed";
  res.threads = threads;
  res.requests = all.size();
  res.failures = failures.load();
  res.throughput_rps = seconds > 0 ? static_cast<double>(all.size()) / seconds : 0;
  res.p50_us = Percentile(&all, 0.50);
  res.p95_us = Percentile(&all, 0.95);
  res.p99_us = Percentile(&all, 0.99);
  return res;
}

void PrintResult(const LoadResult &r) {
  PrintKv(r.opcode + " (" + r.loop + ", " + std::to_string(r.threads) + " thr)",
          Fmt(r.throughput_rps) + " req/s, p50 " + Fmt(r.p50_us) + " us, p95 " +
              Fmt(r.p95_us) + " us, p99 " + Fmt(r.p99_us) + " us" +
              (r.failures > 0 ? ", FAILURES " + std::to_string(r.failures)
                              : ""));
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  std::string out_path = "BENCH_net.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  size_t jobs = ParseJobs(argc, argv);
  if (jobs <= 1) jobs = 4;
  const size_t threads = smoke ? 2 : jobs;
  const size_t per_thread = smoke ? 100 : 2000;

  Section header("Network service layer");
  const std::string stamp = BenchStamp();
  std::printf("(mode=%s, client threads=%zu, requests/thread=%zu)\nstamp %s\n",
              smoke ? "smoke" : "bench", threads, per_thread, stamp.c_str());

  // --- Server + data + model setup ----------------------------------------
  Database db;
  {
    auto created = db.Execute("CREATE TABLE bench (id INTEGER, val DOUBLE)");
    if (!created.ok()) {
      std::fprintf(stderr, "FAIL: setup DDL: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < 256; i++) {
      db.Execute("INSERT INTO bench VALUES (" + std::to_string(i) + ", " +
                 std::to_string(i) + ".5)");
    }
  }
  ModelBot bot(&db.catalog(), &db.estimator(), &db.settings());
  {
    // Linear models on synthetic data: prediction cost is realistic for the
    // serving path while training stays negligible.
    std::vector<OuRecord> records;
    for (const TranslatedOu &ou : MakeOus()) {
      OuRecord r;
      r.ou = ou.type;
      r.features = ou.features;
      for (size_t j = 0; j < kNumLabels; j++) {
        double v = 1.0;
        for (double q : ou.features) v += (1.0 + 0.2 * j) * q;
        r.labels[j] = v;
      }
      for (int o = 0; o < 3; o++) records.push_back(r);
    }
    bot.TrainOuModels(records, {MlAlgorithm::kLinear}, /*normalize=*/false);
  }

  ServerOptions opts;
  opts.num_reactors = 2;
  opts.num_workers = static_cast<int>(threads);
  opts.queue_depth = 1024;
  opts.default_deadline_ms = 60'000;
  Server server(&db, &bot, opts);
  if (const Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "FAIL: server start: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- Closed loop (peak throughput) --------------------------------------
  std::vector<LoadResult> results;
  results.push_back(RunLoad("PING", DoPing, server.port(), threads, per_thread, 0));
  results.push_back(
      RunLoad("SQL_QUERY", DoSql, server.port(), threads, per_thread, 0));
  results.push_back(
      RunLoad("PREDICT_OUS", DoPredict, server.port(), threads, per_thread, 0));

  // --- Open loop (latency at a fixed, sub-saturation arrival rate) --------
  // Pace each client at ~4x its observed closed-loop per-request time so the
  // offered load sits well under capacity and the percentiles reflect
  // service latency, not queueing collapse.
  for (size_t i = 0; i < 3; i++) {
    const LoadResult &closed = results[i];
    const int64_t pace_us =
        std::max<int64_t>(50, static_cast<int64_t>(4.0 * closed.p50_us));
    const RequestFn fn = i == 0 ? DoPing : (i == 1 ? DoSql : DoPredict);
    results.push_back(RunLoad(closed.opcode, fn, server.port(), threads,
                              smoke ? 50 : 500, pace_us));
  }

  for (const LoadResult &r : results) PrintResult(r);

  const ServerStats stats = server.stats();
  PrintKv("server requests", std::to_string(stats.requests));
  PrintKv("server bytes in/out", std::to_string(stats.bytes_in) + " / " +
                                     std::to_string(stats.bytes_out));
  server.Stop();

  // --- JSON ---------------------------------------------------------------
  FILE *f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n  \"stamp\": %s,\n  \"results\": [\n",
               smoke ? "smoke" : "bench", stamp.c_str());
  for (size_t i = 0; i < results.size(); i++) {
    const LoadResult &r = results[i];
    std::fprintf(f,
                 "    {\"opcode\": \"%s\", \"loop\": \"%s\", \"threads\": %zu, "
                 "\"requests\": %zu, \"failures\": %zu, "
                 "\"throughput_rps\": %s, \"p50_us\": %s, \"p95_us\": %s, "
                 "\"p99_us\": %s}%s\n",
                 r.opcode.c_str(), r.loop.c_str(), r.threads, r.requests,
                 r.failures, Fmt(r.throughput_rps).c_str(),
                 Fmt(r.p50_us).c_str(), Fmt(r.p95_us).c_str(),
                 Fmt(r.p99_us).c_str(), i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f,
               "  ],\n  \"server\": {\"requests\": %llu, \"bytes_in\": %llu, "
               "\"bytes_out\": %llu, \"shed\": %llu}\n}\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.bytes_in),
               static_cast<unsigned long long>(stats.bytes_out),
               static_cast<unsigned long long>(stats.shed));
  std::fclose(f);
  PrintKv("json written", out_path);

  // --- Smoke assertions (ctest -L perf) -----------------------------------
  if (smoke) {
    bool ok = true;
    for (const LoadResult &r : results) {
      if (r.failures != 0) {
        std::fprintf(stderr, "FAIL: %s/%s had %zu failed requests\n",
                     r.opcode.c_str(), r.loop.c_str(), r.failures);
        ok = false;
      }
      if (r.throughput_rps <= 0.0 || r.p50_us <= 0.0) {
        std::fprintf(stderr, "FAIL: %s/%s reported no throughput\n",
                     r.opcode.c_str(), r.loop.c_str());
        ok = false;
      }
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
