#pragma once

/// \file harness.h
/// Shared utilities for the experiment benches (one binary per paper table /
/// figure). Each bench prints the paper-style rows for its experiment;
/// EXPERIMENTS.md records the paper-vs-measured comparison.
///
/// Environment knobs:
///   MB2_BENCH_SCALE=small|medium|full   sweep sizes (default medium)
///   MB2_JOBS=N                          worker threads (same as --jobs N)
///
/// Command-line flags (benches that accept argc/argv):
///   --jobs N | --jobs=N | -j N          parallel sweep + training workers

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "database.h"
#include "modeling/model_bot.h"
#include "runner/concurrent_runner.h"
#include "runner/ou_runner.h"

namespace mb2::bench {

inline std::string BenchScale() {
  const char *env = std::getenv("MB2_BENCH_SCALE");
  return env == nullptr ? "medium" : env;
}

/// Worker count for parallel sweeps/training: --jobs N, --jobs=N, or -j N on
/// the command line; falls back to MB2_JOBS, then to 1 (serial).
inline size_t ParseJobs(int argc, char **argv) {
  long jobs = 0;
  for (int i = 1; i < argc; i++) {
    const char *arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = std::atol(arg + 7);
    } else if ((std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0)
               && i + 1 < argc) {
      jobs = std::atol(argv[++i]);
    }
  }
  if (jobs <= 0) {
    const char *env = std::getenv("MB2_JOBS");
    if (env != nullptr) jobs = std::atol(env);
  }
  return jobs > 0 ? static_cast<size_t>(jobs) : 1;
}

#ifndef MB2_BUILD_TYPE
#define MB2_BUILD_TYPE "unknown"
#endif

/// Where a BENCH_*.json came from, as one JSON object: host name, online
/// cores, CMake build type and the git commit of the working directory.
/// Numbers from two files compare only when host and cores match.
inline std::string BenchStamp() {
  // Keeps only characters that need no JSON escaping.
  auto clean = [](const std::string &raw) {
    std::string out;
    for (char c : raw) {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-' ||
          c == '_') {
        out += c;
      }
    }
    return out.empty() ? std::string("unknown") : out;
  };
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  std::string commit;
  if (FILE *git = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char line[128] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr) commit = line;
    if (pclose(git) != 0) commit.clear();
  }
  return "{\"host\": \"" + clean(host) + "\", \"nproc\": " +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": \"" + clean(MB2_BUILD_TYPE) +
         "\", \"commit\": \"" + clean(commit) + "\"}";
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// OU-runner sweep sized for the bench scale.
inline OuRunnerConfig RunnerConfig() {
  const std::string scale = BenchScale();
  if (scale == "small") {
    OuRunnerConfig cfg = OuRunnerConfig::Small();
    return cfg;
  }
  OuRunnerConfig cfg;
  if (scale == "full") {
    cfg.row_counts = {64, 512, 4096, 32768, 131072, 524288};
    cfg.repetitions = 10;
    cfg.warmups = 5;
    return cfg;
  }
  // medium. The smallest table is 256 rows: sub-µs OU invocations are
  // dominated by timer noise and poison relative-error metrics (the paper
  // hits the same wall with short OLTP OUs).
  cfg.row_counts = {256, 1024, 8192, 32768};
  cfg.cardinality_fractions = {0.05, 0.5, 1.0};
  cfg.column_counts = {2, 4, 8};
  cfg.index_build_threads = {1, 2, 4, 8};
  cfg.repetitions = 7;
  cfg.warmups = 2;
  return cfg;
}

/// TPC-H scale factors standing in for the paper's 0.1 / 1 / 10 GB.
inline double TpchSmallSf() { return BenchScale() == "small" ? 0.001 : 0.004; }
inline double TpchMediumSf() { return BenchScale() == "small" ? 0.01 : 0.04; }
inline double TpchLargeSf() { return BenchScale() == "small" ? 0.1 : 0.4; }

/// The four algorithms Figs 5/6 report.
inline std::vector<MlAlgorithm> Fig5Algorithms() {
  return {MlAlgorithm::kRandomForest, MlAlgorithm::kNeuralNetwork,
          MlAlgorithm::kHuber, MlAlgorithm::kGradientBoosting};
}

struct Section {
  explicit Section(const std::string &title) {
    std::printf("\n=== %s ===\n", title.c_str());
  }
};

inline void PrintKv(const std::string &key, const std::string &value) {
  std::printf("  %-44s %s\n", key.c_str(), value.c_str());
}

inline std::string Fmt(double v) {
  char buf[64];
  if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.3g", v);
  else std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Runs the full OU-runner battery and trains OU-models.
struct TrainedStack {
  std::unique_ptr<Database> db;
  std::unique_ptr<ModelBot> bot;
  std::vector<OuRecord> ou_records;
  double runner_seconds = 0.0;   ///< CPU cost summed across sweep units
  double sweep_wall_seconds = 0.0;
  double train_wall_seconds = 0.0;
  TrainingReport ou_report;
};

/// With jobs > 1, the sweep units and the per-OU fits run on a worker pool;
/// training results are bit-identical to jobs == 1 for the same records.
inline TrainedStack BuildTrainedStack(
    const std::vector<MlAlgorithm> &algorithms = AllAlgorithms(),
    bool normalize = true, size_t jobs = 1) {
  TrainedStack stack;
  stack.db = std::make_unique<Database>();
  if (jobs > 1) {
    SweepResult sweep = RunParallelSweep(RunnerConfig(), jobs);
    stack.ou_records = std::move(sweep.records);
    stack.runner_seconds = sweep.runner_seconds;
    stack.sweep_wall_seconds = sweep.wall_seconds;
  } else {
    WallTimer sweep_timer;
    OuRunner runner(stack.db.get(), RunnerConfig());
    stack.ou_records = runner.RunAll();
    stack.runner_seconds = runner.runner_seconds();
    stack.sweep_wall_seconds = sweep_timer.Seconds();
  }
  stack.bot = std::make_unique<ModelBot>(&stack.db->catalog(),
                                         &stack.db->estimator(),
                                         &stack.db->settings());
  WallTimer train_timer;
  if (jobs > 1) {
    ThreadPool pool(jobs);
    stack.ou_report = stack.bot->TrainOuModels(stack.ou_records, algorithms,
                                               normalize, /*seed=*/42, &pool);
  } else {
    stack.ou_report =
        stack.bot->TrainOuModels(stack.ou_records, algorithms, normalize);
  }
  stack.train_wall_seconds = train_timer.Seconds();
  return stack;
}

/// Standard wall-clock report for `--jobs` benches: rerun with different
/// `--jobs` values and compare these lines for the speedup.
inline void PrintJobsReport(size_t jobs, double sweep_wall_s,
                            double train_wall_s) {
  std::printf("\n--- wall clock (jobs=%zu) ---\n", jobs);
  std::printf("  %-28s %.2f s\n", "OU-runner sweep", sweep_wall_s);
  std::printf("  %-28s %.2f s\n", "model training", train_wall_s);
  std::printf("  %-28s %.2f s\n", "sweep + training total",
              sweep_wall_s + train_wall_s);
}

}  // namespace mb2::bench
