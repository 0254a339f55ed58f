// perfbench: the repository's end-to-end benchmark. One invocation sets up
// an in-process net::Server, drives one workload over loopback TCP with a
// closed loop of client connections, checks every answer, and prints a
// report whose last line is one JSON object:
//
//   perfbench --workload oltp|olap|ou_serve --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//   perfbench --smoke [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics of the untraced loop; --trace 1
// repeats the loop with spans and replays a sample of the same operations
// in-process to report per-layer metrics. --smoke runs every workload, both
// ways, for a few seconds each with every answer check on. The exit code is
// non-zero when an answer check fails or a class completes fewer operations
// than its minimum. See NOTES.md for what each workload and metric is for.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct EndToEndMetric {
  const char *name;
  const char *unit;
};
constexpr EndToEndMetric kEndToEnd[] = {
    {"throughput_ops", "ops/s"}, {"light_p50_us", "us"},
    {"heavy_p50_us", "us"},      {"cpu_us_per_op", "us"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
};

void PrintClass(const char *name, const ClassStats &c, uint64_t min_ops) {
  std::printf("  %-6s attempted=%llu failed=%llu completed=%zu (min %llu)  "
              "p50=%.1f us  p99=%.1f us (n=%zu)\n",
              name, static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed), c.lat_us.size(),
              static_cast<unsigned long long>(min_ops), Median(c.lat_us),
              mb2::Percentile(c.lat_us, 99.0), c.lat_us.size());
}

/// Prints the report; returns whether the run is correct.
bool PrintReport(const RunConfig &cfg, const Report &r) {
  const LoopResult &loop = r.loop;
  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d\n", r.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::printf("  connections=%zu server reactors=%d workers=%d closed loop\n",
              r.connections, kReactors, kWorkers);
  std::printf("  window=%.3f s  host.steal_pct=%.2f  host.foreign_cpu_pct=%.2f  "
              "client retries=%llu\n",
              loop.window_s, loop.steal_pct, loop.foreign_cpu_pct,
              static_cast<unsigned long long>(loop.client_retries));
  PrintClass("light", loop.light, r.min_ops_per_class);
  PrintClass("heavy", loop.heavy, r.min_ops_per_class);
  std::printf("  warm-up attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(loop.warmup_attempted),
              static_cast<unsigned long long>(loop.warmup_failed));
  if (cfg.trace) {
    std::printf("  traced loop attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(r.traced.Attempted()),
                static_cast<unsigned long long>(r.traced.Failed()));
  }
  std::printf("  setups:");
  for (double s : r.setup_s) std::printf(" %.3f s", s);
  std::printf("\n");
  const EndToEnd e2e = loop.Summarize();
  std::printf("  sub-windows of %.2f s (ops, steal %%, foreign %%), * = used:",
              loop.window_len_s);
  for (size_t k = 0; k < loop.windows.size(); k++) {
    const Window &w = loop.windows[k];
    const bool used =
        std::find(e2e.windows.begin(), e2e.windows.end(), k) != e2e.windows.end();
    std::printf(" %s[%zu %.1f %.1f]", used ? "*" : "", w.light_us.size() + w.heavy_us.size(),
                w.steal_pct, w.foreign_pct);
  }
  std::printf("\n");
  for (const std::string &note : r.notes) std::printf("  %s\n", note.c_str());

  bool correct = r.errors.empty();
  for (const std::string &e : r.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  for (const auto *c : {&loop.light, &loop.heavy}) {
    if (c->lat_us.size() < r.min_ops_per_class) {
      std::printf("  CHECK FAILED: a class completed %zu operations, below the "
                  "minimum of %llu\n",
                  c->lat_us.size(), static_cast<unsigned long long>(r.min_ops_per_class));
      correct = false;
    }
  }
  const uint64_t attempted = loop.Attempted() + r.traced.Attempted();
  const uint64_t failed = loop.Failed() + r.traced.Failed() + r.wrong_answers;
  if (failed > 0) correct = false;

  std::string metrics;
  auto add = [&metrics](const std::string &name, double value, const char *unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + FormatDouble(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (cfg.trace) {
    for (const LayerMetric &m : LayerMetrics()) {
      const auto it = r.layer.find(m.name);
      const double v = it == r.layer.end() ? 0.0 : it->second;
      std::printf("  %-30s %14.4f %s\n", m.name, v, m.unit);
      add(m.name, v, m.unit);
    }
  } else {
    const double values[] = {e2e.throughput_ops, e2e.light_p50_us, e2e.heavy_p50_us,
                             e2e.cpu_us_per_op, Median(r.setup_s), loop.peak_rss_mb};
    for (size_t i = 0; i < std::size(kEndToEnd); i++) {
      std::printf("  %-30s %14.4f %s\n", kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
      add(kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct;
}

Report RunWorkload(const RunConfig &cfg) {
  if (cfg.workload == "oltp") return RunOltp(cfg);
  if (cfg.workload == "olap") return RunOlap(cfg);
  return RunOuServe(cfg);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp|olap|ou_serve --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n"
               "       perfbench --smoke [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char **argv) {
  RunConfig cfg;
  cfg.workdir = "perfbench-work";
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--workdir" && has_value) {
      cfg.workdir = argv[++i];
    } else {
      return Usage();
    }
  }
  const bool known = cfg.workload == "oltp" || cfg.workload == "olap" ||
                     cfg.workload == "ou_serve";
  if (!cfg.smoke && (!known || cfg.seconds <= 0.0)) return Usage();
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create work directory %s\n", cfg.workdir.c_str());
    return 2;
  }

  bool ok = true;
  if (cfg.smoke) {
    // Every workload, untraced and traced, with every answer check.
    for (const char *w : {"oltp", "olap", "ou_serve"}) {
      for (bool trace : {false, true}) {
        RunConfig one = cfg;
        one.workload = w;
        one.trace = trace;
        one.seconds = 1.0;
        one.seed = 7;
        Report r = RunWorkload(one);
        ok = PrintReport(one, r) && ok;
      }
    }
  } else {
    Report r = RunWorkload(cfg);
    ok = PrintReport(cfg, r);
  }
  std::filesystem::remove_all(cfg.workdir, ec);
  return ok ? 0 : 1;
}
