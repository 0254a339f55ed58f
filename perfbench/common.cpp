#include "common.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

namespace {

double ClockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// CPU time of the calling thread / of the whole process, in microseconds.
double ThreadCpuUs() { return ClockUs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuUs() { return ClockUs(CLOCK_PROCESS_CPUTIME_ID); }

/// Aggregate CPU ticks from the first line of /proc/stat.
struct HostCpu {
  uint64_t total = 0;
  uint64_t idle = 0;  ///< idle + iowait
  uint64_t steal = 0;
};

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[10] = {};
  in >> cpu;
  for (uint64_t &x : v) in >> x;
  HostCpu out;
  for (uint64_t x : v) out.total += x;
  out.total -= v[8] + v[9];  // guest time is already counted in user
  out.idle = v[3] + v[4];
  out.steal = v[7];
  return out;
}

/// Between two readings: the share of host CPU time stolen by the
/// hypervisor, and the share that was busy in other processes than this one
/// (`own_cpu_us` is this process's CPU time over the same interval).
void Interference(const HostCpu &a, const HostCpu &b, double own_cpu_us,
                  double *steal_pct, double *foreign_pct) {
  const double total = static_cast<double>(b.total - a.total);
  if (total <= 0.0) return;
  const double steal = static_cast<double>(b.steal - a.steal);
  *steal_pct = 100.0 * steal / total;
  // /proc/stat counts clock ticks of 10 ms (USER_HZ = 100 on Linux).
  const double busy_us = (total - static_cast<double>(b.idle - a.idle) - steal) * 1e4;
  *foreign_pct = std::max(0.0, 100.0 * (busy_us - own_cpu_us) / (total * 1e4));
}

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

mb2::net::ServerOptions BenchServerOptions() {
  mb2::net::ServerOptions opts;
  opts.num_reactors = kReactors;
  opts.num_workers = kWorkers;
  // Neither admission control nor deadlines may refuse a closed-loop request.
  opts.queue_depth = 1024;
  opts.default_deadline_ms = 60'000;
  return opts;
}

// --- Spans -----------------------------------------------------------------

int64_t SpanLog::Open(const char *name, uint64_t request_id) {
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::Close(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char *name, int64_t start_ns, int64_t end_ns,
                  uint64_t request_id) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = request_id;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
}

std::vector<double> SpanLog::SelfTimesUs() const {
  // Children of one span run one after another on the same thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); i++) self[i] = spans_[i].DurationUs();
  for (const Span &s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.DurationUs();
  }
  return self;
}

double SpanLog::MedianSelfUs(const std::string &name) const {
  const std::vector<double> self = SelfTimesUs();
  std::vector<double> picked;
  for (size_t i = 0; i < spans_.size(); i++) {
    if (name == spans_[i].name) picked.push_back(self[i]);
  }
  return Median(std::move(picked));
}

void SpanLog::Append(const SpanLog &other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool SpanLog::WriteTsv(const std::string &path) const {
  FILE *f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\trequest_id\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span &s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

// --- Closed loop ------------------------------------------------------------

EndToEnd LoopResult::Summarize() const {
  std::vector<size_t> order(windows.size());
  for (size_t k = 0; k < order.size(); k++) order[k] = k;
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return windows[a].steal_pct < windows[b].steal_pct;
  });
  // The quietest sub-windows until each class has 200 samples, then only
  // those within one point of the quietest, and at most half of them: at 2%
  // steal oltp already runs about 15% slower than at none.
  constexpr size_t kMinSamples = 200;
  const size_t half = (order.size() + 1) / 2;
  const double quiet_pct = order.empty() ? 0.0 : windows[order[0]].steal_pct + 1.0;
  size_t keep = 0, light_n = 0, heavy_n = 0;
  while (keep < half) {
    const Window &w = windows[order[keep]];
    if (light_n >= kMinSamples && heavy_n >= kMinSamples && w.steal_pct > quiet_pct) break;
    light_n += w.light_us.size();
    heavy_n += w.heavy_us.size();
    keep++;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());

  EndToEnd e;
  e.windows = order;
  std::vector<double> light, heavy;
  double cpu_us = 0.0;
  for (size_t k : order) {
    const Window &w = windows[k];
    light.insert(light.end(), w.light_us.begin(), w.light_us.end());
    heavy.insert(heavy.end(), w.heavy_us.begin(), w.heavy_us.end());
    cpu_us += w.process_cpu_us - w.loadgen_cpu_us;
  }
  const double ops = static_cast<double>(light.size() + heavy.size());
  e.throughput_ops = ops / (window_len_s * static_cast<double>(order.size()));
  e.light_p50_us = Median(std::move(light));
  e.heavy_p50_us = Median(std::move(heavy));
  e.cpu_us_per_op = ops > 0 ? cpu_us / ops : 0.0;
  return e;
}

LoopResult RunClosedLoop(mb2::net::Server &server, size_t conns, double warmup_s,
                         double seconds, size_t windows, const OpFn &op,
                         SpanLog *spans) {
  struct PerConn {
    ClassStats light, heavy;
    /// At each window boundary: the thread's CPU time, and how many samples
    /// each class held. Window k's samples are those recorded between
    /// boundaries k and k + 1, so every sample is stored once, 8 bytes per
    /// operation, and the load generator barely shows in peak_rss_mb.
    std::vector<double> cpu_us;
    std::vector<size_t> light_at, heavy_at;
    uint64_t retries = 0;
    uint64_t warmup_attempted = 0, warmup_failed = 0;
    int64_t last_end_ns = 0;
    SpanLog spans;
  };
  std::vector<PerConn> per(conns);
  std::atomic<size_t> warmed{0};
  std::atomic<int64_t> start_ns{0};
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9 / static_cast<double>(windows));

  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; c++) {
    threads.emplace_back([&, c] {
      mb2::net::ClientOptions copts;
      copts.port = server.port();
      copts.pool_size = 1;
      copts.request_timeout_ms = 60'000;
      mb2::net::Client client(copts);
      PerConn &me = per[c];
      uint64_t n = 0;
      const int64_t warm_end = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
      while (NowNs() < warm_end) {
        me.warmup_attempted++;
        if (!op(c, client, n++).ok) me.warmup_failed++;
      }
      // Every connection starts the window together, after the slowest
      // warm-up, so the window never includes another connection's warm-up.
      warmed.fetch_add(1);
      while (start_ns.load() == 0) std::this_thread::yield();
      const int64_t start = start_ns.load();
      const int64_t end = start + window_ns * static_cast<int64_t>(windows);
      const uint64_t retries0 = client.stats().retries;
      const auto mark = [&me] {
        me.cpu_us.push_back(ThreadCpuUs());
        me.light_at.push_back(me.light.lat_us.size());
        me.heavy_at.push_back(me.heavy.lat_us.size());
      };
      mark();
      int64_t now = NowNs();
      while (now < end) {
        const int64_t t0 = now;
        const OpOutcome out = op(c, client, n);
        now = NowNs();
        // A connection still inside an operation at a boundary marks it
        // when that operation ends; the operation counts in the window it
        // ended in.
        while (me.cpu_us.size() <= windows &&
               now >= start + window_ns * static_cast<int64_t>(me.cpu_us.size())) {
          mark();
        }
        ClassStats &cls = out.heavy ? me.heavy : me.light;
        cls.attempted++;
        if (out.aborted) cls.aborted++;
        if (!out.ok) {
          cls.failed++;
        } else {
          const double us = static_cast<double>(now - t0) / 1e3;
          cls.lat_us.push_back(us);
          if (spans != nullptr && out.server_us >= 0.0) {
            cls.net_us.push_back(us - out.server_us);
          }
        }
        if (spans != nullptr) {
          me.spans.Add(out.heavy ? "client.heavy" : "client.light", t0, now,
                       (static_cast<uint64_t>(c) << 40) | n);
        }
        n++;
      }
      // A connection whose loop never ran (it started after the window
      // ended) has marked only the first boundary.
      while (me.cpu_us.size() <= windows) mark();
      me.last_end_ns = now;
      me.retries = client.stats().retries - retries0;
    });
  }
  while (warmed.load() < conns) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  LoopResult result;
  result.server_before = server.stats();
  std::vector<HostCpu> host = {ReadHostCpu()};
  std::vector<double> proc_us = {ProcessCpuUs()};
  const int64_t t0 = NowNs();
  start_ns.store(t0);
  for (size_t k = 1; k <= windows; k++) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + window_ns * static_cast<int64_t>(k))));
    proc_us.push_back(ProcessCpuUs());
    host.push_back(ReadHostCpu());
  }
  for (std::thread &t : threads) t.join();
  // Before any sample is merged: the figure is the set-ups plus this loop.
  result.peak_rss_mb = PeakRssMb();
  result.server_after = server.stats();

  int64_t last_end = t0;
  for (PerConn &p : per) {
    for (auto [src, dst] : {std::pair{&p.light, &result.light},
                            std::pair{&p.heavy, &result.heavy}}) {
      dst->lat_us.insert(dst->lat_us.end(), src->lat_us.begin(), src->lat_us.end());
      dst->net_us.insert(dst->net_us.end(), src->net_us.begin(), src->net_us.end());
      dst->attempted += src->attempted;
      dst->failed += src->failed;
      dst->aborted += src->aborted;
    }
    result.warmup_attempted += p.warmup_attempted;
    result.warmup_failed += p.warmup_failed;
    result.client_retries += p.retries;
    last_end = std::max(last_end, p.last_end_ns);
    if (spans != nullptr) spans->Append(p.spans);
  }
  result.window_s = static_cast<double>(last_end - t0) / 1e9;
  result.window_len_s = static_cast<double>(window_ns) / 1e9;

  for (size_t k = 0; k < windows; k++) {
    Window w;
    for (const PerConn &p : per) {
      const std::vector<double> &light = p.light.lat_us, &heavy = p.heavy.lat_us;
      w.light_us.insert(w.light_us.end(), light.begin() + p.light_at[k],
                        light.begin() + p.light_at[k + 1]);
      w.heavy_us.insert(w.heavy_us.end(), heavy.begin() + p.heavy_at[k],
                        heavy.begin() + p.heavy_at[k + 1]);
      w.loadgen_cpu_us += p.cpu_us[k + 1] - p.cpu_us[k];
    }
    w.process_cpu_us = proc_us[k + 1] - proc_us[k];
    Interference(host[k], host[k + 1], w.process_cpu_us, &w.steal_pct, &w.foreign_pct);
    result.windows.push_back(std::move(w));
  }
  Interference(host.front(), host.back(), proc_us.back() - proc_us.front(),
               &result.steal_pct, &result.foreign_cpu_pct);
  return result;
}

// --- Report -----------------------------------------------------------------

const std::vector<LayerMetric> &LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"net.overhead_us", "us"},
      {"net.ping_us", "us"},
      {"net.bytes_per_op", "B"},
      {"net.refused_ratio", "ratio"},
      {"sql.parse_us", "us"},
      {"sql.frontend_us", "us"},
      {"sql.plan_cache_hit_ratio", "ratio"},
      {"exec.execute_us", "us"},
      {"exec.ns_per_row", "ns"},
      {"txn.commit_us", "us"},
      {"txn.abort_ratio", "ratio"},
      {"wal.flush_us", "us"},
      {"wal.flush_disk_us", "us"},
      {"wal.flushes_per_commit", "ratio"},
      {"wal.bytes_per_commit", "B"},
      {"gc.run_us", "us"},
      {"gc.versions_per_run", "count"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.misses_per_scan", "count"},
      {"storage.disk_ns_per_row", "ns"},
      {"modeling.translate_us", "us"},
      {"modeling.predict_us_per_ou", "us"},
      {"modeling.ou_cache_hit_ratio", "ratio"},
      {"modeling.degraded_ous", "count"},
      {"modeling.test_error", "ratio"},
      {"ml.predict_batch_us_per_row", "us"},
      {"runner.sweep_s", "s"},
      {"runner.train_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.residual_pct", "%"},
      {"host.steal_pct", "%"},
      {"host.foreign_cpu_pct", "%"},
  };
  return kMetrics;
}

void FillLoopLayerMetrics(const LoopResult &untraced, const LoopResult &traced,
                          Report *report) {
  auto &m = report->layer;
  if (!traced.light.net_us.empty()) {
    m["net.overhead_us"] = Median(traced.light.net_us);
    report->notes.push_back("net.overhead_us[heavy] " +
                            FormatDouble(Median(traced.heavy.net_us)));
  }
  const auto &a = traced.server_after;
  const auto &b = traced.server_before;
  const double requests = static_cast<double>(a.requests - b.requests);
  if (requests > 0) {
    m["net.bytes_per_op"] =
        static_cast<double>((a.bytes_in - b.bytes_in) + (a.bytes_out - b.bytes_out)) /
        requests;
    m["net.refused_ratio"] =
        static_cast<double>((a.shed - b.shed) + (a.deadline_expired - b.deadline_expired)) /
        requests;
  }
  const double attempted = static_cast<double>(traced.Attempted());
  if (attempted > 0) {
    m["txn.abort_ratio"] =
        static_cast<double>(traced.light.aborted + traced.heavy.aborted) / attempted;
  }
  const double base = untraced.Summarize().throughput_ops;
  if (base > 0) {
    m["trace.overhead_pct"] = 100.0 * (base - traced.Summarize().throughput_ops) / base;
  }
  m["host.steal_pct"] = untraced.steal_pct;
  m["host.foreign_cpu_pct"] = untraced.foreign_cpu_pct;
  report->notes.push_back("client retries (traced loop): " +
                          std::to_string(traced.client_retries));
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
