#pragma once

// Shared machinery of the perfbench workloads: the closed-loop load
// generator, latency statistics, process/host accounting from procfs, the
// benchmark-side span recorder, and the per-run report every workload fills.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

using mb2::Median;  ///< 0 when empty; interpolates between order statistics

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Scratch directory for WAL and heap files; the workload empties it.
  std::string workdir;
};

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Server thread counts every workload uses (recorded in the run stamp).
constexpr int kReactors = 2;
constexpr int kWorkers = 4;
mb2::net::ServerOptions BenchServerOptions();

// --- Spans -----------------------------------------------------------------

/// One benchmark-side span: a timed call into a module's public function.
struct Span {
  const char *name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same log, -1 = root
  uint64_t request_id = 0;
  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// In-memory span log of one thread; written once, at exit.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int64_t Open(const char *name, uint64_t request_id);
  void Close(int64_t index);
  /// Appends a closed span measured elsewhere (e.g. a client round trip).
  void Add(const char *name, int64_t start_ns, int64_t end_ns,
           uint64_t request_id);

  const std::vector<Span> &spans() const { return spans_; }
  /// Self time of every span: duration minus the time its children cover.
  std::vector<double> SelfTimesUs() const;
  /// Median self time (µs) of the spans with `name` (0 when none).
  double MedianSelfUs(const std::string &name) const;
  void Append(const SpanLog &other);
  bool WriteTsv(const std::string &path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span on a SpanLog; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog *log, const char *name, uint64_t request_id)
      : log_(log), index_(log == nullptr ? -1 : log->Open(name, request_id)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

 private:
  SpanLog *log_;
  int64_t index_;
};

// --- Closed loop ------------------------------------------------------------

/// Outcome of one client operation, reported by the workload's op function.
struct OpOutcome {
  bool heavy = false;
  bool ok = false;
  bool aborted = false;      ///< server answered, transaction aborted
  double server_us = -1.0;   ///< server-side time when known (elapsed_us)
};

/// Performs operation number `op` on connection `conn`. Must check the
/// answer and report a wrong one as !ok.
using OpFn = std::function<OpOutcome(size_t conn, mb2::net::Client &client,
                                     uint64_t op)>;

struct ClassStats {
  std::vector<double> lat_us;     ///< completed, correct operations
  std::vector<double> net_us;     ///< round trip minus server time (traced)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t aborted = 0;
};

/// One sub-window of the measured loop.
struct Window {
  std::vector<double> light_us, heavy_us;  ///< operations that ended in it
  double process_cpu_us = 0.0;
  double loadgen_cpu_us = 0.0;
  double steal_pct = 0.0;    ///< host CPU time stolen by the hypervisor
  double foreign_pct = 0.0;  ///< host CPU time busy in other processes
};

/// The end-to-end figures of one loop.
struct EndToEnd {
  double throughput_ops = 0.0;
  double light_p50_us = 0.0;
  double heavy_p50_us = 0.0;
  double cpu_us_per_op = 0.0;  ///< process CPU minus load-generator CPU
  std::vector<size_t> windows;  ///< the sub-windows they were taken over
};

struct LoopResult {
  ClassStats light, heavy;     ///< the whole measured loop
  std::vector<Window> windows;  ///< equal consecutive sub-windows
  double window_len_s = 0.0;
  double window_s = 0.0;
  double steal_pct = 0.0;
  double foreign_cpu_pct = 0.0;
  uint64_t client_retries = 0;
  /// Peak resident set size (VmHWM, MiB) when the loop ended: the set-ups
  /// plus the loop, not the answer checks or a traced run that follow it.
  double peak_rss_mb = 0.0;
  /// Warm-up operations: unmeasured, but a failed one fails the run too.
  uint64_t warmup_attempted = 0, warmup_failed = 0;
  mb2::net::ServerStats server_before, server_after;

  uint64_t Attempted() const {
    return light.attempted + heavy.attempted + warmup_attempted;
  }
  uint64_t Failed() const { return light.failed + heavy.failed + warmup_failed; }
  /// End-to-end figures over the sub-windows in which the hypervisor stole
  /// the least CPU time (at most half; see Summarize): on a shared host,
  /// stolen time slows every layer at once, and it comes in bursts of a few
  /// seconds.
  /// (Foreign CPU is printed but not used: its floor of a few percent is
  /// tick-rounding noise that would drown the signal.)
  EndToEnd Summarize() const;
};

/// Runs `conns` closed-loop connections against `server`: each first warms
/// up for `warmup_s`, then issues operations back to back for `seconds`,
/// waiting for every reply; the measured time is cut into `windows` equal
/// sub-windows. With `spans`, a span is kept per client call.
LoopResult RunClosedLoop(mb2::net::Server &server, size_t conns, double warmup_s,
                         double seconds, size_t windows, const OpFn &op,
                         SpanLog *spans);

// --- Report -----------------------------------------------------------------

struct Report {
  std::string workload;
  size_t connections = 0;
  uint64_t min_ops_per_class = 0;
  std::vector<double> setup_s;  ///< every set-up of the run
  LoopResult loop;              ///< the untraced end-to-end loop
  LoopResult traced;            ///< its traced repeat (--trace 1 only)
  std::vector<std::string> errors;  ///< failed answer checks
  /// Answers found wrong after the loop; they count as failed operations.
  uint64_t wrong_answers = 0;
  /// Per-layer metrics (traced run only), by name.
  std::map<std::string, double> layer;
  /// Diagnostic lines printed with the report (breakdowns, p99s).
  std::vector<std::string> notes;

  void Fail(const std::string &why) { errors.push_back(why); }
};

/// A per-layer metric named in BENCHMARK.json. A workload that does not
/// exercise a layer reports 0 for it.
struct LayerMetric {
  const char *name;
  const char *unit;
};
const std::vector<LayerMetric> &LayerMetrics();
/// Fills the per-layer metrics every workload derives the same way from its
/// untraced and traced loops (net.*, trace.overhead_pct, host.*).
void FillLoopLayerMetrics(const LoopResult &untraced, const LoopResult &traced,
                          Report *report);

std::string FormatDouble(double v);

}  // namespace perfbench
