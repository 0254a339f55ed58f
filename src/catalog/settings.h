#pragma once

/// \file settings.h
/// The DBMS's tunable knobs. The paper distinguishes *behavior knobs*
/// (appended to the affected OUs' features, e.g. execution mode, log flush
/// interval) from *resource knobs* (evaluated against OU-model resource
/// predictions, e.g. working-memory limit). Self-driving actions change
/// knobs through this manager.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace mb2 {

/// One audited knob change: old→new value, when, and who asked for it
/// ("manual" operator/test code, "controller" for the autonomous daemon,
/// "planner-whatif" for transient hypothetical evaluations). The manager
/// keeps a bounded ring of these so controller decisions can be debugged
/// after the fact (CTRL_STATUS / GET_METRICS expose them).
struct KnobChange {
  std::string name;
  double old_value = 0.0;
  double new_value = 0.0;
  std::string source;
  int64_t time_us = 0;  ///< µs since process start (metrics timeline)
};

/// Query execution strategy. Interpret runs Volcano-style iterators with
/// virtual dispatch; Compiled runs fused, batched pipelines (our stand-in
/// for NoisePage's JIT, with a genuine measured performance difference);
/// Vectorized runs filters/projections over typed column vectors of
/// `vector_batch_size` rows through the SIMD primitives (same OU feature
/// class as Compiled).
enum class ExecutionMode : int64_t { kInterpret = 0, kCompiled = 1, kVectorized = 2 };

enum class KnobKind { kBehavior, kResource };

class SettingsManager {
 public:
  SettingsManager();

  int64_t GetInt(const std::string &name) const;
  double GetDouble(const std::string &name) const;
  /// `source` attributes the change in the audit trail ("manual" default;
  /// the controller passes "controller"). No-op values are still audited —
  /// an explicit SET to the current value is an operator decision too.
  Status SetInt(const std::string &name, int64_t value,
                const std::string &source = "manual");
  Status SetDouble(const std::string &name, double value,
                   const std::string &source = "manual");

  /// The retained knob-change audit ring, oldest first (bounded at
  /// kAuditCapacity; older entries are dropped).
  std::vector<KnobChange> History() const;
  uint64_t total_changes() const;  ///< lifetime count, incl. dropped entries
  static constexpr size_t kAuditCapacity = 256;

  ExecutionMode GetExecutionMode() const {
    return static_cast<ExecutionMode>(GetInt("execution_mode"));
  }

  KnobKind Kind(const std::string &name) const;
  std::map<std::string, double> Snapshot() const;

  /// Knob defaults (also serve as documentation of the knob set):
  ///   execution_mode          0=interpret 1=compiled 2=vector   (behavior)
  ///   log_flush_interval_us   WAL flush period                  (behavior)
  ///   gc_interval_us          garbage-collection period         (behavior)
  ///   ou_cache_capacity       OU-prediction cache entries/type  (resource)
  ///   net_worker_threads      server worker pool size (at start)(resource)
  ///   net_queue_depth         server admission bound (hot)      (resource)
  ///   net_default_deadline_ms per-request deadline (hot; 0=off) (behavior)
  ///   sql_plan_cache_capacity plan-cache entries (hot; 0=off)   (resource)
  ///   vector_batch_size       rows per vectorized batch (hot)   (behavior)
  ///   optimizer_mode          0=heuristic, 1=model-costed (hot) (behavior)
  ///   repl_heartbeat_ms       heartbeat + idle fetch period     (behavior)
  ///   repl_batch_bytes        max bytes per shipped log batch   (resource)
  ///   repl_failover_grace_ms  unresponsive window before failover (behavior)
  ///   repl_replica_stale_ms   ack age before a replica leaves lag (behavior)
  ///   buffer_pool_pages       disk-heap page cache frames (hot)  (resource)
  ///   wal_sync_commit         1 = flush WAL before commit returns (behavior)
  ///   ctrl_interval_ms        controller decision-loop period    (behavior)
  ///   ctrl_cooldown_ms        min gap between applied actions    (behavior)
  ///   ctrl_min_benefit_pct    predicted improvement to act       (behavior)
  ///   ctrl_rollback_tolerance_pct observed-regression rollback bar (behavior)

 private:
  struct Knob {
    double value;
    KnobKind kind;
  };
  /// Knobs are read on serving hot paths while self-driving actions (or an
  /// operator) change them concurrently, so every access locks. The knob set
  /// itself is fixed at construction; only values change.
  mutable std::mutex mutex_;
  std::map<std::string, Knob> knobs_;
  std::deque<KnobChange> audit_;
  uint64_t total_changes_ = 0;
};

}  // namespace mb2
