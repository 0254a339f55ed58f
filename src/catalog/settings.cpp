#include "catalog/settings.h"

#include "metrics/metrics_collector.h"
#include "obs/metrics_registry.h"

namespace mb2 {

SettingsManager::SettingsManager() {
  knobs_["execution_mode"] = {0.0, KnobKind::kBehavior};
  knobs_["log_flush_interval_us"] = {10000.0, KnobKind::kBehavior};
  knobs_["gc_interval_us"] = {10000.0, KnobKind::kBehavior};
  // Fault-injection knob for the software-update study (Sec 8.5 / Fig 9a):
  // sleep 1µs every N tuples inserted into a join hash table. 0 disables.
  knobs_["jht_sleep_every_n"] = {0.0, KnobKind::kBehavior};
  // Serving-layer memoization: per-OU-type LRU capacity of the OU-prediction
  // cache (entries). 0 disables caching entirely.
  knobs_["ou_cache_capacity"] = {4096.0, KnobKind::kResource};
  // Network service layer (src/net). Worker count applies at server start;
  // queue depth and deadline are re-read on every admission decision, so the
  // self-driving planner can tune a live server (0 deadline = none).
  knobs_["net_worker_threads"] = {4.0, KnobKind::kResource};
  knobs_["net_queue_depth"] = {256.0, KnobKind::kResource};
  knobs_["net_default_deadline_ms"] = {5000.0, KnobKind::kBehavior};
  // SQL fast path (src/sql/plan_cache, src/plan/cost_optimizer, vectorized
  // exec). All three are hot-tunable: capacity is re-read on every cache
  // insert, optimizer mode on every planning call, and batch size at query
  // start. 0 capacity disables plan caching.
  knobs_["sql_plan_cache_capacity"] = {1024.0, KnobKind::kResource};
  knobs_["vector_batch_size"] = {1024.0, KnobKind::kBehavior};
  knobs_["optimizer_mode"] = {0.0, KnobKind::kBehavior};  // 0=heuristic 1=model
  // Replication (src/repl). Heartbeat period doubles as the follower's idle
  // fetch-poll period; batch bytes caps one shipped log batch; the grace
  // window is how long a primary must stay unresponsive before failover
  // (hysteresis = grace / heartbeat consecutive failures). All hot-read.
  knobs_["repl_heartbeat_ms"] = {50.0, KnobKind::kBehavior};
  knobs_["repl_batch_bytes"] = {256.0 * 1024.0, KnobKind::kResource};
  knobs_["repl_failover_grace_ms"] = {500.0, KnobKind::kBehavior};
  // A replica whose last ack is older than this stops counting toward the
  // lag gauges (a permanently dead subscriber must not pin them forever);
  // its registration survives, so it resumes counting on its next ack.
  knobs_["repl_replica_stale_ms"] = {10000.0, KnobKind::kBehavior};
  // Buffer-pool capacity in 4 KiB frames for disk-backed tables (DESIGN.md
  // §4i). Hot: re-read on every miss, so a self-driving action resizes the
  // pool on a live server (shrinking drains lazily as pins release).
  knobs_["buffer_pool_pages"] = {256.0, KnobKind::kResource};
  // 1 = a commit's WAL bytes are flushed to the device before Commit
  // returns (committed == durable; what the chaos harness asserts on).
  // 0 = group flush on log_flush_interval_us, the paper's default.
  knobs_["wal_sync_commit"] = {0.0, KnobKind::kBehavior};
  // Autonomous controller (src/ctrl, DESIGN.md §4j). All hot-read each tick:
  // the loop period, the minimum gap between applied actions, the predicted
  // improvement (percent of baseline latency) required before acting, and
  // how much worse than the pre-action baseline the observed latency may get
  // before the action is rolled back.
  knobs_["ctrl_interval_ms"] = {1000.0, KnobKind::kBehavior};
  knobs_["ctrl_cooldown_ms"] = {5000.0, KnobKind::kBehavior};
  knobs_["ctrl_min_benefit_pct"] = {5.0, KnobKind::kBehavior};
  knobs_["ctrl_rollback_tolerance_pct"] = {25.0, KnobKind::kBehavior};
}

int64_t SettingsManager::GetInt(const std::string &name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = knobs_.find(name);
  MB2_ASSERT(it != knobs_.end(), "unknown knob");
  return static_cast<int64_t>(it->second.value);
}

double SettingsManager::GetDouble(const std::string &name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = knobs_.find(name);
  MB2_ASSERT(it != knobs_.end(), "unknown knob");
  return it->second.value;
}

Status SettingsManager::SetInt(const std::string &name, int64_t value,
                               const std::string &source) {
  return SetDouble(name, static_cast<double>(value), source);
}

Status SettingsManager::SetDouble(const std::string &name, double value,
                                  const std::string &source) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = knobs_.find(name);
    if (it == knobs_.end()) return Status::NotFound("unknown knob: " + name);
    KnobChange change;
    change.name = name;
    change.old_value = it->second.value;
    change.new_value = value;
    change.source = source;
    change.time_us = NowMicros();
    it->second.value = value;
    if (audit_.size() >= kAuditCapacity) audit_.pop_front();
    audit_.push_back(std::move(change));
    total_changes_++;
  }
  // Counter registration takes the registry lock; keep it outside ours.
  MetricsRegistry::Instance()
      .GetCounter("mb2_knob_changes_total{source=\"" + source + "\"}")
      .Add();
  return Status::Ok();
}

std::vector<KnobChange> SettingsManager::History() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {audit_.begin(), audit_.end()};
}

uint64_t SettingsManager::total_changes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_changes_;
}

KnobKind SettingsManager::Kind(const std::string &name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = knobs_.find(name);
  MB2_ASSERT(it != knobs_.end(), "unknown knob");
  return it->second.kind;
}

std::map<std::string, double> SettingsManager::Snapshot() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto &[name, knob] : knobs_) out[name] = knob.value;
  return out;
}

}  // namespace mb2
