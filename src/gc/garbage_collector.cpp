#include "gc/garbage_collector.h"

#include "metrics/metrics_collector.h"
#include "metrics/work_stats.h"
#include "obs/metrics_registry.h"
#include "storage/table.h"

namespace mb2 {

GcResult GarbageCollector::RunOnce() {
  GcResult result;
  const double interval = settings_->GetDouble("gc_interval_us");
  // Features (versions unlinked, bytes reclaimed) are only known after the
  // pass; amend them before the scope records.
  OuTrackerScope scope(OuType::kGarbageCollection, {0.0, 0.0, interval});

  // This pass's work: the slots commits superseded since the last pass,
  // then those an earlier pass carried because they were above its horizon.
  uint64_t horizon = 0;
  std::vector<SupersededSlot> work = txn_manager_->TakeSuperseded(&horizon);
  {
    std::lock_guard<std::mutex> lock(carried_mutex_);
    work.insert(work.end(), carried_.begin(), carried_.end());
    carried_.clear();
  }
  std::vector<SupersededSlot> later;
  for (const SupersededSlot &s : work) {
    if (s.commit_ts > horizon) {
      later.push_back(s);
      continue;
    }
    result.versions_unlinked +=
        s.table->CollectSlot(s.slot, horizon, &result.bytes_reclaimed);
  }
  if (!later.empty()) {
    std::lock_guard<std::mutex> lock(carried_mutex_);
    carried_.insert(carried_.end(), later.begin(), later.end());
  }
  WorkStats::Current().bytes_read += result.bytes_reclaimed;

  scope.MutableFeatures()[0] = static_cast<double>(result.versions_unlinked);
  scope.MutableFeatures()[1] = static_cast<double>(result.bytes_reclaimed);

  static Counter &passes =
      MetricsRegistry::Instance().GetCounter("mb2_gc_passes_total");
  static Counter &unlinked =
      MetricsRegistry::Instance().GetCounter("mb2_gc_versions_unlinked_total");
  static Counter &reclaimed =
      MetricsRegistry::Instance().GetCounter("mb2_gc_reclaimed_bytes_total");
  passes.Add();
  unlinked.Add(result.versions_unlinked);
  reclaimed.Add(result.bytes_reclaimed);
  return result;
}

void GarbageCollector::StartBackground() {
  if (running_.load()) return;
  running_.store(true);
  worker_ = std::thread([this] { Loop(); });
}

void GarbageCollector::StopBackground() {
  if (!running_.load()) return;
  running_.store(false);
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void GarbageCollector::Loop() {
  while (running_.load()) {
    const auto interval =
        std::chrono::microseconds(settings_->GetInt("gc_interval_us"));
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, interval, [this] { return !running_.load(); });
    }
    if (!running_.load()) break;
    RunOnce();
  }
}

}  // namespace mb2
