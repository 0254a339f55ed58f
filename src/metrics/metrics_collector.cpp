#include "metrics/metrics_collector.h"

#include <chrono>
#include <thread>

#include "obs/drift_monitor.h"

namespace mb2 {

thread_local bool MetricsManager::tls_collecting_ = false;

int64_t NowMicros() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

MetricsManager &MetricsManager::Instance() {
  static MetricsManager instance;
  return instance;
}

MetricsManager::ThreadBuffer *MetricsManager::LocalBuffer() {
  // The holder hands the buffer back at thread exit so a later thread can
  // adopt it once drained. WorkloadDriver spawns a fresh worker fleet per
  // Run; without recycling the registry would grow one buffer per worker
  // for the life of the process.
  struct Holder {
    MetricsManager *manager;
    ThreadBuffer *buffer;
    ~Holder() { manager->ReleaseBuffer(buffer); }
  };
  thread_local Holder holder{this, AcquireBuffer()};
  return holder.buffer;
}

MetricsManager::ThreadBuffer *MetricsManager::AcquireBuffer() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (size_t i = 0; i < free_buffers_.size(); i++) {
    ThreadBuffer *candidate = free_buffers_[i];
    bool drained;
    {
      SpinLatch::ScopedLock guard(&candidate->latch);
      drained = candidate->records.empty();
    }
    // Only adopt drained buffers: a dead thread's unharvested records must
    // stay where DrainAll finds them, not leak into the adopting thread's
    // DrainThread.
    if (!drained) continue;
    free_buffers_[i] = free_buffers_.back();
    free_buffers_.pop_back();
    return candidate;
  }
  auto owned = std::make_unique<ThreadBuffer>();
  ThreadBuffer *raw = owned.get();
  buffers_.push_back(std::move(owned));
  return raw;
}

void MetricsManager::ReleaseBuffer(ThreadBuffer *buffer) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  free_buffers_.push_back(buffer);
}

size_t MetricsManager::RegisteredBufferCount() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return buffers_.size();
}

void MetricsManager::Record(OuType ou, FeatureVector features,
                            const Labels &labels) {
  if (!Enabled()) return;
  RecordUnchecked(ou, std::move(features), labels);
}

void MetricsManager::RecordUnchecked(OuType ou, FeatureVector features,
                                     const Labels &labels) {
  // Hardware-context mode (Sec 8.6): CPU frequency as a trailing feature.
  if (SimulatedHardware::AppendContextFeature()) {
    features.push_back(SimulatedHardware::EffectiveFreqGhz());
  }
  ThreadBuffer *buffer = LocalBuffer();
  OuRecord record;
  record.ou = ou;
  record.features = std::move(features);
  record.labels = labels;
  record.thread_id =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  record.end_time_us = NowMicros();
  SpinLatch::ScopedLock guard(&buffer->latch);
  buffer->records.push_back(std::move(record));
}

void MetricsManager::QuiesceScopes() const {
  // Recording scopes increment the counter at construction and decrement
  // after their Record() completes, so once it reads zero every record whose
  // scope began before the disable is in some thread buffer.
  while (active_scopes_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

std::vector<OuRecord> MetricsManager::DrainAll() {
  QuiesceScopes();
  std::vector<OuRecord> out;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto &buffer : buffers_) {
    SpinLatch::ScopedLock guard(&buffer->latch);
    out.insert(out.end(), std::make_move_iterator(buffer->records.begin()),
               std::make_move_iterator(buffer->records.end()));
    buffer->records.clear();
  }
  return out;
}

std::vector<OuRecord> MetricsManager::DrainThread() {
  ThreadBuffer *buffer = LocalBuffer();
  std::vector<OuRecord> out;
  SpinLatch::ScopedLock guard(&buffer->latch);
  out.swap(buffer->records);
  return out;
}

size_t MetricsManager::BufferedCount() {
  size_t total = 0;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (auto &buffer : buffers_) {
    SpinLatch::ScopedLock guard(&buffer->latch);
    total += buffer->records.size();
  }
  return total;
}

OuTrackerScope::OuTrackerScope(OuType ou, FeatureVector features)
    : ou_(ou),
      features_(std::move(features)),
      record_(MetricsManager::Instance().Enabled()),
      // Production-mode drift sampling: 1 in N tracked invocations runs the
      // tracker anyway so the observed labels can be scored against the
      // deployed model. Training mode records everything already.
      drift_sample_(!record_ && DriftMonitor::Instance().ShouldSample()),
      span_(GetOuDescriptor(ou).span_name) {
  // The tracker also runs (without recording) whenever the CPU-frequency
  // simulation is on: the slowdown is injected at Stop(), and it must apply
  // to production-style runs too, not just training mode.
  const bool measure = record_ || drift_sample_ ||
                       SimulatedHardware::GetCpuFreqGhz() > 0.0;
  if (!measure) return;
  if (record_) MetricsManager::Instance().ScopeOpened();
  tracker_.emplace();
  tracker_->Start();
}

void OuTrackerScope::Stop() {
  if (!tracker_.has_value() || stopped_) return;  // span_ keeps its own clock
  stopped_ = true;
  labels_ = tracker_->Stop();
  span_.Close(labels_[kLabelElapsedUs]);
}

OuTrackerScope::~OuTrackerScope() {
  if (!tracker_.has_value()) return;  // span_ closes on its own clock
  Stop();
  if (record_) {
    // Unchecked: the decision to record was latched at scope open. Going
    // through the Enabled() gate again would lose this record if collection
    // was disabled while the scope was in flight.
    MetricsManager::Instance().RecordUnchecked(ou_, std::move(features_),
                                               labels_);
    MetricsManager::Instance().ScopeClosed();
  } else if (drift_sample_) {
    // The sample's features must match what the deployed model is served
    // with, so apply the same hardware-context amendment as RecordUnchecked.
    if (SimulatedHardware::AppendContextFeature()) {
      features_.push_back(SimulatedHardware::EffectiveFreqGhz());
    }
    DriftMonitor::Instance().Submit(ou_, std::move(features_), labels_);
  }
}

}  // namespace mb2
