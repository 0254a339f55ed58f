#pragma once

/// \file metrics_collector.h
/// Decentralized training-data collection (Sec 6.1): each worker thread
/// records the features and labels of every OU it executes into thread-local
/// memory; a dedicated aggregator periodically drains them into the training
/// data repository. Tracking can be toggled globally (training mode) so
/// production-style runs pay nothing.
///
/// Parallel OU sweeps additionally use *thread-scoped* collection: a runner
/// worker turns collection on for its own thread only and drains only its
/// own buffer, so concurrent sweep units never observe each other's records
/// and the record hot path takes no global latch (only the owning thread and
/// a drainer ever touch a buffer's spin latch).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/latch.h"
#include "common/macros.h"
#include "metrics/resource_tracker.h"
#include "modeling/operating_unit.h"
#include "obs/trace.h"

namespace mb2 {

/// One observed OU invocation: its input features and measured labels.
struct OuRecord {
  OuType ou = OuType::kSeqScan;
  FeatureVector features;
  Labels labels{};
  uint64_t thread_id = 0;
  int64_t end_time_us = 0;  ///< wall-clock µs since process start
};

/// Wall-clock µs since process start (shared timeline for all records).
int64_t NowMicros();

class MetricsManager {
 public:
  static MetricsManager &Instance();
  MB2_DISALLOW_COPY_AND_MOVE(MetricsManager);

  /// Global training-mode switch; when off (and the calling thread has no
  /// scoped collection), Record() is a no-op and OU scopes skip the resource
  /// tracker entirely.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool Enabled() const {
    return tls_collecting_ || enabled_.load(std::memory_order_acquire);
  }

  /// Thread-scoped collection (parallel OU sweeps): enables recording for
  /// the calling thread only, independent of the global switch. Pair with
  /// DrainThread() to harvest exactly this thread's records.
  void BeginThreadCollection() { tls_collecting_ = true; }
  void EndThreadCollection() { tls_collecting_ = false; }

  /// Appends a record to the calling thread's local buffer.
  void Record(OuType ou, FeatureVector features, const Labels &labels);

  /// Record() minus the Enabled() gate: for callers (OuTrackerScope) that
  /// latched the collection decision when the work started. Re-checking at
  /// emit time would drop the record if SetEnabled(false) raced in between.
  void RecordUnchecked(OuType ou, FeatureVector features, const Labels &labels);

  /// Aggregator: moves every thread's records out, after waiting for any
  /// in-flight recording OU scope to finish so a SetEnabled(false) +
  /// DrainAll() pair cannot lose records to a racing scope exit.
  /// Must not be called with a recording scope open on the calling thread.
  std::vector<OuRecord> DrainAll();

  /// Moves out only the calling thread's records (thread-scoped mode).
  std::vector<OuRecord> DrainThread();

  /// Total records currently buffered (approximate under concurrency).
  size_t BufferedCount();

  /// Buffers in the registry (bound to live threads + recyclable). Bounded:
  /// an exiting thread returns its buffer to a free list and a new thread
  /// adopts a drained one, so repeated short-lived worker fleets (e.g. one
  /// WorkloadDriver::Run per config) do not grow the registry forever.
  size_t RegisteredBufferCount();

  /// In-flight recording-scope bookkeeping (used by OuTrackerScope).
  void ScopeOpened() { active_scopes_.fetch_add(1, std::memory_order_acq_rel); }
  void ScopeClosed() { active_scopes_.fetch_sub(1, std::memory_order_acq_rel); }

 private:
  MetricsManager() = default;

  struct ThreadBuffer {
    SpinLatch latch;
    std::vector<OuRecord> records;
  };

  ThreadBuffer *LocalBuffer();
  ThreadBuffer *AcquireBuffer();
  void ReleaseBuffer(ThreadBuffer *buffer);
  void QuiesceScopes() const;

  std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  /// Buffers whose owning thread exited, awaiting adoption. Non-empty ones
  /// stay here (still visible to DrainAll) until drained.
  std::vector<ThreadBuffer *> free_buffers_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> active_scopes_{0};
  static thread_local bool tls_collecting_;
};

/// RAII scope at one OU boundary, the engine's only instrument there. It
/// opens the OU's trace span (named in the OU descriptor table) when
/// tracing is on, and runs a ResourceTracker when something will use the
/// measurement: an OU record (collection on), a drift sample, or the
/// CPU-frequency simulation. When the tracker runs, the span's duration is
/// the OU's elapsed_us label, from the same clock reads. With every switch
/// off the scope reads each switch once and does nothing else. Features may
/// be finalized (or amended) before destruction via MutableFeatures(), since
/// some features (e.g. true output cardinality during training) are only
/// known after the work runs; Stop() first keeps that out of the labels.
class OuTrackerScope {
 public:
  OuTrackerScope(OuType ou, FeatureVector features);
  ~OuTrackerScope();
  MB2_DISALLOW_COPY_AND_MOVE(OuTrackerScope);

  FeatureVector &MutableFeatures() { return features_; }
  /// Call before Stop(): the memory label is taken there.
  void SetMemoryBytes(double bytes) {
    if (tracker_.has_value()) tracker_->SetMemoryBytes(bytes);
  }
  /// Ends the measured work: the labels and the span close here, and the
  /// record is still emitted at scope exit. Later calls do nothing.
  void Stop();

  /// Whether this scope will emit an OU record at exit (i.e. collection was
  /// enabled for this thread when the scope opened).
  bool recording() const { return record_; }

 private:
  OuType ou_;
  FeatureVector features_;
  bool record_;        ///< training mode: emit an OU record at scope exit
  bool drift_sample_;  ///< production mode: elected as a model-drift sample
  bool stopped_ = false;
  Labels labels_{};    ///< taken by Stop()
  ObsSpan span_;       ///< opens before the tracker starts, closes after
  /// Built only when it will measure: on a host with a PMU its constructor
  /// opens a perf-counter group.
  std::optional<ResourceTracker> tracker_;
};

}  // namespace mb2
