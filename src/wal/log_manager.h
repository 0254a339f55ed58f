#pragma once

/// \file log_manager.h
/// Write-ahead log: commit-time serialization into in-memory buffers
/// (LOG_SERIALIZE OU) and a background flusher that writes filled buffers to
/// the log device on a knob-controlled interval (LOG_FLUSH OU, a "batch" OU
/// whose features are the totals accumulated since the last flush).
///
/// Robustness: the `wal.append` and `wal.flush` fault points are consulted on
/// every pass; injected (or real short-write) failures are retried with
/// bounded exponential backoff + jitter before the error surfaces. A failed
/// flush re-queues its buffers, so no committed bytes are lost unless the
/// fault simulates a crash (torn write) — that scenario is what Crash() +
/// ReplayLog's torn-tail tolerance exist to test.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/settings.h"
#include "common/macros.h"
#include "common/retry.h"
#include "common/status.h"
#include "metrics/metrics_collector.h"
#include "wal/log_record.h"

namespace mb2 {

class LogManager {
 public:
  /// `path` is the log device file; empty disables the WAL entirely.
  LogManager(std::string path, SettingsManager *settings);
  ~LogManager();
  MB2_DISALLOW_COPY_AND_MOVE(LogManager);

  /// One transaction's redo records on their way into the log, in three
  /// steps around the committer's critical section: Encode before it (the
  /// `wal.append` fault point and its retries may stall there), Append
  /// inside it, so buffer order and so file order is commit order, and Sync
  /// after it. The LOG_SERIALIZE OU (and so its `wal.serialize` span) runs
  /// from the end of Encode's fault-point retries until the batch is
  /// destroyed; a committer's TXN_COMMIT and sync-commit LOG_FLUSH scopes
  /// open and close inside it.
  class RedoBatch {
   public:
    RedoBatch() = default;
    MB2_DISALLOW_COPY_AND_MOVE(RedoBatch);

    /// True once Encode succeeded; Append and Sync do nothing before that.
    bool encoded() const { return scope_.has_value(); }

   private:
    friend class LogManager;
    std::optional<OuTrackerScope> scope_;
    std::vector<uint8_t> bytes_;
    size_t num_records_ = 0;
  };

  /// Encodes `records` into `batch`. Errors only after the retry budget is
  /// exhausted; the records are then never buffered (the in-memory commit
  /// stands but is not durable — callers decide whether that is fatal).
  Status Encode(const std::vector<RedoRecord> &records, uint64_t txn_id,
                RedoBatch *batch);
  /// Appends an encoded batch to the log buffer. Batches reach the device in
  /// the order they are appended; the transaction manager appends inside
  /// its commit section (lock order: its active_mutex_ before mutex_).
  void Append(RedoBatch *batch);
  /// Synchronous-commit mode (`wal_sync_commit`): flushes and fsyncs the
  /// appended bytes. Otherwise a no-op.
  Status Sync(RedoBatch *batch);

  /// Encode + Append + Sync of one transaction's redo records, for callers
  /// without a commit section of their own.
  Status Serialize(const std::vector<RedoRecord> &records, uint64_t txn_id);

  /// Starts/stops the background flusher thread.
  void StartFlusher();
  void StopFlusher();

  /// Synchronously flushes everything buffered (tracked as LOG_FLUSH) and
  /// fsyncs the device, so the bytes survive an OS crash or power loss, not
  /// just a process kill. On a retry-exhausted injected failure the buffers
  /// are re-queued and the error returned; a later call can still flush them.
  Status FlushNow();

  /// Crash simulation (tests / fault harness): drops every buffered byte and
  /// closes the log device without flushing, as a process kill would. The
  /// manager is inert afterwards; recovery reads whatever reached the disk.
  void Crash();

  /// Opens a fresh log device on a manager that currently has none (either
  /// constructed with an empty path or inert after Crash()). This is how a
  /// promoted replica starts logging its own writes: its history so far
  /// lives in the shipped log copy it replayed, and new commits go to this
  /// new segment. Fails if a device is already open.
  Status OpenSegment(const std::string &path);

  /// Retry budget for append/flush fault handling.
  void set_retry_policy(const RetryPolicy &policy) { retry_policy_ = policy; }
  const RetryPolicy &retry_policy() const { return retry_policy_; }

  bool enabled() const { return file_ != nullptr; }
  /// The log device path ("" when disabled). Replication ships bytes out of
  /// this file; its on-disk size after a flush is the durable tip.
  const std::string &path() const { return path_; }
  uint64_t total_bytes_flushed() const {
    return total_flushed_.load(std::memory_order_relaxed);
  }
  /// Redo records appended since startup (flushed or not);
  /// with `wal_sync_commit` on this equals the durable record count, which
  /// is what replica-lag-in-records is measured against.
  uint64_t total_records_serialized() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  /// Encode calls that surfaced an error after retries.
  uint64_t append_errors() const {
    return append_errors_.load(std::memory_order_relaxed);
  }
  /// Flush attempts that surfaced an error after retries (incl. torn writes).
  uint64_t flush_errors() const {
    return flush_errors_.load(std::memory_order_relaxed);
  }

 private:
  void FlusherLoop();
  /// Must hold mutex_; moves the active buffer to the filled list.
  void SealActiveLocked();
  /// With `sync_device` the flush ends in fsync, so the bytes survive an OS
  /// crash, not just a process crash.
  Status FlushFilled(bool sync_device);

  std::FILE *file_ = nullptr;
  std::string path_;
  SettingsManager *settings_;
  RetryPolicy retry_policy_;

  std::mutex mutex_;
  LogBuffer active_;
  std::vector<LogBuffer> filled_;
  /// Held across the whole seal-swap + write + flush sequence (and by
  /// anything that closes/reopens file_), so concurrent flushers cannot
  /// reorder sealed buffers on their way to the device: WAL file order is
  /// commit order, which recovery replay and replication shipping rely on.
  /// Lock order: flush_mutex_ before mutex_, never the reverse.
  std::mutex flush_mutex_;

  std::thread flusher_;
  std::condition_variable flusher_cv_;
  std::mutex flusher_mutex_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> total_flushed_{0};
  std::atomic<uint64_t> total_records_{0};
  std::atomic<uint64_t> append_errors_{0};
  std::atomic<uint64_t> flush_errors_{0};
};

}  // namespace mb2
