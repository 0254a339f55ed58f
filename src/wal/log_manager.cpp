#include "wal/log_manager.h"

#include <unistd.h>

#include <algorithm>
#include <iterator>

#include "common/fault_injector.h"
#include "metrics/metrics_collector.h"
#include "metrics/work_stats.h"
#include "obs/metrics_registry.h"

namespace mb2 {

namespace {

/// Evaluates `point` under the retry policy: injected kError faults are
/// retried with backoff + jitter until the point stops firing or the budget
/// is spent. A kTornWrite fire is reported through `torn_fraction_out` (the
/// caller performs the partial write); kThrow propagates immediately.
Status CheckFaultPointWithRetry(const char *point, const RetryPolicy &policy,
                                uint64_t jitter_seed,
                                double *torn_fraction_out) {
  auto &injector = FaultInjector::Instance();
  if (!injector.Armed()) return Status::Ok();
  Rng rng(jitter_seed);
  return RetryWithBackoff(
      policy,
      [&]() -> Status {
        const FaultCheck fc = injector.Hit(point);
        if (!fc.fire) return Status::Ok();
        if (fc.action == FaultAction::kThrow) throw InjectedFault(fc.message);
        if (fc.action == FaultAction::kTornWrite) {
          if (torn_fraction_out != nullptr) *torn_fraction_out = fc.torn_fraction;
          return Status::Ok();
        }
        return fc.ToStatus(point);
      },
      &rng);
}

}  // namespace

LogManager::LogManager(std::string path, SettingsManager *settings)
    : path_(std::move(path)), settings_(settings) {
  if (!path_.empty()) {
    file_ = std::fopen(path_.c_str(), "wb");
    MB2_ASSERT(file_ != nullptr, "cannot open WAL file");
  }
}

LogManager::~LogManager() {
  StopFlusher();
  if (file_ != nullptr) {
    FlushNow();
    std::fclose(file_);
  }
}

Status LogManager::Encode(const std::vector<RedoRecord> &records,
                          uint64_t txn_id, RedoBatch *batch) {
  if (file_ == nullptr || records.empty()) return Status::Ok();
  static Counter &appends =
      MetricsRegistry::Instance().GetCounter("mb2_wal_appends_total");
  appends.Add();

  const Status fault = CheckFaultPointWithRetry(
      fault_point::kWalAppend, retry_policy_, txn_id ^ 0xa99e4dULL, nullptr);
  if (!fault.ok()) {
    append_errors_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }

  size_t total_bytes = 0;
  for (const auto &r : records) total_bytes += RedoRecordSize(r);
  const double interval =
      settings_->GetDouble("log_flush_interval_us");

  // Features: num_records, num_bytes, num_buffers(filled by this batch),
  // interval. Buffer count amended by Append.
  batch->scope_.emplace(OuType::kLogSerialize,
                        FeatureVector{static_cast<double>(records.size()),
                                      static_cast<double>(total_bytes), 0.0,
                                      interval});

  batch->bytes_.reserve(total_bytes);
  for (const auto &r : records) SerializeRedoRecord(r, txn_id, &batch->bytes_);
  batch->num_records_ = records.size();
  WorkStats::Current().bytes_written += batch->bytes_.size();
  return Status::Ok();
}

void LogManager::Append(RedoBatch *batch) {
  if (!batch->encoded()) return;
  const std::vector<uint8_t> &encoded = batch->bytes_;
  uint32_t buffers_sealed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t offset = 0;
    while (offset < encoded.size()) {
      if (!active_.HasSpace(1)) {
        SealActiveLocked();
        buffers_sealed++;
      }
      const size_t space = LogBuffer::kCapacity - active_.size();
      const size_t chunk = std::min(space, encoded.size() - offset);
      active_.Append(encoded.data() + offset, chunk);
      offset += chunk;
    }
    active_.num_records += static_cast<uint32_t>(batch->num_records_);
  }
  total_records_.fetch_add(batch->num_records_, std::memory_order_relaxed);
  batch->scope_->MutableFeatures()[2] = static_cast<double>(buffers_sealed);
}

Status LogManager::Sync(RedoBatch *batch) {
  // Synchronous-commit mode: the commit's bytes reach the device (through
  // fsync, so past the page cache) before the commit returns, so "committed"
  // implies "durable" — the invariant the replication failover guarantee
  // (no committed transaction lost) rests on. A failed flush re-queues the
  // buffers; surfacing the error lets callers count the commit as
  // not-yet-durable.
  if (batch->encoded() && settings_->GetInt("wal_sync_commit") != 0) {
    return FlushFilled(/*sync_device=*/true);
  }
  return Status::Ok();
}

Status LogManager::Serialize(const std::vector<RedoRecord> &records,
                             uint64_t txn_id) {
  RedoBatch batch;
  const Status status = Encode(records, txn_id, &batch);
  if (!status.ok()) return status;
  Append(&batch);
  return Sync(&batch);
}

void LogManager::SealActiveLocked() {
  filled_.push_back(std::move(active_));
  active_ = LogBuffer();
}

Status LogManager::FlushFilled(bool sync_device) {
  // flush_mutex_ spans the seal-swap *and* the device writes: without it,
  // two flushers (sync-commit callers + the background thread) could swap
  // buffer batches in one order and write them in the other, landing WAL
  // bytes on disk out of commit order — which recovery replay and
  // replication followers would consume as a corrupt/reordered stream.
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  std::vector<LogBuffer> to_flush;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return Status::Ok();  // crashed/disabled
    if (!active_.empty()) SealActiveLocked();
    to_flush.swap(filled_);
  }
  if (to_flush.empty()) return Status::Ok();

  size_t total_bytes = 0;
  for (const auto &b : to_flush) total_bytes += b.size();

  double torn_fraction = -1.0;
  const Status fault = CheckFaultPointWithRetry(
      fault_point::kWalFlush, retry_policy_,
      total_flushed_.load(std::memory_order_relaxed) ^ 0xf1a5ULL,
      &torn_fraction);
  if (!fault.ok()) {
    // Retry budget spent: put the buffers back so nothing committed is lost;
    // a later flush (or shutdown) takes another run at the device.
    flush_errors_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    filled_.insert(filled_.begin(), std::make_move_iterator(to_flush.begin()),
                   std::make_move_iterator(to_flush.end()));
    return fault;
  }

  static Counter &flushes =
      MetricsRegistry::Instance().GetCounter("mb2_wal_flushes_total");
  static Counter &flushed_bytes =
      MetricsRegistry::Instance().GetCounter("mb2_wal_flushed_bytes_total");
  flushes.Add();
  flushed_bytes.Add(total_bytes);

  const double interval = settings_->GetDouble("log_flush_interval_us");
  OuTrackerScope scope(OuType::kLogFlush,
                       {static_cast<double>(total_bytes),
                        static_cast<double>(to_flush.size()), interval});

  if (torn_fraction >= 0.0) {
    // Simulated crash mid-write: only a prefix reaches the device and the
    // rest of the batch is gone, exactly like losing power inside fwrite.
    size_t budget = static_cast<size_t>(static_cast<double>(total_bytes) *
                                        torn_fraction);
    size_t written = 0;
    for (const auto &b : to_flush) {
      const size_t chunk = std::min(budget - written, b.size());
      if (chunk == 0) break;
      written += std::fwrite(b.data().data(), 1, chunk, file_);
      if (written >= budget) break;
    }
    std::fflush(file_);
    flush_errors_.fetch_add(1, std::memory_order_relaxed);
    total_flushed_.fetch_add(written, std::memory_order_relaxed);
    WorkStats::Current().log_bytes += written;
    return Status::IoError("torn write injected at wal.flush");
  }

  size_t written = 0;
  bool short_write = false;
  for (const auto &b : to_flush) {
    const size_t got = std::fwrite(b.data().data(), 1, b.size(), file_);
    written += got;
    if (got != b.size()) {
      short_write = true;
      break;
    }
  }
  std::fflush(file_);
  WorkStats::Current().log_bytes += written;
  total_flushed_.fetch_add(written, std::memory_order_relaxed);
  if (short_write) {
    flush_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("short write to log device");
  }
  // fflush only reaches the kernel page cache; sync-commit durability (the
  // "committed == survives power loss" claim) needs fsync to the device.
  if (sync_device && ::fsync(fileno(file_)) != 0) {
    flush_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("fsync of log device failed");
  }
  return Status::Ok();
}

Status LogManager::FlushNow() { return FlushFilled(/*sync_device=*/true); }

void LogManager::Crash() {
  StopFlusher();
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  active_ = LogBuffer();
  filled_.clear();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status LogManager::OpenSegment(const std::string &path) {
  std::lock_guard<std::mutex> flush_lock(flush_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    return Status::InvalidArgument("log device already open: " + path_);
  }
  if (path.empty()) return Status::InvalidArgument("empty log segment path");
  std::FILE *file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return Status::IoError("cannot open log segment " + path);
  // The old segment's bytes were already replayed; the new device starts a
  // fresh stream, so the buffered state must be empty (Crash() cleared it).
  active_ = LogBuffer();
  filled_.clear();
  file_ = file;
  path_ = path;
  return Status::Ok();
}

void LogManager::StartFlusher() {
  if (file_ == nullptr || running_.load()) return;
  running_.store(true);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void LogManager::StopFlusher() {
  if (!running_.load()) return;
  running_.store(false);
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void LogManager::FlusherLoop() {
  while (running_.load()) {
    const auto interval = std::chrono::microseconds(
        settings_->GetInt("log_flush_interval_us"));
    {
      std::unique_lock<std::mutex> lock(flusher_mutex_);
      flusher_cv_.wait_for(lock, interval, [this] { return !running_.load(); });
    }
    if (!running_.load()) break;
    // Errors are counted (flush_errors); the failed batch stays queued and
    // the next tick retries it. No fsync here: interval flushing is the
    // lazy-durability mode, and the sync-commit path syncs for itself.
    FlushFilled(/*sync_device=*/false);
  }
}

}  // namespace mb2
