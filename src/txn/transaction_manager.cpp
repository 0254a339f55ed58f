#include "txn/transaction_manager.h"

#include "common/fault_injector.h"
#include "metrics/metrics_collector.h"
#include "obs/metrics_registry.h"
#include "storage/table.h"

namespace mb2 {

namespace {
constexpr size_t kRateWindow = 256;  // begins kept for arrival-rate estimate
}

std::unique_ptr<Transaction> TransactionManager::Begin(bool read_only) {
  static Counter &begins =
      MetricsRegistry::Instance().GetCounter("mb2_txn_begins_total");
  begins.Add();
  // Both features are read in the sections below: the arrival rate before
  // this begin joins the window, the running count before it registers.
  OuTrackerScope scope(OuType::kTxnBegin, {0.0, 0.0});
  {
    std::lock_guard<std::mutex> lock(rate_mutex_);
    scope.MutableFeatures()[0] = ArrivalRateLocked();
    recent_begin_us_.push_back(NowMicros());
    if (recent_begin_us_.size() > kRateWindow) recent_begin_us_.pop_front();
  }
  // Taking the timestamp and registering it in one section keeps the GC
  // horizon from passing a snapshot that is about to be read at.
  uint64_t read_ts;
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    scope.MutableFeatures()[1] = static_cast<double>(active_read_ts_.size());
    read_ts = ts_counter_++;
    active_read_ts_.insert(read_ts);
  }
  const uint64_t txn_id = read_ts;
  return std::make_unique<Transaction>(txn_id, read_ts, read_only);
}

Status TransactionManager::Commit(Transaction *txn) {
  static Counter &commits =
      MetricsRegistry::Instance().GetCounter("mb2_txn_commits_total");
  commits.Add();
  // The txn.commit fault point fires before any version is stamped, so the
  // injected failure is a clean abort the caller can safely retry.
  if (FaultInjector::Instance().Armed()) {
    const FaultCheck fc = FaultInjector::Instance().Hit(fault_point::kTxnCommit);
    if (fc.fire) {
      if (fc.action == FaultAction::kThrow) throw InjectedFault(fc.message);
      Abort(txn);
      return Status::Aborted(std::string("fault 'txn.commit': ") + fc.message);
    }
  }

  const double rate = ArrivalRate();
  // The redo records are encoded (and the wal.append fault point retried)
  // before the critical section. A failed encode, possible only under
  // injected faults after retries, does NOT unwind the commit: it is
  // committed in memory but not durable, append_errors() records the gap,
  // and Ok is returned so callers don't retry (and double-apply) it.
  LogManager::RedoBatch redo;
  if (log_manager_ != nullptr) {
    log_manager_->Encode(txn->redo_log(), txn->txn_id(), &redo);
  }
  {
    OuTrackerScope scope(OuType::kTxnCommit, {rate, 0.0});
    std::lock_guard<std::mutex> lock(active_mutex_);
    // Running transactions, this one included (it leaves below).
    scope.MutableFeatures()[1] = static_cast<double>(active_read_ts_.size());
    const uint64_t commit_ts = ts_counter_++;
    txn->set_commit_ts(commit_ts);

    // Stamp versions: install begin on new versions, end on superseded ones,
    // whose slots go to the GC.
    for (const auto &w : txn->write_set()) {
      w.version->begin_ts.store(commit_ts, std::memory_order_release);
      w.version->owner.store(kNoOwner, std::memory_order_release);
      if (w.supersedes != nullptr) {
        w.supersedes->end_ts.store(commit_ts, std::memory_order_release);
        superseded_.push_back({w.table, w.slot, commit_ts});
      }
    }
    if (redo.encoded()) log_manager_->Append(&redo);
    active_read_ts_.erase(active_read_ts_.find(txn->read_ts()));
  }
  if (redo.encoded()) log_manager_->Sync(&redo);
  return Status::Ok();
}

void TransactionManager::Abort(Transaction *txn) {
  static Counter &txn_aborts =
      MetricsRegistry::Instance().GetCounter("mb2_txn_aborts_total");
  txn_aborts.Add();
  // Roll back newest-first so chains unwind in order.
  auto &writes = txn->write_set();
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    it->table->RollbackWrite(*it);
  }
  std::lock_guard<std::mutex> lock(active_mutex_);
  active_read_ts_.erase(active_read_ts_.find(txn->read_ts()));
}

uint64_t TransactionManager::OldestActiveTs() {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return OldestActiveTsLocked();
}

uint64_t TransactionManager::OldestActiveTsLocked() const {
  return active_read_ts_.empty() ? ts_counter_ : *active_read_ts_.begin();
}

std::vector<SupersededSlot> TransactionManager::TakeSuperseded(
    uint64_t *horizon) {
  std::vector<SupersededSlot> out;
  std::lock_guard<std::mutex> lock(active_mutex_);
  out.swap(superseded_);
  *horizon = OldestActiveTsLocked();
  return out;
}

uint64_t TransactionManager::NumActive() {
  std::lock_guard<std::mutex> lock(active_mutex_);
  return active_read_ts_.size();
}

double TransactionManager::ArrivalRate() {
  std::lock_guard<std::mutex> lock(rate_mutex_);
  return ArrivalRateLocked();
}

double TransactionManager::ArrivalRateLocked() const {
  if (recent_begin_us_.size() < 2) return 0.0;
  const double span_us = static_cast<double>(recent_begin_us_.back() -
                                             recent_begin_us_.front());
  if (span_us <= 0.0) return 0.0;
  return static_cast<double>(recent_begin_us_.size() - 1) / (span_us / 1e6);
}

}  // namespace mb2
