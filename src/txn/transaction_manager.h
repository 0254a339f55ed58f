#pragma once

/// \file transaction_manager.h
/// Timestamp-ordered MVCC transaction manager. Begin/Commit are the two
/// "contending" transaction OUs: their cost depends on the arrival rate and
/// the number of running transactions (the active-set critical section),
/// which are exactly their input features (Sec 4.2).

#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace mb2 {

/// A slot whose visible version a commit superseded (an UPDATE or DELETE),
/// tagged with that commit's timestamp: one unit of GC work. `table` stays
/// valid because the catalog never drops a table.
struct SupersededSlot {
  Table *table = nullptr;
  SlotId slot = 0;
  uint64_t commit_ts = 0;
};

class TransactionManager {
 public:
  /// `log_manager` may be null (no WAL, e.g. unit tests).
  explicit TransactionManager(LogManager *log_manager = nullptr)
      : log_manager_(log_manager) {}
  MB2_DISALLOW_COPY_AND_MOVE(TransactionManager);

  /// Starts a transaction (TXN_BEGIN OU). Caller owns the returned object
  /// until Commit/Abort consumes it.
  std::unique_ptr<Transaction> Begin(bool read_only = false);

  /// Commits: encodes the redo log, then in one critical section assigns
  /// the commit timestamp, stamps the write-set versions, queues the slots
  /// they superseded for the GC, appends the redo bytes to the WAL buffer
  /// and leaves the active set; a sync-commit flush follows (TXN_COMMIT OU
  /// for the section, inside the log manager's LOG_SERIALIZE OU). A non-OK
  /// return (injected `txn.commit` fault) means the transaction was rolled
  /// back before any version was stamped — safe to retry. WAL encode
  /// failures do not fail the commit; see LogManager::append_errors().
  Status Commit(Transaction *txn);

  /// Aborts: rolls back the write set.
  void Abort(Transaction *txn);

  /// Oldest read timestamp any active transaction can use; the GC horizon.
  uint64_t OldestActiveTs();

  /// The GC's work: moves out every slot commits superseded since the last
  /// call, in commit order, and sets *horizon to OldestActiveTs(), both read
  /// in one critical section. Without a GC the queue only grows, one small
  /// entry beside each garbage version.
  std::vector<SupersededSlot> TakeSuperseded(uint64_t *horizon);

  uint64_t NumActive();

  /// Transactions begun per second over the recent window (an OU feature).
  double ArrivalRate();

 private:
  uint64_t OldestActiveTsLocked() const;
  double ArrivalRateLocked() const;  ///< caller holds rate_mutex_

  LogManager *log_manager_;

  /// One mutex orders timestamps, snapshots, commit stamps, the GC queue and
  /// WAL appends: a reader that begins after a commit's timestamp sees its
  /// stamps, the horizon never passes a registered snapshot, and WAL order
  /// is commit order.
  std::mutex active_mutex_;
  uint64_t ts_counter_ = 1;
  std::multiset<uint64_t> active_read_ts_;
  std::vector<SupersededSlot> superseded_;

  std::mutex rate_mutex_;
  std::deque<int64_t> recent_begin_us_;
};

}  // namespace mb2
