#pragma once

/// \file garbage_collector.h
/// Commit-fed version-chain garbage collection (the GC "batch" OU). Every
/// commit hands the transaction manager the slots whose versions it
/// superseded; on a knob-controlled interval a pass takes them, unlinks the
/// versions no active transaction can still read in each slot whose commit
/// is at or below the horizon, and carries the rest to the next pass. A
/// pass costs what it collects, not the size of the tables.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "catalog/settings.h"
#include "common/macros.h"
#include "txn/transaction_manager.h"

namespace mb2 {

struct GcResult {
  uint64_t versions_unlinked = 0;
  uint64_t bytes_reclaimed = 0;
};

class GarbageCollector {
 public:
  GarbageCollector(TransactionManager *txn_manager, SettingsManager *settings)
      : txn_manager_(txn_manager), settings_(settings) {}
  ~GarbageCollector() { StopBackground(); }
  MB2_DISALLOW_COPY_AND_MOVE(GarbageCollector);

  /// One GC pass over the superseded slots; tracked as the GC OU. Safe to
  /// run on several threads at once.
  GcResult RunOnce();

  void StartBackground();
  void StopBackground();

 private:
  void Loop();

  TransactionManager *txn_manager_;
  SettingsManager *settings_;

  /// Slots whose commit was above an earlier pass's horizon.
  std::mutex carried_mutex_;
  std::vector<SupersededSlot> carried_;

  std::thread worker_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> running_{false};
};

}  // namespace mb2
