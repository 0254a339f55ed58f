// Randomized MVCC history test: interleave several open transactions
// performing reads and writes; validate every read against a reference
// model of "state visible at that snapshot" and check commit/abort/GC
// leave the table consistent, and that each commit-fed GC pass leaves
// nothing for a full sweep at its horizon. Several seeds via TEST_P.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/rng.h"
#include "gc/garbage_collector.h"
#include "storage/table.h"
#include "txn/transaction_manager.h"

namespace mb2 {
namespace {

constexpr int64_t kRows = 24;

/// Reference: committed value per slot, as a history of (commit_ts, value).
struct ReferenceHistory {
  // Per slot: ordered (commit_ts -> value); nullopt value = deleted.
  std::map<SlotId, std::map<uint64_t, std::optional<int64_t>>> history;

  void Commit(SlotId slot, uint64_t ts, std::optional<int64_t> value) {
    history[slot][ts] = value;
  }

  /// Value visible at read timestamp `ts`.
  std::optional<int64_t> VisibleAt(SlotId slot, uint64_t ts) const {
    auto it = history.find(slot);
    if (it == history.end()) return std::nullopt;
    std::optional<int64_t> out;
    for (const auto &[commit_ts, value] : it->second) {
      if (commit_ts > ts) break;
      out = value;
    }
    return out;
  }
};

struct OpenTxn {
  std::unique_ptr<Transaction> txn;
  // Local uncommitted writes (slot -> value; nullopt = deleted).
  std::map<SlotId, std::optional<int64_t>> writes;
};

class MvccHistoryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MvccHistoryTest, ReadsAlwaysMatchSnapshotModel) {
  Rng rng(GetParam());
  TransactionManager txns;
  SettingsManager settings;
  GarbageCollector gc(&txns, &settings);
  Table table(1, "t", Schema({{"v", TypeId::kInteger, 0}}));
  ReferenceHistory reference;

  // Seed rows, committed at a known timestamp.
  {
    auto seed = txns.Begin();
    for (int64_t i = 0; i < kRows; i++) {
      table.Insert(seed.get(), {Value::Integer(i)});
    }
    txns.Commit(seed.get());
    for (int64_t i = 0; i < kRows; i++) {
      reference.Commit(static_cast<SlotId>(i), seed->commit_ts(), i);
    }
  }

  std::vector<OpenTxn> open;
  constexpr int kOps = 4000;
  for (int op = 0; op < kOps; op++) {
    const int choice = static_cast<int>(rng.Uniform(0, 9));
    if (open.size() < 2 || (choice == 0 && open.size() < 5)) {
      open.push_back({txns.Begin(), {}});
      continue;
    }
    const size_t who = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(open.size()) - 1));
    OpenTxn &actor = open[who];
    const SlotId slot = static_cast<SlotId>(rng.Uniform(int64_t{0}, kRows - 1));

    if (choice <= 4) {  // read + validate against the model
      Tuple out;
      const bool found = table.Select(actor.txn.get(), slot, &out);
      std::optional<int64_t> expected;
      auto local = actor.writes.find(slot);
      if (local != actor.writes.end()) {
        expected = local->second;  // own uncommitted write wins
      } else {
        expected = reference.VisibleAt(slot, actor.txn->read_ts());
      }
      ASSERT_EQ(found, expected.has_value()) << "op " << op;
      if (found) {
        ASSERT_EQ(out[0].AsInt(), *expected) << "op " << op;
      }
    } else if (choice <= 6) {  // write (update or delete)
      const bool is_delete = rng.Uniform(0, 4) == 0;
      Status status = is_delete
                          ? table.Delete(actor.txn.get(), slot)
                          : table.Update(actor.txn.get(), slot,
                                         {Value::Integer(rng.Uniform(0, 1 << 20))});
      if (status.ok()) {
        if (is_delete) {
          actor.writes[slot] = std::nullopt;
        } else {
          // Re-read own write to learn the stored value.
          Tuple out;
          ASSERT_TRUE(table.Select(actor.txn.get(), slot, &out));
          actor.writes[slot] = out[0].AsInt();
        }
      } else {
        // Conflict: abort this transaction entirely (engine contract).
        txns.Abort(actor.txn.get());
        open.erase(open.begin() + static_cast<long>(who));
      }
    } else if (choice == 7) {  // commit
      txns.Commit(actor.txn.get());
      for (const auto &[s, v] : actor.writes) {
        reference.Commit(s, actor.txn->commit_ts(), v);
      }
      open.erase(open.begin() + static_cast<long>(who));
    } else if (choice == 8) {  // abort
      txns.Abort(actor.txn.get());
      open.erase(open.begin() + static_cast<long>(who));
    } else {  // occasional GC pass must never disturb visible state
      gc.RunOnce();
      // Nothing began or ended since, so this is the pass's horizon: a full
      // sweep there finds nothing the pass left behind.
      uint64_t bytes = 0;
      ASSERT_EQ(table.GarbageCollect(txns.OldestActiveTs(), &bytes), 0u)
          << "op " << op;
    }
  }

  for (auto &o : open) txns.Abort(o.txn.get());

  // Final sweep: committed state matches the model at a fresh snapshot.
  auto probe = txns.Begin(true);
  for (SlotId slot = 0; slot < static_cast<SlotId>(kRows); slot++) {
    Tuple out;
    const bool found = table.Select(probe.get(), slot, &out);
    const auto expected = reference.VisibleAt(slot, probe->read_ts());
    ASSERT_EQ(found, expected.has_value()) << "slot " << slot;
    if (found) {
      ASSERT_EQ(out[0].AsInt(), *expected);
    }
  }
  txns.Commit(probe.get());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccHistoryTest,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace mb2
