#pragma once

/// \file table.h
/// MVCC row store. Each tuple slot holds a newest-first version chain;
/// write-write conflicts abort the second writer (first-writer-wins); MB2
/// does not model conflict aborts (Sec 3), and the bundled workloads are
/// partitioned to make them rare, but the engine still handles them.
///
/// Slots live in a latch-free segmented directory: a spine of atomically
/// published chunk pointers whose sizes double (64, 128, 256, ...), so slot
/// addresses are stable forever and readers index the directory with plain
/// acquire loads — no latch shared with appenders. (The previous deque
/// needed the append latch on every read to be safe against concurrent
/// growth; unlatched reads raced on the deque's internal bookkeeping.)
/// Insert publishes the chunk pointer and the slot's head before advancing
/// `next_slot_` with release order, so any slot below NumSlots() is fully
/// readable.
///
/// Storage is per-table (DESIGN.md §4i): kMemory keeps version payloads
/// inline in the chain nodes; kDisk appends payloads to a TableHeap of
/// 4 KiB buffer-pool-cached pages and the chain nodes carry RowLocations.
/// Visibility logic is identical for both — only where payload bytes live
/// differs.

#include <atomic>
#include <memory>
#include <string>

#include "catalog/schema.h"
#include "common/latch.h"
#include "common/status.h"
#include "storage/table_heap.h"
#include "storage/version.h"
#include "txn/transaction.h"

namespace mb2 {

class BufferPool;

/// Where a table keeps version payloads.
enum class TableStorage { kMemory = 0, kDisk = 1 };

class Table {
 public:
  /// `pool` is required (non-null) for kDisk tables, ignored for kMemory.
  Table(uint32_t table_id, std::string name, Schema schema,
        TableStorage storage = TableStorage::kMemory,
        BufferPool *pool = nullptr);
  ~Table();
  MB2_DISALLOW_COPY_AND_MOVE(Table);

  uint32_t table_id() const { return table_id_; }
  const std::string &name() const { return name_; }
  const Schema &schema() const { return schema_; }
  TableStorage storage() const { return storage_; }
  /// The payload heap; nullptr for memory tables.
  TableHeap *heap() const { return heap_.get(); }

  /// Appends a new tuple; visible to others after the txn commits. Errors
  /// (heap I/O on disk tables) surface as a Status instead of a slot.
  Result<SlotId> TryInsert(Transaction *txn, Tuple tuple);

  /// TryInsert for callers that cannot fail (memory tables, loaders).
  SlotId Insert(Transaction *txn, Tuple tuple);

  /// Installs a new version for the slot. Returns Aborted on a write-write
  /// conflict (caller must abort the transaction).
  Status Update(Transaction *txn, SlotId slot, Tuple new_tuple);

  /// Installs a tombstone version.
  Status Delete(Transaction *txn, SlotId slot);

  /// Reads the version of `slot` visible to the transaction. Returns false
  /// when no visible (live) version exists, or — disk tables only — when
  /// the payload fetch fails.
  bool Select(const Transaction *txn, SlotId slot, Tuple *out) const;

  /// Transaction-less committed read at `read_ts` (estimator sampling,
  /// index builds). Returns false when no committed live version exists.
  bool ReadVisible(SlotId slot, uint64_t read_ts, Tuple *out) const;

  /// Number of slots ever allocated (including logically deleted ones).
  SlotId NumSlots() const { return next_slot_.load(std::memory_order_acquire); }

  /// Exact count of visible tuples at the given timestamp — an O(n) chain
  /// walk; planning uses ApproxLiveRows() instead.
  uint64_t VisibleCount(uint64_t read_ts) const;

  /// O(1) approximate live-row count maintained on insert/delete/rollback.
  /// Counts uncommitted inserts and deletes eagerly, so it can deviate from
  /// VisibleCount() by the number of in-flight writers' rows.
  uint64_t ApproxLiveRows() const {
    const int64_t n = live_rows_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<uint64_t>(n) : 0;
  }

  /// Garbage collection of one slot: unlinks the committed versions that no
  /// transaction at or after `oldest_active_ts` can read, keeping the newest
  /// one visible at it. Returns versions unlinked, adds reclaimed bytes to
  /// *bytes_reclaimed and counts the slot in WorkStats::tuples_processed. A
  /// second visit at the same horizon unlinks nothing. (Disk tables reclaim
  /// the chain nodes only; heap page space is append-only until restart.)
  uint64_t CollectSlot(SlotId slot, uint64_t oldest_active_ts,
                       uint64_t *bytes_reclaimed);

  /// CollectSlot over every slot. The GarbageCollector visits only the
  /// slots commits superseded; this full sweep is the reference its tests
  /// compare against.
  uint64_t GarbageCollect(uint64_t oldest_active_ts, uint64_t *bytes_reclaimed);

  /// Direct head access for scans (read-only). Safe concurrent with
  /// appends for any slot < NumSlots().
  const VersionNode *Head(SlotId slot) const {
    return GetSlot(slot)->head.load(std::memory_order_acquire);
  }

  /// Rolls back a write record (called by the txn manager on abort).
  void RollbackWrite(const WriteRecord &record);

 private:
  struct TupleSlot {
    SpinLatch latch;
    std::atomic<VersionNode *> head{nullptr};
  };

  /// Chunk 0 holds kBaseChunkSlots slots; each later chunk doubles. 26
  /// chunks cover 64 * (2^26 - 1) ≈ 4.2e9 slots.
  static constexpr SlotId kBaseChunkSlots = 64;
  static constexpr size_t kMaxChunks = 26;

  /// Slots preceding chunk k across all earlier chunks.
  static constexpr SlotId ChunkBase(size_t k) {
    return kBaseChunkSlots * ((SlotId{1} << k) - 1);
  }
  static constexpr SlotId ChunkCapacity(size_t k) {
    return kBaseChunkSlots << k;
  }
  static size_t ChunkIndex(SlotId slot) {
    const uint64_t q = slot / kBaseChunkSlots + 1;
    return 63 - static_cast<size_t>(__builtin_clzll(q));
  }

  /// Resolves a slot's stable address. Only valid for slot < NumSlots()
  /// (readers) or while holding the append latch (the appender).
  TupleSlot *GetSlot(SlotId slot) const {
    const size_t k = ChunkIndex(slot);
    TupleSlot *chunk = chunks_[k].load(std::memory_order_acquire);
    return &chunk[slot - ChunkBase(k)];
  }

  uint32_t table_id_;
  std::string name_;
  Schema schema_;
  TableStorage storage_;
  std::unique_ptr<TableHeap> heap_;

  /// Serializes appenders (slot allocation + chunk growth). Readers never
  /// take it — chunk pointers and next_slot_ are release-published.
  SpinLatch append_latch_;
  std::atomic<TupleSlot *> chunks_[kMaxChunks] = {};
  std::atomic<SlotId> next_slot_{0};
  /// Approximate live rows; see ApproxLiveRows().
  std::atomic<int64_t> live_rows_{0};
};

}  // namespace mb2
