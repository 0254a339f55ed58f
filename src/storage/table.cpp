#include "storage/table.h"

#include "metrics/work_stats.h"
#include "storage/buffer_pool.h"

namespace mb2 {

Table::Table(uint32_t table_id, std::string name, Schema schema,
             TableStorage storage, BufferPool *pool)
    : table_id_(table_id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      storage_(storage) {
  if (storage_ == TableStorage::kDisk) {
    MB2_ASSERT(pool != nullptr, "disk table requires a buffer pool");
    heap_ = std::make_unique<TableHeap>(pool);
  }
}

Table::~Table() {
  const SlotId n = next_slot_.load(std::memory_order_relaxed);
  for (SlotId i = 0; i < n; i++) {
    VersionNode *node = GetSlot(i)->head.load(std::memory_order_relaxed);
    while (node != nullptr) {
      VersionNode *next = node->next;
      delete node;
      node = next;
    }
  }
  for (auto &chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

Result<SlotId> Table::TryInsert(Transaction *txn, Tuple tuple) {
  auto *version = new VersionNode();
  version->owner.store(txn->txn_id(), std::memory_order_release);

  WorkStats &ws = WorkStats::Current();
  ws.tuples_processed++;
  ws.bytes_written += TupleSize(tuple);
  ws.allocations++;
  ws.alloc_bytes += sizeof(VersionNode) + TupleSize(tuple);

  if (storage_ == TableStorage::kDisk) {
    // Append the payload before publishing the version so a visible disk
    // version always has a fetchable location.
    SlotId slot;
    {
      SpinLatch::ScopedLock guard(&append_latch_);
      slot = next_slot_.load(std::memory_order_relaxed);
      Result<RowLocation> loc = heap_->AppendRow(slot, tuple);
      if (!loc.ok()) {
        delete version;
        return loc.status();
      }
      version->loc = *loc;
      const size_t k = ChunkIndex(slot);
      TupleSlot *chunk = chunks_[k].load(std::memory_order_relaxed);
      if (chunk == nullptr) {
        chunk = new TupleSlot[ChunkCapacity(k)];
        chunks_[k].store(chunk, std::memory_order_release);
      }
      chunk[slot - ChunkBase(k)].head.store(version,
                                            std::memory_order_release);
      next_slot_.store(slot + 1, std::memory_order_release);
    }
    live_rows_.fetch_add(1, std::memory_order_relaxed);
    txn->RecordWrite(WriteRecord{this, slot, version, nullptr, /*is_insert=*/true});
    txn->RecordRedo(RedoRecord{LogOpType::kInsert, table_id_, slot, std::move(tuple)});
    return slot;
  }

  version->data = std::move(tuple);
  SlotId slot;
  {
    SpinLatch::ScopedLock guard(&append_latch_);
    slot = next_slot_.load(std::memory_order_relaxed);
    const size_t k = ChunkIndex(slot);
    TupleSlot *chunk = chunks_[k].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new TupleSlot[ChunkCapacity(k)];
      chunks_[k].store(chunk, std::memory_order_release);
    }
    chunk[slot - ChunkBase(k)].head.store(version, std::memory_order_release);
    next_slot_.store(slot + 1, std::memory_order_release);
  }
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  txn->RecordWrite(WriteRecord{this, slot, version, nullptr, /*is_insert=*/true});
  txn->RecordRedo(RedoRecord{LogOpType::kInsert, table_id_, slot, version->data});
  return slot;
}

SlotId Table::Insert(Transaction *txn, Tuple tuple) {
  Result<SlotId> slot = TryInsert(txn, std::move(tuple));
  MB2_ASSERT(slot.ok(), "Insert on a failing heap; use TryInsert");
  return *slot;
}

namespace {

/// An aborted version left in the chain as an invisible placeholder.
bool IsDeadVersion(const VersionNode *v) {
  return v->owner.load(std::memory_order_acquire) == kNoOwner &&
         v->begin_ts.load(std::memory_order_acquire) == 0 &&
         v->end_ts.load(std::memory_order_acquire) == 0;
}

/// First non-aborted version in the chain — the one a writer logically
/// supersedes. Conflict checks and end-timestamp stamping must target it,
/// never a dead placeholder (stamping a dead version's end would resurrect
/// it for old snapshots and orphan the true predecessor).
VersionNode *FirstLiveVersion(VersionNode *head) {
  while (head != nullptr && IsDeadVersion(head)) head = head->next;
  return head;
}

}  // namespace

Status Table::Update(Transaction *txn, SlotId slot, Tuple new_tuple) {
  TupleSlot *s = GetSlot(slot);
  SpinLatch::ScopedLock guard(&s->latch);
  VersionNode *head = s->head.load(std::memory_order_acquire);
  if (head == nullptr) return Status::NotFound("slot has no versions");
  VersionNode *live = FirstLiveVersion(head);
  if (live == nullptr) return Status::NotFound("slot has no live versions");
  const uint64_t owner = live->owner.load(std::memory_order_acquire);
  if (owner != kNoOwner && owner != txn->txn_id()) {
    WorkStats::Current().latch_waits++;
    return Status::Aborted("write-write conflict");
  }
  // A version committed after our snapshot is also a conflict under SI.
  if (owner == kNoOwner &&
      live->begin_ts.load(std::memory_order_acquire) > txn->read_ts()) {
    return Status::Aborted("snapshot too old");
  }

  auto *version = new VersionNode();
  version->owner.store(txn->txn_id(), std::memory_order_release);
  if (storage_ == TableStorage::kDisk) {
    Result<RowLocation> loc = heap_->AppendRow(slot, new_tuple);
    if (!loc.ok()) {
      delete version;
      return loc.status();
    }
    version->loc = *loc;
  }

  WorkStats &ws = WorkStats::Current();
  ws.tuples_processed++;
  ws.bytes_written += TupleSize(new_tuple);
  ws.allocations++;
  ws.alloc_bytes += sizeof(VersionNode) + TupleSize(new_tuple);

  txn->RecordRedo(RedoRecord{LogOpType::kUpdate, table_id_, slot, new_tuple});
  if (storage_ != TableStorage::kDisk) {
    version->data = std::move(new_tuple);
  }
  version->next = head;
  s->head.store(version, std::memory_order_release);

  txn->RecordWrite(WriteRecord{this, slot, version, live, /*is_insert=*/false});
  return Status::Ok();
}

Status Table::Delete(Transaction *txn, SlotId slot) {
  TupleSlot *s = GetSlot(slot);
  SpinLatch::ScopedLock guard(&s->latch);
  VersionNode *head = s->head.load(std::memory_order_acquire);
  if (head == nullptr) return Status::NotFound("slot has no versions");
  VersionNode *live = FirstLiveVersion(head);
  if (live == nullptr) return Status::NotFound("slot has no live versions");
  const uint64_t owner = live->owner.load(std::memory_order_acquire);
  if (owner != kNoOwner && owner != txn->txn_id()) {
    WorkStats::Current().latch_waits++;
    return Status::Aborted("write-write conflict");
  }
  if (owner == kNoOwner &&
      live->begin_ts.load(std::memory_order_acquire) > txn->read_ts()) {
    return Status::Aborted("snapshot too old");
  }
  if (live->deleted) return Status::NotFound("already deleted");

  auto *version = new VersionNode();
  version->owner.store(txn->txn_id(), std::memory_order_release);
  version->deleted = true;
  version->next = head;
  s->head.store(version, std::memory_order_release);
  live_rows_.fetch_sub(1, std::memory_order_relaxed);

  WorkStats &ws = WorkStats::Current();
  ws.tuples_processed++;
  ws.allocations++;
  ws.alloc_bytes += sizeof(VersionNode);

  txn->RecordWrite(WriteRecord{this, slot, version, live, /*is_insert=*/false});
  txn->RecordRedo(RedoRecord{LogOpType::kDelete, table_id_, slot, {}});
  return Status::Ok();
}

bool Table::Select(const Transaction *txn, SlotId slot, Tuple *out) const {
  const VersionNode *node = Head(slot);
  WorkStats::Current().tuples_processed++;
  while (node != nullptr) {
    if (node->VisibleTo(txn->read_ts(), txn->txn_id())) {
      if (node->deleted) return false;
      if (storage_ == TableStorage::kDisk) {
        if (!heap_->FetchRow(node->loc, out).ok()) return false;
      } else {
        *out = node->data;
      }
      WorkStats::Current().bytes_read += TupleSize(*out);
      return true;
    }
    node = node->next;
  }
  return false;
}

bool Table::ReadVisible(SlotId slot, uint64_t read_ts, Tuple *out) const {
  const VersionNode *node = Head(slot);
  while (node != nullptr) {
    if (node->VisibleTo(read_ts, /*reader_txn=*/0)) {
      if (node->deleted) return false;
      if (storage_ == TableStorage::kDisk) {
        return heap_->FetchRow(node->loc, out).ok();
      }
      *out = node->data;
      return true;
    }
    node = node->next;
  }
  return false;
}

uint64_t Table::VisibleCount(uint64_t read_ts) const {
  uint64_t count = 0;
  const SlotId n = NumSlots();
  for (SlotId i = 0; i < n; i++) {
    const VersionNode *node = Head(i);
    while (node != nullptr) {
      if (node->VisibleTo(read_ts, /*reader_txn=*/0)) {
        if (!node->deleted) count++;
        break;
      }
      node = node->next;
    }
  }
  return count;
}

uint64_t Table::CollectSlot(SlotId slot, uint64_t oldest_active_ts,
                            uint64_t *bytes_reclaimed) {
  WorkStats::Current().tuples_processed++;
  TupleSlot *s = GetSlot(slot);
  SpinLatch::ScopedLock guard(&s->latch);
  // Keep the newest version that is visible at oldest_active_ts; anything
  // strictly older can never be read again.
  VersionNode *keep_tail = s->head.load(std::memory_order_acquire);
  while (keep_tail != nullptr) {
    const uint64_t begin = keep_tail->begin_ts.load(std::memory_order_acquire);
    const uint64_t owner = keep_tail->owner.load(std::memory_order_acquire);
    const uint64_t end = keep_tail->end_ts.load(std::memory_order_acquire);
    if (owner == kNoOwner && begin != kUncommittedTs &&
        begin <= oldest_active_ts && end > oldest_active_ts) {
      break;  // keep_tail is the last version any live reader can need
    }
    keep_tail = keep_tail->next;
  }
  if (keep_tail == nullptr) return 0;
  uint64_t unlinked = 0;
  VersionNode *garbage = keep_tail->next;
  keep_tail->next = nullptr;
  while (garbage != nullptr) {
    VersionNode *next = garbage->next;
    *bytes_reclaimed += sizeof(VersionNode) + TupleSize(garbage->data);
    delete garbage;
    unlinked++;
    garbage = next;
  }
  return unlinked;
}

uint64_t Table::GarbageCollect(uint64_t oldest_active_ts,
                               uint64_t *bytes_reclaimed) {
  uint64_t unlinked = 0;
  const SlotId n = NumSlots();
  for (SlotId i = 0; i < n; i++) {
    unlinked += CollectSlot(i, oldest_active_ts, bytes_reclaimed);
  }
  return unlinked;
}

void Table::RollbackWrite(const WriteRecord &record) {
  // Mark the aborted version permanently invisible rather than freeing it:
  // concurrent readers may still be traversing the chain. The GC reclaims it
  // once the slot is superseded by a later committed write. (A disk table's
  // heap row stays orphaned in its page until restart — nothing references
  // it.)
  TupleSlot *s = GetSlot(record.slot);
  SpinLatch::ScopedLock guard(&s->latch);
  record.version->begin_ts.store(0, std::memory_order_release);
  record.version->end_ts.store(0, std::memory_order_release);
  record.version->owner.store(kNoOwner, std::memory_order_release);
  if (record.is_insert) {
    live_rows_.fetch_sub(1, std::memory_order_relaxed);
  } else if (record.version->deleted) {
    live_rows_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace mb2
