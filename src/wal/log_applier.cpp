#include "wal/log_applier.h"

#include "common/serde.h"
#include "index/bplus_tree.h"

namespace mb2 {

namespace {

/// Same structural limit the file-based replay enforced: a larger count is
/// corruption by construction, not a record we haven't finished receiving.
constexpr uint32_t kMaxValues = 1u << 16;

}  // namespace

LogApplier::LogApplier(Catalog *catalog, TransactionManager *txn_manager)
    : catalog_(catalog), txn_manager_(txn_manager) {}

LogApplier::ParseOutcome LogApplier::ParseRecord(const uint8_t *data,
                                                 size_t size, size_t *consumed,
                                                 ParsedRecord *out) {
  ByteReader r(data, size);
  const uint8_t op_tag = r.Get<uint8_t>();
  if (r.ok() && op_tag > static_cast<uint8_t>(LogOpType::kCommit)) {
    return ParseOutcome::kCorrupt;
  }
  out->op = static_cast<LogOpType>(op_tag);
  out->table_id = r.Get<uint32_t>();
  out->slot = r.Get<uint64_t>();
  r.Get<uint64_t>();  // txn id: logged for diagnostics; replay does not use it
  const uint32_t nvalues = r.Get<uint32_t>();
  if (!r.ok()) return ParseOutcome::kNeedMore;
  if (nvalues > kMaxValues) return ParseOutcome::kCorrupt;

  out->row.clear();
  out->row.reserve(nvalues);
  for (uint32_t i = 0; i < nvalues; i++) {
    out->row.emplace_back();
    if (!GetValue(&r, &out->row.back())) {
      return r.corrupt() ? ParseOutcome::kCorrupt : ParseOutcome::kNeedMore;
    }
  }
  *consumed = size - static_cast<size_t>(r.RemainingBytes());
  return ParseOutcome::kRecord;
}

Table *LogApplier::ResolveTable(uint32_t table_id) {
  auto it = tables_.find(table_id);
  if (it != tables_.end()) return it->second;
  // Lazy refresh: the id may belong to a table registered after the last
  // lookup miss (schema DDL is not logged, so followers create tables out
  // of band). The catalog version gates the rescan so a log full of
  // unknown-table records costs one miss, not one catalog walk per record.
  const uint64_t version = catalog_->version();
  if (version == scanned_catalog_version_) return nullptr;
  scanned_catalog_version_ = version;
  for (const auto &name : catalog_->TableNames()) {
    Table *t = catalog_->GetTable(name);
    tables_[t->table_id()] = t;
  }
  it = tables_.find(table_id);
  return it == tables_.end() ? nullptr : it->second;
}

Status LogApplier::Apply(uint64_t offset, const uint8_t *data, size_t len,
                         ApplyStats *stats) {
  if (corrupt_) {
    return Status::InvalidArgument("log stream previously marked corrupt");
  }
  if (offset > stream_offset_) {
    return Status::InvalidArgument(
        "log stream gap: have " + std::to_string(stream_offset_) +
        ", batch starts at " + std::to_string(offset));
  }
  // Idempotent overlap skip: drop the prefix of this batch that was already
  // consumed (a retried or re-shipped batch, or a restart re-feed).
  const uint64_t overlap = stream_offset_ - offset;
  if (overlap >= len) return Status::Ok();  // fully duplicate batch
  data += overlap;
  len -= overlap;

  pending_.insert(pending_.end(), data, data + len);
  stream_offset_ += len;
  return DrainPending(stats);
}

Status LogApplier::DrainPending(ApplyStats *stats) {
  size_t pos = 0;
  std::unique_ptr<Transaction> txn;
  ApplyStats batch;

  const auto finish = [&](Status status) {
    // Consume parsed bytes even on corruption so applied_offset() stays
    // truthful about what reached the tables.
    pending_.erase(pending_.begin(), pending_.begin() + pos);
    if (txn != nullptr) txn_manager_->Commit(txn.get());
    total_.records_applied += batch.records_applied;
    total_.inserts += batch.inserts;
    total_.updates += batch.updates;
    total_.deletes += batch.deletes;
    total_.skipped += batch.skipped;
    if (stats != nullptr) *stats = batch;
    return status;
  };

  for (;;) {
    ParsedRecord rec;
    size_t consumed = 0;
    const ParseOutcome outcome =
        ParseRecord(pending_.data() + pos, pending_.size() - pos, &consumed, &rec);
    if (outcome == ParseOutcome::kNeedMore) break;
    if (outcome == ParseOutcome::kCorrupt) {
      corrupt_ = true;
      return finish(Status::InvalidArgument("corrupt log record in stream"));
    }
    pos += consumed;

    Table *table = ResolveTable(rec.table_id);
    if (table == nullptr) {
      batch.skipped++;
      continue;
    }
    if (txn == nullptr) txn = txn_manager_->Begin();
    auto &mapping = slot_map_[rec.table_id];

    switch (rec.op) {
      case LogOpType::kInsert: {
        const SlotId slot = table->Insert(txn.get(), rec.row);
        mapping[rec.slot] = slot;
        for (BPlusTree *index : catalog_->GetTableIndexes(table->name())) {
          Tuple key;
          for (uint32_t c : index->schema().key_columns) key.push_back(rec.row[c]);
          index->Insert(key, slot);
        }
        batch.inserts++;
        batch.records_applied++;
        break;
      }
      case LogOpType::kUpdate: {
        auto it = mapping.find(rec.slot);
        if (it == mapping.end()) {
          batch.skipped++;
          break;
        }
        if (table->Update(txn.get(), it->second, rec.row).ok()) {
          batch.updates++;
          batch.records_applied++;
        } else {
          batch.skipped++;
        }
        break;
      }
      case LogOpType::kDelete: {
        auto it = mapping.find(rec.slot);
        if (it == mapping.end()) {
          batch.skipped++;
          break;
        }
        if (table->Delete(txn.get(), it->second).ok()) {
          batch.deletes++;
          batch.records_applied++;
        } else {
          batch.skipped++;
        }
        break;
      }
      case LogOpType::kCommit:
        break;  // commit markers are implicit in this redo-only log
    }
  }
  return finish(Status::Ok());
}

}  // namespace mb2
