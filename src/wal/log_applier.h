#pragma once

/// \file log_applier.h
/// Incremental, restart-idempotent WAL apply. The applier consumes the redo
/// log as a byte *stream* rather than a file: callers feed arbitrary byte
/// ranges (replication ships the log in batches that can split a record
/// anywhere), the applier parses out complete records, applies each chunk in
/// its own transaction, and buffers a trailing partial record until the next
/// chunk supplies the rest.
///
/// Idempotence is offset-based: bytes at stream positions the applier has
/// already consumed are skipped byte-for-byte, so re-feeding the same batch
/// (a follower retrying after an injected `repl.apply` fault) or an
/// overlapping prefix (a follower restart re-reading its local log copy,
/// then fetching from a conservative offset) never double-applies a record.
/// A gap — bytes starting beyond the consumed tip — is rejected, since
/// applying them would silently drop the missing records.
///
/// ReplayLog (wal/log_recovery) is the whole-file convenience wrapper over
/// this class; a replication follower drives it batch by batch.

#include <cstdint>
#include <map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "txn/transaction_manager.h"

namespace mb2 {

struct ApplyStats {
  uint64_t records_applied = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t skipped = 0;  ///< records referencing unknown tables/slots
};

class LogApplier {
 public:
  /// Both must outlive the applier; tables are resolved lazily by id, so a
  /// table registered after construction is still found.
  LogApplier(Catalog *catalog, TransactionManager *txn_manager);
  MB2_DISALLOW_COPY_AND_MOVE(LogApplier);

  /// Feeds the stream range [offset, offset + len). The overlap with the
  /// already-consumed prefix is skipped; complete records are applied in one
  /// transaction (visible atomically); a trailing partial record is
  /// buffered. Errors:
  ///   InvalidArgument "log stream gap"  — offset > stream_offset(); nothing
  ///     is consumed, the caller must re-fetch from stream_offset().
  ///   InvalidArgument (corrupt record)  — structurally invalid bytes (bad
  ///     op/type tag, absurd length). The applier refuses further input.
  Status Apply(uint64_t offset, const uint8_t *data, size_t len,
               ApplyStats *stats = nullptr);

  /// Stream position consumed so far, including buffered partial-record
  /// bytes — the offset the next Apply (or replication fetch) resumes from.
  uint64_t stream_offset() const { return stream_offset_; }

  /// Stream position of fully-applied records only (excludes the buffered
  /// partial tail). After end-of-stream this lagging behind stream_offset()
  /// is exactly the torn-tail condition.
  uint64_t applied_offset() const { return stream_offset_ - pending_.size(); }

  bool has_partial_record() const { return !pending_.empty(); }

  /// Totals across every Apply call.
  const ApplyStats &total() const { return total_; }

 private:
  enum class ParseOutcome { kRecord, kNeedMore, kCorrupt };

  struct ParsedRecord {
    LogOpType op;
    uint32_t table_id = 0;
    uint64_t slot = 0;
    Tuple row;
  };

  /// Parses one record from data[0, size); on kRecord sets *consumed.
  static ParseOutcome ParseRecord(const uint8_t *data, size_t size,
                                  size_t *consumed, ParsedRecord *out);

  /// Applies parsed records from pending_; consumes what it parses.
  Status DrainPending(ApplyStats *stats);

  Table *ResolveTable(uint32_t table_id);

  Catalog *catalog_;
  TransactionManager *txn_manager_;

  std::map<uint32_t, Table *> tables_;  ///< lazy id -> table cache
  uint64_t scanned_catalog_version_ = ~0ull;  ///< version at last full rescan
  /// Logged slot -> replayed slot, per table (survives across batches so
  /// updates/deletes in a later batch find rows inserted in an earlier one).
  std::map<uint32_t, std::map<SlotId, SlotId>> slot_map_;

  std::vector<uint8_t> pending_;  ///< unparsed tail of the stream
  uint64_t stream_offset_ = 0;
  bool corrupt_ = false;
  ApplyStats total_;
};

}  // namespace mb2
