#pragma once

/// \file execution_context.h
/// Per-query execution state threaded through the operators: the
/// transaction, catalog, knobs (execution mode), and the simulated wire
/// buffer the OUTPUT OU serializes results into.

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/settings.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/version.h"
#include "txn/transaction.h"

namespace mb2 {

/// Materialized operator output. `slots` parallels `rows` when a scan was
/// asked to carry provenance for updates/deletes.
struct Batch {
  std::vector<Tuple> rows;
  std::vector<SlotId> slots;
};

class ExecutionContext {
 public:
  ExecutionContext(Transaction *txn, Catalog *catalog, SettingsManager *settings)
      : txn_(txn), catalog_(catalog), settings_(settings),
        mode_(settings->GetExecutionMode()) {}

  Transaction *txn() const { return txn_; }
  Catalog *catalog() const { return catalog_; }
  SettingsManager *settings() const { return settings_; }
  ExecutionMode mode() const { return mode_; }

  /// Simulated network sink written by the OUTPUT OU.
  std::vector<uint8_t> &output_buffer() { return output_buffer_; }
  uint64_t rows_output = 0;

 private:
  Transaction *txn_;
  Catalog *catalog_;
  SettingsManager *settings_;
  ExecutionMode mode_;
  std::vector<uint8_t> output_buffer_;
};

}  // namespace mb2
