#include "database.h"

#include <unistd.h>

#include <cstdio>

#include "sql/parser.h"

namespace mb2 {

Result<QueryResult> Database::Execute(const std::string &sql) {
  return sql::ExecuteSql(this, sql);
}

BufferPool *Database::EnsureBufferPool() {
  std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
  if (buffer_pool_ != nullptr) return buffer_pool_.get();
  std::string path = options_.heap_path;
  if (path.empty()) {
    static std::atomic<uint64_t> counter{0};
    path = "/tmp/mb2_heap_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".db";
    heap_is_temp_ = true;
  }
  auto disk = std::make_unique<DiskManager>(path);
  if (!disk->status().ok()) return nullptr;
  disk_manager_ = std::move(disk);
  buffer_pool_ = std::make_unique<BufferPool>(disk_manager_.get(), &settings_);
  return buffer_pool_.get();
}

Database::Database(Options options) : options_(std::move(options)) {
  catalog_.SetBufferPoolProvider([this] { return EnsureBufferPool(); });
  log_manager_ = std::make_unique<LogManager>(options_.wal_path, &settings_);
  // Always wired, even when the WAL starts disabled (Serialize no-ops
  // without a device): a promoted replica opens its log segment *after*
  // construction, and its commits must be logged from that point on.
  txn_manager_ = std::make_unique<TransactionManager>(log_manager_.get());
  gc_ = std::make_unique<GarbageCollector>(txn_manager_.get(), &settings_);
  engine_ = std::make_unique<ExecutionEngine>(&catalog_, txn_manager_.get(),
                                              &settings_);
  estimator_ = std::make_unique<CardinalityEstimator>(&catalog_);
  optimizer_ = std::make_unique<CostOptimizer>(&catalog_, estimator_.get(),
                                               &settings_);
  plan_cache_ = std::make_unique<sql::PlanCache>(&catalog_, &settings_);
  if (options_.start_flusher) log_manager_->StartFlusher();
  if (options_.start_gc) gc_->StartBackground();
}

Database::~Database() {
  gc_->StopBackground();
  log_manager_->StopFlusher();
  // Tear the storage stack down in dependency order: pool (flushes through
  // the disk manager) before disk manager, then drop a temp heap file.
  std::string heap_path;
  {
    std::lock_guard<std::mutex> lock(buffer_pool_mutex_);
    if (disk_manager_ != nullptr && heap_is_temp_) {
      heap_path = disk_manager_->path();
    }
    buffer_pool_.reset();
    disk_manager_.reset();
  }
  if (!heap_path.empty()) std::remove(heap_path.c_str());
}

}  // namespace mb2
