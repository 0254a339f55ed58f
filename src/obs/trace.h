#pragma once

/// \file trace.h
/// Lightweight request tracing: ObsSpan is an RAII scope that records one
/// named span (id, parent id, thread, start, duration) into a global
/// fixed-size ring buffer when span tracing is on. Parentage is a
/// thread-local — a span opened while another span is live on the same
/// thread becomes its child, so the spans of one query assemble into a tree
/// with the engine's ExecuteQuery span at the root. Every OU's span comes
/// from its OuTrackerScope (metrics/metrics_collector.h), so below the root
/// a query's trace is its list of OUs (txn begin, each execution OU, WAL
/// serialize, txn commit). Background work (WAL flusher, GC loop) starts its
/// own roots on its own threads.
///
/// When tracing is off (the default) constructing a span is a relaxed
/// atomic load and an untaken branch; nothing is allocated or latched.

#include <cstdint>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/macros.h"

namespace mb2 {

struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  ///< 0 = root
  uint64_t thread_id = 0;
  const char *name = "";   ///< static string supplied at span open
  int64_t start_us = 0;    ///< NowMicros() timeline (shared with OU records)
  double duration_us = 0.0;
};

/// Global bounded span sink: newest spans overwrite the oldest once the ring
/// wraps. Snapshot() returns records oldest-first.
class TraceSink {
 public:
  static TraceSink &Instance();
  MB2_DISALLOW_COPY_AND_MOVE(TraceSink);

  static constexpr size_t kCapacity = 8192;

  void Push(const SpanRecord &record);
  std::vector<SpanRecord> Snapshot() const;
  void Clear();
  uint64_t total_pushed() const {
    return total_pushed_.load(std::memory_order_relaxed);
  }

 private:
  TraceSink() { ring_.reserve(kCapacity); }

  mutable SpinLatch latch_;
  std::vector<SpanRecord> ring_;
  size_t next_ = 0;  ///< overwrite cursor once ring_ is full
  std::atomic<uint64_t> total_pushed_{0};
};

/// RAII span. `name` must outlive the sink (use string literals).
class ObsSpan {
 public:
  explicit ObsSpan(const char *name);
  ~ObsSpan();
  MB2_DISALLOW_COPY_AND_MOVE(ObsSpan);

  bool active() const { return active_; }
  uint64_t span_id() const { return record_.span_id; }

  /// Closes the span now with a duration read from another clock (an OU
  /// scope passes its tracker's elapsed_us, so span and OU record agree);
  /// the destructor then does nothing. Spans must still close last-in,
  /// first-out.
  void Close(double duration_us);

 private:
  bool active_;
  uint64_t saved_parent_ = 0;
  int64_t start_ns_ = 0;
  SpanRecord record_;
};

/// Renders a span snapshot as an indented parent/child tree (one line per
/// span: name, duration, span/parent ids), children in start order.
std::string FormatSpanTree(const std::vector<SpanRecord> &spans);

}  // namespace mb2
