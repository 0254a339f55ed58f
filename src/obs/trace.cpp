#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "metrics/metrics_collector.h"
#include "obs/metrics_registry.h"

namespace mb2 {

namespace {

std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t tls_current_span = 0;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceSink &TraceSink::Instance() {
  static TraceSink instance;
  return instance;
}

void TraceSink::Push(const SpanRecord &record) {
  total_pushed_.fetch_add(1, std::memory_order_relaxed);
  SpinLatch::ScopedLock guard(&latch_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(record);
    return;
  }
  ring_[next_] = record;
  next_ = (next_ + 1) % kCapacity;
}

std::vector<SpanRecord> TraceSink::Snapshot() const {
  std::vector<SpanRecord> out;
  {
    SpinLatch::ScopedLock guard(&latch_);
    out.reserve(ring_.size());
    // next_ is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < ring_.size(); i++) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
  }
  return out;
}

void TraceSink::Clear() {
  SpinLatch::ScopedLock guard(&latch_);
  ring_.clear();
  next_ = 0;
}

ObsSpan::ObsSpan(const char *name) : active_(obs::TracingEnabled()) {
  if (!active_) return;
  record_.name = name;
  record_.span_id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent_id = tls_current_span;
  record_.thread_id = std::hash<std::thread::id>{}(std::this_thread::get_id());
  record_.start_us = NowMicros();
  saved_parent_ = tls_current_span;
  tls_current_span = record_.span_id;
  start_ns_ = NowNanos();
}

ObsSpan::~ObsSpan() {
  if (active_) Close(static_cast<double>(NowNanos() - start_ns_) / 1000.0);
}

void ObsSpan::Close(double duration_us) {
  if (!active_) return;
  active_ = false;
  tls_current_span = saved_parent_;
  record_.duration_us = duration_us;
  TraceSink::Instance().Push(record_);
}

std::string FormatSpanTree(const std::vector<SpanRecord> &spans) {
  std::map<uint64_t, std::vector<const SpanRecord *>> children;
  std::vector<const SpanRecord *> roots;
  std::map<uint64_t, bool> present;
  for (const SpanRecord &s : spans) present[s.span_id] = true;
  for (const SpanRecord &s : spans) {
    // A parent evicted from the ring (or never traced) orphans its subtree;
    // promote orphans to roots so they stay visible.
    if (s.parent_id != 0 && present.count(s.parent_id) > 0) {
      children[s.parent_id].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  auto by_start = [](const SpanRecord *a, const SpanRecord *b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us
                                      : a->span_id < b->span_id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto &[id, kids] : children) std::sort(kids.begin(), kids.end(), by_start);

  std::string out;
  std::function<void(const SpanRecord *, size_t)> emit =
      [&](const SpanRecord *span, size_t depth) {
        char line[256];
        std::snprintf(line, sizeof(line), "%*s%s  %.1f us  [span %llu parent %llu]\n",
                      static_cast<int>(depth * 2), "", span->name,
                      span->duration_us,
                      static_cast<unsigned long long>(span->span_id),
                      static_cast<unsigned long long>(span->parent_id));
        out += line;
        auto it = children.find(span->span_id);
        if (it == children.end()) return;
        for (const SpanRecord *kid : it->second) emit(kid, depth + 1);
      };
  for (const SpanRecord *root : roots) emit(root, 0);
  return out;
}

}  // namespace mb2
