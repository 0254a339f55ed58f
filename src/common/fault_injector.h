#pragma once

/// \file fault_injector.h
/// Process-wide fault-injection registry. Subsystems declare named fault
/// points (`wal.flush`, `persistence.read`, ...) and consult the injector on
/// every pass through them; tests (or the MB2_FAULTS environment variable)
/// arm a point to fire probabilistically, on the N-th hit, or a bounded
/// number of times. Firing is deterministic for a fixed seed so failing
/// schedules replay exactly.
///
/// The un-armed fast path is a single relaxed atomic load — production-style
/// runs pay effectively nothing for the instrumentation.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "common/status.h"

namespace mb2 {

/// Canonical fault-point names. Subsystems pass these to Hit(); tests arm
/// them. (Plain constants, not an enum: plugins/tests may add their own.)
namespace fault_point {
inline constexpr const char *kWalAppend = "wal.append";
inline constexpr const char *kWalFlush = "wal.flush";
inline constexpr const char *kPersistenceWrite = "persistence.write";
inline constexpr const char *kPersistenceRead = "persistence.read";
inline constexpr const char *kTxnCommit = "txn.commit";
inline constexpr const char *kThreadPoolTask = "threadpool.task";
// Network service layer (src/net): firing simulates a transient socket
// failure — the server drops the affected connection, exercising the
// client's reconnect/retry path.
inline constexpr const char *kNetAccept = "net.accept";
inline constexpr const char *kNetRead = "net.read";
inline constexpr const char *kNetWrite = "net.write";
// Parallel index population (src/index/index_builder): firing fails the
// build after the scan; CREATE INDEX must surface the error and drop the
// half-built index from the catalog.
inline constexpr const char *kIndexBuild = "index.build";
// Replication (src/repl): `repl.ship` fires on the primary's batch-read
// path (the follower sees a fetch error — a partitioned/unreachable
// primary), `repl.apply` on the follower's apply path (the batch must be
// retried without double-applying). `net.connect` fires in Client::Dial
// before any socket work — a refused/partitioned endpoint.
inline constexpr const char *kReplShip = "repl.ship";
inline constexpr const char *kReplApply = "repl.apply";
inline constexpr const char *kNetConnect = "net.connect";
// Disk-backed table heap (src/storage/disk_manager): `page.read` fires on
// page fetch (surfaces an I/O error to the scan), `page.write` on page
// writeback — arm with `torn` to simulate a crash mid-write leaving a
// partial page whose checksum must fail on the next read.
inline constexpr const char *kPageRead = "page.read";
inline constexpr const char *kPageWrite = "page.write";
}  // namespace fault_point

/// What an armed point does when it fires.
enum class FaultAction : uint8_t {
  kError,      ///< the instrumented call surfaces an error Status
  kThrow,      ///< the instrumented call throws InjectedFault
  kTornWrite,  ///< I/O writes only `torn_fraction` of its bytes (simulated
               ///< crash mid-write), then surfaces an error
  kDelay,      ///< the call is stalled for `delay_us`, then proceeds
               ///< normally (slow link / stalled flush, not a hard failure)
};

/// Exception type for FaultAction::kThrow.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string &what) : std::runtime_error(what) {}
};

/// How an armed point decides to fire on each hit.
struct FaultSpec {
  FaultAction action = FaultAction::kError;
  /// Per-hit fire probability (1.0 = every eligible hit). Evaluated with the
  /// injector's seeded RNG, so sequences replay deterministically.
  double probability = 1.0;
  /// Skip the first N hits (fire starting on hit N+1). Combined with
  /// probability: eligibility starts after N hits.
  uint64_t after_hits = 0;
  /// Stop firing after this many fires; < 0 means unlimited.
  int64_t max_fires = -1;
  /// For kTornWrite: fraction of the payload actually written.
  double torn_fraction = 0.5;
  /// For kDelay: stall duration in microseconds.
  int64_t delay_us = 1000;
  std::string message = "injected fault";
};

/// The decision returned to the instrumented call site.
struct FaultCheck {
  bool fire = false;
  /// A kDelay fire already slept inside Hit() and reports `fire == false`
  /// (the call proceeds normally); this flag records that it happened.
  bool delayed = false;
  FaultAction action = FaultAction::kError;
  double torn_fraction = 0.5;
  const char *message = "";  ///< valid until the point is disarmed/reset

  /// Convenience: the Status an erroring call site should surface.
  Status ToStatus(const std::string &point) const {
    return Status::IoError("fault '" + point + "': " + message);
  }
};

class FaultInjector {
 public:
  /// The process-wide instance. On first access, arms any points described
  /// by the MB2_FAULTS environment variable (see ArmFromSpec grammar).
  static FaultInjector &Instance();
  MB2_DISALLOW_COPY_AND_MOVE(FaultInjector);

  /// True when at least one point is armed. Call sites use this to skip the
  /// map lookup entirely in the common case.
  bool Armed() const { return armed_points_.load(std::memory_order_relaxed) > 0; }

  void Arm(const std::string &point, FaultSpec spec);
  /// Disarms every point and clears all hit/fire counters.
  void Reset();
  /// Reseeds the probability RNG (deterministic replay of random schedules).
  void Seed(uint64_t seed);

  /// Registers one pass through `point` and decides whether the fault fires.
  /// Cheap when nothing is armed; counts hits only for armed points.
  FaultCheck Hit(const char *point);

  uint64_t HitCount(const std::string &point) const;
  uint64_t FireCount(const std::string &point) const;
  std::vector<std::string> ArmedPoints() const;

  /// Arms points from a spec string (the MB2_FAULTS grammar):
  ///   spec     := entry (';' entry)*
  ///   entry    := point '=' token (',' token)*
  ///   token    := 'p' FLOAT      per-hit probability
  ///             | 'n' INT        skip the first N hits
  ///             | 'x' INT        fire at most X times
  ///             | 'error' | 'throw' | 'torn' FLOAT? | 'delay' INT?  (µs)
  /// Example: MB2_FAULTS="wal.flush=p0.01;persistence.read=n2,x1,error"
  ///          MB2_FAULTS="repl.ship=p0.5,delay20000"    (slow link)
  Status ArmFromSpec(const std::string &spec);

 private:
  FaultInjector();

  struct PointState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, PointState> points_;
  Rng rng_{0xfa17ULL};
  std::atomic<int> armed_points_{0};
};

}  // namespace mb2
