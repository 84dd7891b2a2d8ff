#ifndef LSI_COMMON_LOCK_RANKS_H_
#define LSI_COMMON_LOCK_RANKS_H_

/// The process-wide lock rank table.
///
/// Rank rule (strict): a thread may acquire a ranked lock only if its
/// rank is strictly greater than the rank of every ranked lock it
/// already holds. Equal ranks — including a second instance of the
/// same lock class — are a rank inversion. Ranks therefore encode the
/// permitted nesting direction: LOW ranks are the outermost locks
/// (taken first, at the top of a call chain), HIGH ranks are leaves.
///
/// Why one rule is enough: every constant below is distinct, so every
/// lock class has its own rank. A cycle of classes must then descend
/// in rank somewhere, and the first acquisition along that descending
/// edge is reported at once, in the thread that makes it; an
/// acquired-before graph would never report a cycle this check missed.
/// tools/lsi_lint.py's rank-table rule rejects two constants with one
/// value, which is what keeps the argument sound.
///
/// Every lsi::Mutex member in src/ must be constructed with
/// LSI_LOCK_RANK("<subsystem>.<name>", lock_rank::kConstant) using a
/// constant from this table; tools/lsi_lint.py enforces that statically
/// (mutex-rank, rank-unique, rank-table rules) and the runtime detector
/// (src/dbg/lock_tracker.h, LSI_DEADLOCK_DETECT=1) enforces the
/// ordering dynamically. TSan's lock-order-inversion detector does not
/// replace the runtime check; DESIGN.md ("Lock-order analysis") records
/// the cases only the rank check catches.
///
/// Bands leave gaps so new locks slot in without renumbering.

#include "dbg/lock_tracker.h"

/// Declares the rank + name of one lock class at a Mutex member's
/// construction site:
///
///   Mutex mutex_{LSI_LOCK_RANK("obs.metrics", lock_rank::kObsMetrics)};
///
/// Expands to a pointer to a function-local constant: no registration,
/// no lookup, nothing to initialise at run time.
#define LSI_LOCK_RANK(name, rank)                                  \
  ([]() -> const ::lsi::dbg::LockRankInfo* {                       \
    static constexpr ::lsi::dbg::LockRankInfo lsi_lock_rank_info{  \
        name, rank};                                               \
    return &lsi_lock_rank_info;                                    \
  }())

namespace lsi::lock_rank {

// ---- Band 2-9: shard router (outermost of all). ----
// The scatter-gather router sits ABOVE the single-node serving layer:
// its state lock (breaker table, latency rings) is held while resolving
// metrics handles and while admitting work into the per-backend serve
// stack, so it ranks below every serve/live/obs lock. Network I/O is
// never performed under it.
inline constexpr int kShardRouterState = 4;

// ---- Band 10-19: serving entry points. ----
// Request-path locks held while calling DOWN into live/fault/obs.
// serve.server.queue guards the accept/dispatch fd queue and is never
// held across request work, so it sits below everything in the path.
inline constexpr int kServeServerQueue = 10;
inline constexpr int kServeCacheShard = 14;

// ---- Band 20-29: live index (writer / snapshot lifecycle). ----
// The refresher loop's 3-phase re-SVD takes refresh -> write ->
// snapshot in that order (freeze under write, build unlocked, replay
// + swap under write -> snapshot), so the band orders refresh lowest.
// Write-path WAL appends hold live.engine.write while hitting fault
// points (band 60) and obs counters (band 70) — strictly upward.
inline constexpr int kLiveRefresh = 20;
inline constexpr int kLiveWrite = 24;
inline constexpr int kLiveSnapshot = 28;

// ---- Band 30-39: parallel substrate. ----
// The scheduler resolves the thread-count gauge (band 70) under its
// lock; pool workers take only the queue lock; regions never nest
// (nested ParallelFor serializes), so region sits as a leaf above the
// queue it feeds.
inline constexpr int kParScheduler = 30;
inline constexpr int kParPoolQueue = 32;
inline constexpr int kParRegion = 34;

// ---- Band 60-69: fault injection. ----
// FaultRegistry::Register/ArmFromString hold the registry lock while
// arming individual points, so registry < point.
inline constexpr int kFaultRegistry = 60;
inline constexpr int kFaultPoint = 62;

// ---- Band 70-79: observability. ----
// The metrics registry is called from under almost every lock above
// (gauge publishes, counter bumps), and calls nothing itself.
inline constexpr int kObsMetrics = 70;

// ---- Band 90-99: terminal leaves. ----
// The logging sink serializes a single fwrite and may be entered from
// anywhere, including while any other lock is held. Nothing may be
// acquired under it.
inline constexpr int kLoggingSink = 95;

}  // namespace lsi::lock_rank

#endif  // LSI_COMMON_LOCK_RANKS_H_
