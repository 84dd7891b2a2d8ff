#ifndef LSI_DBG_LOCK_TRACKER_H_
#define LSI_DBG_LOCK_TRACKER_H_

/// Runtime lock-order analysis (the runtime side of the deadlock gate;
/// the mutex-rank / rank-table rules of tools/lsi_lint.py are the
/// static side).
///
/// Every lsi::Mutex may carry a LockRankInfo — a process-unique name
/// plus an integer rank, declared at the member with LSI_LOCK_RANK
/// (common/lock_ranks.h). When the detector is enabled
/// (LSI_DEADLOCK_DETECT=1) each thread keeps a stack of the ranked
/// locks it holds, and one rule is enforced at acquisition time,
/// before the acquire can block:
///
///   A ranked lock may be acquired only if its rank is strictly
///   greater than the rank of every ranked lock the thread holds.
///
/// Anything else — a lower rank, an equal rank, or a second instance
/// of the same class — is a "rank-inversion", reported with both
/// acquisition sites. Because production ranks are distinct, every
/// potential cycle among lock classes contains a descending edge, and
/// the first acquisition along that edge is reported in the thread
/// that makes it: a deadlock only has to be *possible* to be caught,
/// no interleaving is needed. Violations abort by default; tests
/// install a handler.
///
/// This subsystem sits BELOW common (common/mutex.h calls into it), so
/// it must not use lsi::Mutex, LSI_LOG, lsi::obs, or anything above it.
/// Its state is the per-thread held stack plus three atomics (the
/// on/off latch, the violation count and the handler), and it reports
/// fatal violations with bare stderr writes.

#include <atomic>
#include <cstdint>
#include <source_location>
#include <string>

namespace lsi::dbg {

/// Immutable metadata for one lock class, a function-local constant at
/// its LSI_LOCK_RANK site, stored by pointer in lsi::Mutex.
struct LockRankInfo {
  const char* name;  // process-unique, e.g. "live.engine.write"
  int rank;          // see common/lock_ranks.h for the band layout
};

namespace internal {
/// 0 = uninitialised, 1 = off, 2 = on. Relaxed loads keep the
/// detector-off cost of every Lock()/Unlock() to one predictable
/// branch; there is no ordering to enforce because the flag is
/// write-once outside SetDeadlockDetectForTest.
extern std::atomic<int> g_detect_state;
bool DetectSlowInit();  // reads LSI_DEADLOCK_DETECT, latches the state
}  // namespace internal

/// True when the runtime detector is on (LSI_DEADLOCK_DETECT=1, or
/// forced by SetDeadlockDetectForTest). This is the release-build fast
/// path: one relaxed atomic load and one branch.
inline bool DeadlockDetectEnabled() {
  const int s = internal::g_detect_state.load(std::memory_order_relaxed);
  if (s == 0) return internal::DetectSlowInit();
  return s == 2;
}

/// Forces the detector on or off, overriding the environment. Test-only.
void SetDeadlockDetectForTest(bool enabled);

/// A detected ordering violation. `kind` is always "rank-inversion";
/// the message embeds both acquisition sites (file:line (function)).
struct Violation {
  std::string kind;
  std::string message;
};

/// Installs a handler called instead of the default report-and-abort.
/// Returns the previous handler (nullptr = default). Test-only: lets
/// multi-threaded tests observe violations without death tests.
using ViolationHandler = void (*)(const Violation&);
ViolationHandler SetViolationHandler(ViolationHandler handler);

/// Violations reported since process start, for lsi.dbg.lock.violations
/// and the /statusz "dbg" block.
uint64_t ViolationCount();

/// Hooks wired into lsi::Mutex / lsi::MutexLock / lsi::CondVar. All are
/// no-ops for unranked mutexes (info == nullptr) except release, which
/// is keyed by address and simply finds nothing. Call only when
/// DeadlockDetectEnabled() — the wrappers guard every call site.
void OnAcquire(const LockRankInfo* info, const void* mutex,
               const std::source_location& loc);
/// TryLock that succeeded: pushes the held entry but runs no check — a
/// try-acquire cannot block, so it cannot deadlock, and treating it as
/// an ordering commitment would flag valid try-then-back-off patterns.
void OnTryAcquire(const LockRankInfo* info, const void* mutex,
                  const std::source_location& loc);
void OnRelease(const void* mutex);
/// CondVar wait: the mutex is released while blocked, so its held
/// entry is popped, and the re-acquire the wakeup will make is checked
/// against the locks still held — before the wait, so the hazard is
/// reported without ever being taken. Waiting while holding only the
/// waited-on mutex therefore never reports; waiting while holding locks
/// acquired *after* it is exactly the hazard. The held set cannot change
/// while the thread is blocked, so the wakeup re-pushes the entry
/// without a second check.
void OnCondVarWaitBegin(const LockRankInfo* info, const void* mutex,
                        const std::source_location& loc);
void OnCondVarWaitEnd(const LockRankInfo* info, const void* mutex,
                      const std::source_location& loc);

}  // namespace lsi::dbg

#endif  // LSI_DBG_LOCK_TRACKER_H_
