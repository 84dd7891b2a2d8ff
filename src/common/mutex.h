#ifndef LSI_COMMON_MUTEX_H_
#define LSI_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>

#include "common/thread_annotations.h"
#include "dbg/lock_tracker.h"

namespace lsi {

/// std::mutex with capability annotations, so `clang -Wthread-safety`
/// can track it. Library code guards shared state with this type (and
/// LSI_GUARDED_BY) instead of raw std::mutex — the standard type carries
/// no attributes, which would leave every guarded access unprovable.
///
/// A Mutex may additionally carry a lock rank (LSI_LOCK_RANK,
/// common/lock_ranks.h). Ranked mutexes participate in the runtime
/// deadlock detector (src/dbg/lock_tracker.h): under
/// LSI_DEADLOCK_DETECT=1 every acquisition is checked against the ranks
/// on the holder's stack, with the real acquisition site captured via
/// std::source_location default arguments — call sites stay unchanged.
/// With the detector off the cost is one relaxed atomic load and branch
/// per lock operation.
///
/// Prefer MutexLock over calling Lock()/Unlock() directly.
class LSI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Ranked constructor: `Mutex mu{LSI_LOCK_RANK("obs.metrics", ...)};`
  explicit Mutex(const dbg::LockRankInfo* rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const std::source_location& loc =
                std::source_location::current()) LSI_ACQUIRE() {
    if (dbg::DeadlockDetectEnabled()) dbg::OnAcquire(rank_, this, loc);
    mu_.lock();
  }
  void Unlock() LSI_RELEASE() {
    mu_.unlock();
    if (dbg::DeadlockDetectEnabled()) dbg::OnRelease(this);
  }
  bool TryLock(const std::source_location& loc =
                   std::source_location::current()) LSI_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
    if (acquired && dbg::DeadlockDetectEnabled()) {
      dbg::OnTryAcquire(rank_, this, loc);
    }
    return acquired;
  }

  /// This mutex's lock class, or nullptr for unranked (test-local) use.
  const dbg::LockRankInfo* rank() const { return rank_; }

  /// The wrapped std::mutex, for CondVar's wait plumbing only.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
  const dbg::LockRankInfo* rank_ = nullptr;
};

/// RAII lock for lsi::Mutex (the std::scoped_lock/unique_lock of this
/// codebase). Holds the capability from construction to destruction;
/// Unlock()/Lock() allow the refresher-style "drop the lock around slow
/// work inside a loop" pattern without losing analysis coverage.
class LSI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu, const std::source_location& loc =
                                    std::source_location::current())
      LSI_ACQUIRE(mu)
      : mu_(mu), lock_(mu.native_handle(), std::defer_lock) {
    if (dbg::DeadlockDetectEnabled()) dbg::OnAcquire(mu_.rank(), &mu_, loc);
    lock_.lock();
  }
  ~MutexLock() LSI_RELEASE() {
    if (lock_.owns_lock()) {
      lock_.unlock();
      if (dbg::DeadlockDetectEnabled()) dbg::OnRelease(&mu_);
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (e.g. to run a callback that must
  /// not be held under it). The capability must be re-acquired with
  /// Lock() before the next guarded access or destruction.
  void Unlock() LSI_RELEASE() {
    lock_.unlock();
    if (dbg::DeadlockDetectEnabled()) dbg::OnRelease(&mu_);
  }
  void Lock(const std::source_location& loc =
                std::source_location::current()) LSI_ACQUIRE() {
    if (dbg::DeadlockDetectEnabled()) dbg::OnAcquire(mu_.rank(), &mu_, loc);
    lock_.lock();
  }

  /// The locked lsi::Mutex, for CondVar's detector plumbing only.
  Mutex& mutex() { return mu_; }

  /// The underlying unique_lock, for CondVar only.
  std::unique_lock<std::mutex>& native_lock() { return lock_; }

 private:
  Mutex& mu_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with lsi::Mutex.
///
/// Wait() atomically releases and re-acquires the mutex, but — following
/// the usual annotation convention (absl::CondVar does the same) — the
/// caller's MutexLock capability is treated as held across the call:
/// guarded reads before and after a Wait() are exactly the accesses the
/// lock really does protect. Write wait loops inline
/// (`while (!pred()) cv.Wait(lock);`) rather than passing predicate
/// lambdas: the analysis does not propagate lock state into lambda
/// bodies, so inline loops are what keeps the predicate checkable.
///
/// The deadlock detector mirrors the real semantics: the waited-on
/// mutex leaves the holder's stack while blocked and its re-acquire is
/// checked as the wait begins, so waiting while holding only that mutex
/// never reports, while waiting with later-acquired locks still held is
/// reported before the wait — that ordering hazard is real.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock, const std::source_location& loc =
                                 std::source_location::current()) {
    const bool tracked = dbg::DeadlockDetectEnabled();
    if (tracked) {
      dbg::OnCondVarWaitBegin(lock.mutex().rank(), &lock.mutex(), loc);
    }
    cv_.wait(lock.native_lock());
    if (tracked) {
      dbg::OnCondVarWaitEnd(lock.mutex().rank(), &lock.mutex(), loc);
    }
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline,
      const std::source_location& loc = std::source_location::current()) {
    const bool tracked = dbg::DeadlockDetectEnabled();
    if (tracked) {
      dbg::OnCondVarWaitBegin(lock.mutex().rank(), &lock.mutex(), loc);
    }
    const std::cv_status status =
        cv_.wait_until(lock.native_lock(), deadline);
    if (tracked) {
      dbg::OnCondVarWaitEnd(lock.mutex().rank(), &lock.mutex(), loc);
    }
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout,
                         const std::source_location& loc =
                             std::source_location::current()) {
    const bool tracked = dbg::DeadlockDetectEnabled();
    if (tracked) {
      dbg::OnCondVarWaitBegin(lock.mutex().rank(), &lock.mutex(), loc);
    }
    const std::cv_status status = cv_.wait_for(lock.native_lock(), timeout);
    if (tracked) {
      dbg::OnCondVarWaitEnd(lock.mutex().rank(), &lock.mutex(), loc);
    }
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lsi

#endif  // LSI_COMMON_MUTEX_H_
