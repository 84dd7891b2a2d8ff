#include "dbg/lock_tracker.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

// Layering note: this file sits below common, so it must not use
// lsi::Mutex (it implements its tracking), LSI_LOG / LSI_CHECK (logging
// takes an lsi::Mutex), or lsi::obs. All tracking state is per thread;
// fatal reports go straight to stderr.

namespace lsi::dbg {
namespace {

std::atomic<uint64_t> g_violations{0};
std::atomic<ViolationHandler> g_handler{nullptr};

struct HeldLock {
  const LockRankInfo* info;
  const void* mutex;
  std::source_location site;
};

thread_local std::vector<HeldLock> t_held;

std::string FormatSite(const std::source_location& site) {
  return std::string(site.file_name()) + ":" + std::to_string(site.line()) +
         " (" + site.function_name() + ")";
}

std::string DescribeLock(const LockRankInfo* info) {
  return std::string("\"") + info->name + "\" (rank " +
         std::to_string(info->rank) + ")";
}

void ReportViolation(std::string message) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  ViolationHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(Violation{"rank-inversion", std::move(message)});
    return;
  }
  std::fprintf(stderr, "LSI_DEADLOCK_DETECT: rank-inversion\n%s\n",
               message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

namespace internal {

std::atomic<int> g_detect_state{0};

bool DetectSlowInit() {
  const char* env = std::getenv("LSI_DEADLOCK_DETECT");
  const bool on =
      env != nullptr &&
      (std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
       std::strcmp(env, "on") == 0);
  int expected = 0;
  g_detect_state.compare_exchange_strong(expected, on ? 2 : 1,
                                         std::memory_order_relaxed);
  return g_detect_state.load(std::memory_order_relaxed) == 2;
}

}  // namespace internal

void SetDeadlockDetectForTest(bool enabled) {
  internal::g_detect_state.store(enabled ? 2 : 1, std::memory_order_relaxed);
}

ViolationHandler SetViolationHandler(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

uint64_t ViolationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

namespace {

/// Reports every held lock whose rank is not strictly below `info`'s.
void CheckAcquire(const LockRankInfo* info, const std::source_location& loc) {
  for (const HeldLock& held : t_held) {
    if (held.info->rank < info->rank) continue;
    ReportViolation(
        "lock rank inversion: acquiring " + DescribeLock(info) +
        " while holding " + DescribeLock(held.info) +
        "; ranks must strictly increase\n  held:      " +
        DescribeLock(held.info) + " acquired at " + FormatSite(held.site) +
        "\n  acquiring: " + DescribeLock(info) + " at " + FormatSite(loc) +
        "\nlock ranks are documented in src/common/lock_ranks.h");
  }
}

}  // namespace

void OnAcquire(const LockRankInfo* info, const void* mutex,
               const std::source_location& loc) {
  if (info == nullptr) return;
  CheckAcquire(info, loc);
  t_held.push_back(HeldLock{info, mutex, loc});
}

void OnTryAcquire(const LockRankInfo* info, const void* mutex,
                  const std::source_location& loc) {
  if (info == nullptr) return;
  t_held.push_back(HeldLock{info, mutex, loc});
}

void OnRelease(const void* mutex) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == mutex) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Unranked mutex, or the detector was switched on mid-hold: nothing
  // was pushed, nothing to pop.
}

void OnCondVarWaitBegin(const LockRankInfo* info, const void* mutex,
                        const std::source_location& loc) {
  OnRelease(mutex);
  if (info != nullptr) CheckAcquire(info, loc);
}

void OnCondVarWaitEnd(const LockRankInfo* info, const void* mutex,
                      const std::source_location& loc) {
  OnTryAcquire(info, mutex, loc);
}

}  // namespace lsi::dbg
