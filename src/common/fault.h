#ifndef LSI_COMMON_FAULT_H_
#define LSI_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace lsi::fault {

/// Deterministic fault injection (`lsi::fault`).
///
/// Code that can fail in the field declares a named *fault point*:
///
///   if (LSI_FAULT_POINT("io.fwrite")) {
///     return fault::InjectedFailure("io.fwrite");
///   }
///
/// Disabled (the default), a fault point costs one relaxed atomic load
/// and a never-taken branch — cheap enough for serving hot paths. Armed
/// — via the `LSI_FAULT` environment variable or FaultRegistry::Arm —
/// the point injects failures on a deterministic schedule, so tests can
/// exercise every error path (short writes, ENOSPC at close, server
/// overload) without real disks filling up or real peers dying.
///
/// `LSI_FAULT` grammar (also accepted by FaultRegistry::ArmFromString):
///
///   spec  := entry (';' entry)*
///   entry := name '=' mode
///   name  := [a-z0-9_.]+           (a registered fault point)
///   mode  := 'once@' N             fail exactly on the Nth hit (1-based)
///          | 'every@' N            fail on hits N, 2N, 3N, ...
///          | 'after@' N            fail on every hit past the first N
///          | 'always'              shorthand for after@0
///
/// e.g. LSI_FAULT="io.fwrite=once@3;serve.server.admit=every@2".
///
/// Every armed evaluation counts into the point's hit counter and every
/// injection into its trigger counter; the obs exporters mirror them as
/// `lsi.fault.<name>.hits` / `lsi.fault.<name>.triggers`, so torture
/// harnesses can verify that a fault actually fired (and production
/// dashboards would scream if one ever ships armed).

/// When an armed fault point injects, relative to its hit count.
enum class Trigger {
  kOnceAt,    // exactly the Nth hit, once
  kEveryNth,  // every Nth hit
  kAfterN,    // every hit after the first N
};

/// An armed schedule: the trigger mode and its N.
struct FaultSpec {
  Trigger trigger = Trigger::kOnceAt;
  std::uint64_t n = 1;
};

/// Parses a single mode ("once@3", "every@2", "after@10", "always").
Result<FaultSpec> ParseFaultSpec(const std::string& text);

/// The Status an injected failure reports: Internal, with a message
/// ("fault injected: <name>") that torture tests can grep for.
Status InjectedFailure(const char* name);

/// One named fault point. Instances live forever in the FaultRegistry;
/// call sites cache the pointer in a function-local static (that is what
/// LSI_FAULT_POINT expands to), so the steady-state cost of a disabled
/// point is the armed_ load alone.
class FaultPoint {
 public:
  explicit FaultPoint(std::string name);

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const std::string& name() const { return name_; }

  /// True when this evaluation should fail. The disabled fast path is a
  /// relaxed load + branch; the armed path takes a short mutex to apply
  /// the schedule and bump the lsi.fault.* counters.
  bool ShouldFail() {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return EvaluateArmed();
  }

  void Arm(FaultSpec spec);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Cumulative armed evaluations / injections since process start (they
  /// keep counting across re-arms — the obs layer mirrors them as
  /// monotonic counters; take deltas to scope to one experiment).
  std::uint64_t hits() const;
  std::uint64_t triggers() const;

 private:
  bool EvaluateArmed();

  const std::string name_;
  std::atomic<bool> armed_{false};

  mutable Mutex mutex_{LSI_LOCK_RANK("fault.point", lock_rank::kFaultPoint)};
  FaultSpec spec_ LSI_GUARDED_BY(mutex_);
  // Schedule position; Arm() zeroes it so specs count from the arm.
  std::uint64_t since_arm_ LSI_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ LSI_GUARDED_BY(mutex_) = 0;
  std::uint64_t triggers_ LSI_GUARDED_BY(mutex_) = 0;
};

/// Process-wide registry of fault points, keyed by name. Points register
/// lazily, on the first execution of their LSI_FAULT_POINT site; arming
/// a name that has not registered yet is remembered and applied when it
/// does (which is how `LSI_FAULT` set at process start works).
class FaultRegistry {
 public:
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// The process-wide instance. Parses `LSI_FAULT` from the environment
  /// on first construction; a malformed spec aborts startup loudly
  /// rather than silently testing nothing.
  static FaultRegistry& Global();

  /// Returns the point named `name`, creating it on first use and
  /// applying any pending arm request. Called by LSI_FAULT_POINT.
  FaultPoint* Register(const char* name);

  /// Arms `name` with `spec`, now or (if unregistered) at registration.
  void Arm(const std::string& name, FaultSpec spec);

  /// Arms every entry of an "a=once@3;b=every@2" spec string. On a parse
  /// error nothing is armed.
  Status ArmFromString(const std::string& specs);

  /// Disarms `name` (and forgets any pending arm for it).
  void Disarm(const std::string& name);

  /// Disarms every point and clears all pending arms.
  void DisarmAll();

  /// Names of all registered points, sorted. Torture tests iterate this
  /// to prove every declared point actually guards its failure path.
  std::vector<std::string> PointNames() const;

  /// The registered point named `name`, or nullptr.
  FaultPoint* Find(const std::string& name) const;

 private:
  FaultRegistry();

  mutable Mutex mutex_{
      LSI_LOCK_RANK("fault.registry", lock_rank::kFaultRegistry)};
  std::map<std::string, std::unique_ptr<FaultPoint>> points_
      LSI_GUARDED_BY(mutex_);
  std::map<std::string, FaultSpec> pending_ LSI_GUARDED_BY(mutex_);
};

/// Declares + evaluates the fault point `name` (a string literal of
/// [a-z0-9_.]+, unique across the tree — tools/lsi_lint.py enforces
/// both). Evaluates to true when the point should inject a failure.
#define LSI_FAULT_POINT(name)                                     \
  ([]() -> bool {                                                 \
    static ::lsi::fault::FaultPoint* const lsi_fault_point =      \
        ::lsi::fault::FaultRegistry::Global().Register(name);     \
    return lsi_fault_point->ShouldFail();                         \
  }())

}  // namespace lsi::fault

#endif  // LSI_COMMON_FAULT_H_
