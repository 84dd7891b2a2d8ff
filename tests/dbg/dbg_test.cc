#include "dbg/lock_tracker.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "core/engine.h"
#include "text/analyzer.h"

// Runtime deadlock-detector tests. Conventions:
//
//  * Every test uses its own "test.dbg.*" lock-class names, none of
//    which collide with the production table.
//  * Single-threaded ordering violations use EXPECT_DEATH: the child
//    process runs the inversion sequentially (the rank check flags the
//    *potential* deadlock; no interleaving is needed), so the fork
//    never races live threads.
//  * Multi-threaded cases install a violation handler instead — a
//    death test around real threads would be fork-unsafe under TSan.
//  * No test takes a real lock-order cycle: the rank check flags the
//    potential one, so the suite runs clean under TSan, whose own
//    lock-order detector would report a real cycle. Tests that nest
//    locks outside a death test use heap-allocated mutexes (NewMutex):
//    TSan keys lock history by address and drops it when a heap block
//    is freed, while stack mutexes that reuse an address would merge
//    one test's lock order into another's.

namespace lsi::dbg {
namespace {

struct RecordedViolations {
  static std::vector<Violation>& All() {
    static std::vector<Violation>* all = new std::vector<Violation>;
    return *all;
  }
  static void Handle(const Violation& violation) {
    All().push_back(violation);
  }
};

class HandlerScope {
 public:
  HandlerScope() {
    RecordedViolations::All().clear();
    previous_ = SetViolationHandler(&RecordedViolations::Handle);
    SetDeadlockDetectForTest(true);
  }
  ~HandlerScope() {
    SetDeadlockDetectForTest(false);
    SetViolationHandler(previous_);
  }

 private:
  ViolationHandler previous_;
};

std::unique_ptr<Mutex> NewMutex(const LockRankInfo* rank) {
  return std::make_unique<Mutex>(rank);
}

bool AnyViolationContains(const std::string& kind,
                          const std::string& needle) {
  for (const Violation& v : RecordedViolations::All()) {
    if (v.kind == kind && v.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(LockOrderDeathTest, RankInversionAbortsWithBothSites) {
  // Outer (rank 58) then inner (rank 54) is a strict rank inversion:
  // the detector aborts before the second acquire can block, printing
  // the acquisition sites of both locks.
  EXPECT_DEATH(
      {
        SetDeadlockDetectForTest(true);
        Mutex outer{LSI_LOCK_RANK("test.dbg.inv_outer", 58)};
        Mutex inner{LSI_LOCK_RANK("test.dbg.inv_inner", 54)};
        MutexLock hold_outer(outer);
        MutexLock hold_inner(inner);
      },
      "rank inversion.*test\\.dbg\\.inv_inner.*test\\.dbg\\.inv_outer"
      "(.|\n)*held:.*dbg_test\\.cc(.|\n)*acquiring:.*dbg_test\\.cc");
}

TEST(LockOrderDeathTest, AbBaCycleAbortsWithBothClasses) {
  // A->B in one critical section, then B->A later in the SAME thread.
  // With distinct ranks one of the two orders descends, so the rank
  // check catches the potential deadlock at that acquire, without any
  // concurrent interleaving.
  EXPECT_DEATH(
      {
        SetDeadlockDetectForTest(true);
        Mutex a{LSI_LOCK_RANK("test.dbg.ab_a", 55)};
        Mutex b{LSI_LOCK_RANK("test.dbg.ab_b", 57)};
        {
          MutexLock hold_a(a);
          MutexLock hold_b(b);
        }
        {
          MutexLock hold_b(b);
          MutexLock hold_a(a);
        }
      },
      "rank inversion.*test\\.dbg\\.ab_a.*test\\.dbg\\.ab_b"
      "(.|\n)*held:.*dbg_test\\.cc(.|\n)*acquiring:.*dbg_test\\.cc");
}

TEST(LockOrderDeathTest, RecursiveAcquireOfOneClassAborts) {
  // Two instances of one class share a rank, and equal ranks may not
  // nest: taking the second is a rank inversion.
  EXPECT_DEATH(
      {
        SetDeadlockDetectForTest(true);
        Mutex first{LSI_LOCK_RANK("test.dbg.rec", 56)};
        Mutex second{LSI_LOCK_RANK("test.dbg.rec", 56)};
        MutexLock hold_first(first);
        MutexLock hold_second(second);
      },
      "rank inversion.*test\\.dbg\\.rec.*test\\.dbg\\.rec");
}

TEST(LockOrderTest, EqualRankDifferentClassesIsRankInversion) {
  HandlerScope scope;
  auto first = NewMutex(LSI_LOCK_RANK("test.dbg.eq_first", 56));
  auto second = NewMutex(LSI_LOCK_RANK("test.dbg.eq_second", 56));
  // Distinct classes of one rank have no defined order, so nesting
  // them in either direction is reported; the rule is strict.
  {
    MutexLock hold_first(*first);
    MutexLock hold_second(*second);
  }
  EXPECT_TRUE(AnyViolationContains("rank-inversion", "test.dbg.eq_second"));
  EXPECT_TRUE(AnyViolationContains("rank-inversion", "test.dbg.eq_first"));
}

TEST(LockOrderTest, ThreeThreadCycleDetectedAcrossThreads) {
  HandlerScope scope;
  auto new_x = [] { return NewMutex(LSI_LOCK_RANK("test.dbg.tri_x", 60)); };
  auto new_y = [] { return NewMutex(LSI_LOCK_RANK("test.dbg.tri_y", 61)); };
  auto new_z = [] { return NewMutex(LSI_LOCK_RANK("test.dbg.tri_z", 62)); };
  // Three threads each take a pair; only the union of their orders is
  // cyclic over the classes x -> y -> z -> x. Each thread locks its own
  // instances, so no instance-level cycle is ever taken. Ranks are
  // distinct, so the class cycle must descend somewhere (z -> x here)
  // and the thread taking that edge is reported. Threads run
  // sequentially — a real interleaving is not required.
  std::thread([&] {
    auto x = new_x();
    auto y = new_y();
    MutexLock hold_x(*x);
    MutexLock hold_y(*y);
  }).join();
  EXPECT_TRUE(RecordedViolations::All().empty());
  std::thread([&] {
    auto y = new_y();
    auto z = new_z();
    MutexLock hold_y(*y);
    MutexLock hold_z(*z);
  }).join();
  EXPECT_TRUE(RecordedViolations::All().empty());
  std::thread([&] {
    auto z = new_z();
    auto x = new_x();
    MutexLock hold_z(*z);
    MutexLock hold_x(*x);  // Closes x -> y -> z -> x over the classes.
  }).join();
  EXPECT_TRUE(AnyViolationContains("rank-inversion", "test.dbg.tri_x"));
  EXPECT_TRUE(AnyViolationContains("rank-inversion", "test.dbg.tri_z"));
}

TEST(LockOrderTest, OrderedNestingRecordsEdgesWithoutViolations) {
  HandlerScope scope;
  auto low = NewMutex(LSI_LOCK_RANK("test.dbg.nest_low", 50));
  auto high = NewMutex(LSI_LOCK_RANK("test.dbg.nest_high", 62));
  {
    MutexLock hold_low(*low);
    MutexLock hold_high(*high);
  }
  EXPECT_TRUE(RecordedViolations::All().empty());
}

TEST(LockOrderTest, CondVarWaitReacquireDoesNotFalsePositive) {
  HandlerScope scope;
  auto mu = NewMutex(LSI_LOCK_RANK("test.dbg.cv_mu", 50));
  CondVar cv;
  std::atomic<bool> ready{false};
  // Waiter blocks holding only mu; the wait drops mu from its held
  // stack and checks its re-acquire against nothing. Neither direction
  // may report: this is the refresher/prober idiom.
  std::thread waiter([&] {
    MutexLock lock(*mu);
    while (!ready.load()) cv.WaitFor(lock, std::chrono::milliseconds(5));
  });
  {
    MutexLock lock(*mu);
    ready.store(true);
  }
  cv.NotifyAll();
  waiter.join();
  // Timeout path of WaitFor, same thread, plus a plain Wait wakeup.
  {
    MutexLock lock(*mu);
    (void)cv.WaitFor(lock, std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(RecordedViolations::All().empty());
}

TEST(LockOrderTest, CondVarWaitHoldingLaterLockIsReported) {
  // Waiting on cv_mu (rank 50) while still holding the later lock
  // (rank 62) means the wakeup re-acquires cv_mu under it: a real
  // ordering hazard. The detector reports it as the wait begins, so the
  // child aborts before the re-acquire is ever taken. The threadsafe
  // style re-executes the binary for the child instead of forking a
  // process that has already run threads.
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectForTest(true);
        Mutex cv_mu{LSI_LOCK_RANK("test.dbg.cvh_mu", 50)};
        Mutex later{LSI_LOCK_RANK("test.dbg.cvh_later", 62)};
        CondVar cv;
        MutexLock lock(cv_mu);
        MutexLock hold_later(later);
        (void)cv.WaitFor(lock, std::chrono::milliseconds(1));
      },
      "rank inversion.*test\\.dbg\\.cvh_mu.*test\\.dbg\\.cvh_later"
      "(.|\n)*acquiring:.*dbg_test\\.cc");
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(LockOrderTest, TryLockPushesWithoutOrderingCommitment) {
  HandlerScope scope;
  auto high = NewMutex(LSI_LOCK_RANK("test.dbg.try_high", 62));
  auto low = NewMutex(LSI_LOCK_RANK("test.dbg.try_low", 50));
  high->Lock();
  // try-then-back-off against the rank order cannot deadlock and must
  // not report.
  ASSERT_TRUE(low->TryLock());
  low->Unlock();
  high->Unlock();
  EXPECT_TRUE(RecordedViolations::All().empty());
}

TEST(LockOrderTest, UnrankedMutexesAreIgnored) {
  HandlerScope scope;
  auto plain_a = NewMutex(nullptr);
  auto plain_b = NewMutex(nullptr);
  MutexLock hold_a(*plain_a);
  MutexLock hold_b(*plain_b);
  EXPECT_TRUE(RecordedViolations::All().empty());
}

TEST(LockOrderTest, DetectorOffQueryResultsAreBitIdentical) {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space",
                     analyzer.Analyze("the rocket launched toward the moon "
                                      "carrying astronauts into orbit"));
  corpus.AddDocument("cars",
                     analyzer.Analyze("the engine of the car roared as the "
                                      "automobile sped down the road"));
  corpus.AddDocument("food",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  core::LsiEngineOptions options;
  options.rank = 2;

  SetDeadlockDetectForTest(true);
  auto on_engine = core::LsiEngine::Build(corpus, options);
  ASSERT_TRUE(on_engine.ok());
  auto on_hits = on_engine->Query("rocket moon", 3);
  ASSERT_TRUE(on_hits.ok());

  SetDeadlockDetectForTest(false);
  auto off_engine = core::LsiEngine::Build(corpus, options);
  ASSERT_TRUE(off_engine.ok());
  auto off_hits = off_engine->Query("rocket moon", 3);
  ASSERT_TRUE(off_hits.ok());

  // The tracker observes lock operations but never changes scheduling
  // or arithmetic: scores must match bit for bit, not approximately.
  ASSERT_EQ(on_hits->size(), off_hits->size());
  for (std::size_t i = 0; i < on_hits->size(); ++i) {
    EXPECT_EQ((*on_hits)[i].document, (*off_hits)[i].document);
    EXPECT_EQ((*on_hits)[i].document_name, (*off_hits)[i].document_name);
    EXPECT_EQ((*on_hits)[i].score, (*off_hits)[i].score);
  }
}

}  // namespace
}  // namespace lsi::dbg
