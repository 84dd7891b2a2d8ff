#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/engine.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "text/analyzer.h"

namespace lsi::live {
namespace {

// Prefixed with the running test's name: ctest runs each test as its own
// process, in parallel, so fixed names would race across tests.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

text::Corpus BaseCorpus() {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space1",
                     analyzer.Analyze("the rocket launched toward the moon "
                                      "carrying astronauts into orbit"));
  corpus.AddDocument("space2",
                     analyzer.Analyze("astronauts aboard the orbit station "
                                      "watched the moon and the stars"));
  corpus.AddDocument("cars1",
                     analyzer.Analyze("the engine of the car roared as the "
                                      "automobile sped down the road"));
  corpus.AddDocument("cars2",
                     analyzer.Analyze("mechanics repaired the engine and "
                                      "the brakes of the old automobile"));
  corpus.AddDocument("food1",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  corpus.AddDocument("food2",
                     analyzer.Analyze("bake the bread with garlic butter "
                                      "and serve with pasta and sauce"));
  return corpus;
}

LiveOptions SmallOptions() {
  LiveOptions options;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  options.background_refresh = false;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

/// The scripted write workload every torture scenario runs: a mix of
/// all three ops, indexed so scenarios can fault any step.
struct ScriptedWrite {
  WalOp op;
  const char* name;
  const char* text;
};

const std::vector<ScriptedWrite>& Workload() {
  static const std::vector<ScriptedWrite>* const workload =
      new std::vector<ScriptedWrite>{
          {WalOp::kAdd, "w1", "a telescope watched the moon orbit"},
          {WalOp::kUpdate, "cars1", "the electric motor hummed in the car"},
          {WalOp::kDelete, "food2", ""},
          {WalOp::kAdd, "w2", "fresh basil pesto over hot pasta"},
          {WalOp::kUpdate, "w1", "the telescope tracked a distant comet"},
      };
  return *workload;
}

Result<WriteReceipt> RunWrite(LiveEngine& live, const ScriptedWrite& write) {
  switch (write.op) {
    case WalOp::kAdd:
      return live.Add(write.name, write.text);
    case WalOp::kDelete:
      return live.Delete(write.name);
    case WalOp::kUpdate:
      return live.Update(write.name, write.text);
  }
  return Status::Internal("unknown op");
}

/// The acceptance invariant, checked by serializing the published
/// engine: after a restart + replay, the live index is byte-identical
/// to one that executed exactly `acked` writes without any fault.
void ExpectReplayMatchesAckedPrefix(const std::string& wal_path,
                                    std::size_t acked,
                                    const std::string& label) {
  // Reference: a pristine run over the acknowledged prefix, no faults.
  const std::string ref_wal = TempPath("torture_ref.log");
  std::remove(ref_wal.c_str());
  std::string reference_bytes;
  {
    auto ref = LiveEngine::Open(BaseCorpus(), ref_wal, SmallOptions());
    ASSERT_TRUE(ref.ok()) << label << ": " << ref.status().ToString();
    for (std::size_t i = 0; i < acked; ++i) {
      auto receipt = RunWrite(**ref, Workload()[i]);
      ASSERT_TRUE(receipt.ok()) << label;
    }
    const std::string ref_engine = TempPath("torture_ref_engine.bin");
    ASSERT_TRUE((*ref)->Snapshot()->Save(ref_engine).ok()) << label;
    reference_bytes = ReadFileBytes(ref_engine);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  // Survivor: restart over the faulted WAL.
  auto survivor = LiveEngine::Open(BaseCorpus(), wal_path, SmallOptions());
  ASSERT_TRUE(survivor.ok()) << label << ": " << survivor.status().ToString();
  EXPECT_EQ((*survivor)->stats().wal_records, acked) << label;
  const std::string survivor_engine = TempPath("torture_survivor_engine.bin");
  ASSERT_TRUE((*survivor)->Snapshot()->Save(survivor_engine).ok()) << label;
  EXPECT_EQ(ReadFileBytes(survivor_engine), reference_bytes) << label;
  ASSERT_TRUE((*survivor)->Close().ok());
}

/// The live.* fault points that write 3 of the workload executes. A
/// first clean pass registers every point the workload reaches; a
/// second one arms each registered live.* point on a schedule that
/// never fires and keeps the points whose hit counters moved during
/// write 3. Points registered earlier in the process by writes this
/// workload never makes (e.g. autocompaction) are left out.
std::vector<std::string> PointsHitByWrite3() {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  std::vector<std::string> hit;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string wal = TempPath("torture_prime.log");
    std::remove(wal.c_str());
    auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
    EXPECT_TRUE(live.ok());
    if (!live.ok()) return {};
    std::vector<std::pair<fault::FaultPoint*, std::uint64_t>> before;
    for (std::size_t i = 0; i < Workload().size(); ++i) {
      if (pass == 1 && i == 2) {
        for (const std::string& name : faults.PointNames()) {
          if (name.rfind("live.", 0) != 0) continue;
          fault::FaultPoint* point = faults.Find(name);
          point->Arm({fault::Trigger::kAfterN, ~std::uint64_t{0}});
          before.emplace_back(point, point->hits());
        }
      }
      EXPECT_TRUE(RunWrite(**live, Workload()[i]).ok());
      if (pass == 1 && i == 2) {
        for (const auto& [point, hits] : before) {
          if (point->hits() > hits) hit.push_back(point->name());
          point->Disarm();
        }
      }
    }
    EXPECT_TRUE((*live)->Close().ok());
  }
  return hit;
}

/// For EVERY live.* fault point that write 3 of the workload executes,
/// injecting a failure into that write must (a) surface an error to it
/// (never a lost ack) and (b) leave a WAL whose replay reproduces
/// exactly the acknowledged records. The loop is driven by the
/// registry's hit counters, so a live fault point added later on the
/// write path is tortured automatically.
TEST(LiveTortureTest, EveryLiveFaultPointRecoversToAckedRecords) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();

  // Startup and refresh points (live.wal.open, live.wal.replay,
  // live.refresh.build) never run inside a write; they get dedicated
  // scenarios below.
  const std::vector<std::string> points = PointsHitByWrite3();
  EXPECT_FALSE(points.empty());
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    const std::string wal = TempPath("torture_" + point + ".log");
    std::remove(wal.c_str());

    std::size_t acked = 0;
    {
      auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      // Two clean writes, then arm the point so write #3 trips it.
      for (std::size_t i = 0; i < Workload().size(); ++i) {
        if (i == 2) {
          ASSERT_TRUE(faults.ArmFromString(point + "=once@1").ok());
        }
        auto receipt = RunWrite(**live, Workload()[i]);
        if (i == 2) {
          EXPECT_FALSE(receipt.ok())
              << point << " did not inject into write 3";
          faults.Disarm(point);
          continue;  // Unacknowledged: the workload moves on without it.
        }
        ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
        ++acked;
      }
      ASSERT_TRUE((*live)->Close().ok());
    }
    faults.DisarmAll();

    // Write 3 (a delete) was refused, so the acked run is the workload
    // minus it; replay must reconstruct exactly that.
    const std::string ref_wal = TempPath("torture_pref_" + point + ".log");
    std::remove(ref_wal.c_str());
    std::string reference_bytes;
    {
      auto ref = LiveEngine::Open(BaseCorpus(), ref_wal, SmallOptions());
      ASSERT_TRUE(ref.ok());
      for (std::size_t i = 0; i < Workload().size(); ++i) {
        if (i == 2) continue;
        ASSERT_TRUE(RunWrite(**ref, Workload()[i]).ok());
      }
      const std::string ref_engine = TempPath("torture_pref_engine.bin");
      ASSERT_TRUE((*ref)->Snapshot()->Save(ref_engine).ok());
      reference_bytes = ReadFileBytes(ref_engine);
      ASSERT_TRUE((*ref)->Close().ok());
    }
    auto survivor = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    EXPECT_EQ((*survivor)->stats().wal_records, acked);
    const std::string survivor_engine =
        TempPath("torture_surv_engine.bin");
    ASSERT_TRUE((*survivor)->Snapshot()->Save(survivor_engine).ok());
    EXPECT_EQ(ReadFileBytes(survivor_engine), reference_bytes);
    ASSERT_TRUE((*survivor)->Close().ok());
  }
}

/// A crash cut mid-append (simulated by the sync fault, which leaves
/// the record bytes unsynced and clips them) recovers to the acked
/// prefix even when the process dies instead of rolling back cleanly.
TEST(LiveTortureTest, KillAtSyncRecoversAckedPrefix) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();
  const std::string wal = TempPath("torture_kill_sync.log");
  std::remove(wal.c_str());
  {
    auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(RunWrite(**live, Workload()[0]).ok());
    ASSERT_TRUE(RunWrite(**live, Workload()[1]).ok());
    ASSERT_TRUE(faults.ArmFromString("live.wal.sync=once@1").ok());
    EXPECT_FALSE(RunWrite(**live, Workload()[2]).ok());
    faults.DisarmAll();
    // Abandon without Close(): the FileHandle closes but nothing else
    // is flushed — as close to kill -9 as a unit test gets.
  }
  ExpectReplayMatchesAckedPrefix(wal, 2, "kill at sync");
}

TEST(LiveTortureTest, FaultedRefreshKeepsServingOldSnapshot) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();
  const std::string wal = TempPath("torture_refresh_fault.log");
  std::remove(wal.c_str());
  auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(RunWrite(**live, Workload()[0]).ok());
  auto before = (*live)->Snapshot();

  ASSERT_TRUE(faults.ArmFromString("live.refresh.build=once@1").ok());
  EXPECT_FALSE((*live)->ForceRefresh().ok());
  faults.DisarmAll();

  // The failed refresh is invisible to readers and recoverable.
  EXPECT_EQ((*live)->Snapshot().get(), before.get());
  EXPECT_EQ((*live)->stats().refresh_failures, 1u);
  EXPECT_TRUE((*live)->ForceRefresh().ok());
  EXPECT_EQ((*live)->stats().refreshes, 1u);
  ASSERT_TRUE((*live)->Close().ok());
}

TEST(LiveTortureTest, FaultedOpenSurfacesErrorCleanly) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();
  const std::string wal = TempPath("torture_open_fault.log");
  std::remove(wal.c_str());
  ASSERT_TRUE(faults.ArmFromString("live.wal.open=once@1").ok());
  auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
  faults.DisarmAll();
  EXPECT_FALSE(live.ok());
  // And a clean retry works.
  auto retried = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE((*retried)->Close().ok());
}

TEST(LiveTortureTest, FaultedReplaySurfacesErrorCleanly) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();
  const std::string wal = TempPath("torture_replay_fault.log");
  std::remove(wal.c_str());
  {
    auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(RunWrite(**live, Workload()[0]).ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  ASSERT_TRUE(faults.ArmFromString("live.wal.replay=once@1").ok());
  auto live = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
  faults.DisarmAll();
  EXPECT_FALSE(live.ok());
  ExpectReplayMatchesAckedPrefix(wal, 1, "faulted replay retry");
}

/// Queries racing writes and a mid-flight re-SVD swap: every query must
/// succeed, and the engine left standing must be bit-identical to a
/// fresh build over the same compacted corpus (run under
/// LSI_SIMD=scalar by the ctest environment for exact reproducibility).
TEST(LiveTortureTest, ConcurrentQueriesDuringWritesAndRefresh) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();
  const std::string wal = TempPath("torture_concurrent.log");
  std::remove(wal.c_str());
  auto opened = LiveEngine::Open(BaseCorpus(), wal, SmallOptions());
  ASSERT_TRUE(opened.ok());
  LiveEngine& live = **opened;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries_ok{0};
  std::atomic<std::size_t> queries_failed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&live, &stop, &queries_ok, &queries_failed] {
      const char* probes[] = {"astronauts moon orbit", "garlic pasta",
                              "engine automobile"};
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = live.Snapshot();
        auto hits = snapshot->Query(probes[i++ % 3], 5);
        if (hits.ok() && !hits->empty()) {
          queries_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          queries_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: the scripted workload plus refreshes racing the readers.
  for (const ScriptedWrite& w : Workload()) {
    ASSERT_TRUE(RunWrite(live, w).ok());
    ASSERT_TRUE(live.ForceRefresh().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(queries_ok.load(), 0u);
  EXPECT_EQ(queries_failed.load(), 0u);

  // Determinism: the post-race engine equals a fresh build over the
  // compacted corpus the refresh saw (byte-identical serialized form).
  text::Corpus accumulated = BaseCorpus();
  text::Analyzer analyzer;
  // Arrival order of adds: w1, cars1', w2, w1' (see Workload()).
  accumulated.AddDocument(
      "w1", analyzer.Analyze("a telescope watched the moon orbit"));
  accumulated.AddDocument(
      "cars1", analyzer.Analyze("the electric motor hummed in the car"));
  accumulated.AddDocument(
      "w2", analyzer.Analyze("fresh basil pesto over hot pasta"));
  accumulated.AddDocument(
      "w1", analyzer.Analyze("the telescope tracked a distant comet"));
  //                 space1 space2 cars1 cars2 food1 food2 w1 cars1' w2 w1'
  std::vector<std::uint8_t> alive = {1, 1, 0, 1, 1, 0, 0, 1, 1, 1};
  auto reference =
      core::LsiEngine::Build(CompactCorpus(accumulated, alive),
                             SmallOptions().engine);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string ref_path = TempPath("torture_conc_ref.bin");
  const std::string got_path = TempPath("torture_conc_got.bin");
  ASSERT_TRUE(reference->Save(ref_path).ok());
  ASSERT_TRUE(live.Snapshot()->Save(got_path).ok());
  EXPECT_EQ(ReadFileBytes(got_path), ReadFileBytes(ref_path));
  ASSERT_TRUE(live.Close().ok());
}

}  // namespace
}  // namespace lsi::live
