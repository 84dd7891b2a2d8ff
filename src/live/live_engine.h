#ifndef LSI_LIVE_LIVE_ENGINE_H_
#define LSI_LIVE_LIVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "live/wal.h"
#include "text/analyzer.h"
#include "text/corpus.h"

namespace lsi::live {

/// Tuning for a LiveEngine.
struct LiveOptions {
  /// Build options for the base index and every background re-SVD.
  core::LsiEngineOptions engine;

  /// Writes per snapshot publish. 1 means every acknowledged write is
  /// immediately visible to queries; larger values amortize the
  /// copy-on-write clone across a batch (writes stay durable the moment
  /// they are acknowledged — publishing only delays visibility).
  std::size_t publish_every = 1;

  /// Mean fold-in residual angle (radians) past which the refresher
  /// re-runs the SVD. <= 0 disables the drift trigger.
  double drift_threshold_radians = 0.35;

  /// How often the background refresher wakes to check the triggers.
  std::chrono::milliseconds refresh_interval{2000};

  /// Run the refresher thread. Disable in tests that want to drive
  /// refreshes deterministically via ForceRefresh().
  bool background_refresh = true;

  /// Path of the corpus.tsv this engine's base corpus was loaded from.
  /// Required for WAL autocompaction (CompactLive rewrites it in
  /// place); empty disables autocompaction regardless of thresholds.
  std::string corpus_path;

  /// WAL committed-byte threshold past which an acknowledged write
  /// triggers an in-process CompactLive (fold the WAL into corpus.tsv,
  /// reset the log). 0 — the default — disables the byte trigger.
  std::uint64_t wal_compact_bytes = 0;

  /// Same trigger on WAL record count. 0 disables it.
  std::uint64_t wal_compact_ops = 0;
};

/// What a successful write returns.
struct WriteReceipt {
  /// WAL sequence number — the write's durable identity.
  std::uint64_t seq = 0;
  /// Engine document id (adds/updates; 0 for pure deletes).
  std::size_t document = 0;
  /// Documents tombstoned (deletes, and the replaced copies on update).
  std::size_t removed = 0;
  /// Epoch in which the write is (or will become) visible to queries.
  std::uint64_t epoch = 0;
};

/// A point-in-time summary for /statusz and tests.
struct LiveStats {
  std::uint64_t epoch = 0;
  std::uint64_t wal_records = 0;
  std::size_t documents = 0;         ///< Searchable (non-tombstoned) docs.
  std::size_t tombstones = 0;
  std::size_t folded_since_refresh = 0;
  std::size_t pending_writes = 0;    ///< Acknowledged but not yet published.
  double drift_mean_radians = 0.0;
  double drift_max_radians = 0.0;
  std::uint64_t publishes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t refresh_failures = 0;
  std::uint64_t autocompacts = 0;
  bool refresh_in_progress = false;
};

/// The corpus a rebuild runs over: the live (non-tombstoned) documents
/// of `corpus` in arrival order, each document's tokens reconstructed
/// from its term counts in term-id order. Exposed so tests can build
/// the reference "fresh" engine over exactly the corpus a refresh sees.
/// An empty `alive` keeps every document.
text::Corpus CompactCorpus(const text::Corpus& corpus,
                           const std::vector<std::uint8_t>& alive);

/// An online, mutable LSI index: the build-once LsiEngine wrapped in a
/// write-ahead log, an epoch/snapshot publication scheme, and a
/// drift-triggered background re-SVD.
///
/// Concurrency model (the reason this class exists):
///   - Readers call Snapshot() and query an immutable LsiEngine through
///     a shared_ptr — a mutex acquisition that lasts one pointer copy.
///     Queries NEVER block on writers or on a running re-SVD.
///   - Writers serialize on an internal write lock. Each write is
///     (1) appended + fsynced to the WAL (the acknowledgement point),
///     (2) folded into a pending copy-on-write engine clone, and
///     (3) published by atomically swapping the snapshot pointer once
///     `publish_every` writes have accumulated.
///   - A background thread tracks the mean fold-in residual angle (the
///     paper's subspace-perturbation quantity) and, past the threshold,
///     rebuilds the SVD from the accumulated corpus WITHOUT holding the
///     write lock, then swaps the fresh engine in. Writes that land
///     during the rebuild are journaled and replayed onto the fresh
///     engine before it publishes, so nothing is lost.
///
/// Crash story: the WAL is the system of record for everything after
/// the base corpus. Open() replays it through the exact code path live
/// writes take, so a restarted engine is byte-identical (at
/// LSI_SIMD=scalar, any LSI_THREADS) to the one that never crashed —
/// containing exactly the acknowledged writes.
///
/// Fault points: live.publish, live.refresh.build (plus live.wal.* in
/// the WAL).
class LiveEngine {
 public:
  /// Builds the base index from `base_corpus` and replays the WAL at
  /// `wal_path` (created if missing) over it. `base_corpus` must be the
  /// same corpus the WAL was created against — a mismatch in document
  /// count is refused (see Wal::Open).
  static Result<std::unique_ptr<LiveEngine>> Open(text::Corpus base_corpus,
                                                  const std::string& wal_path,
                                                  LiveOptions options = {});

  ~LiveEngine();
  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// The current published engine. The returned snapshot is immutable
  /// and stays valid for as long as the caller holds it, no matter how
  /// many writes or refreshes land meanwhile.
  std::shared_ptr<const core::LsiEngine> Snapshot() const;

  /// Monotone epoch counter; bumps on every snapshot publish. Cache
  /// keys that embed it invalidate naturally.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Adds a document. `name` must be non-empty, at most kWalMaxNameBytes
  /// bytes, and free of tabs/newlines; `text` at most kWalMaxTextBytes
  /// bytes and newline-free (both survive a corpus.tsv round trip).
  /// Names need not be unique — Delete removes every document with the
  /// name, Update replaces them all.
  Result<WriteReceipt> Add(const std::string& name, const std::string& text);

  /// Tombstones every live document named `name`. NotFound (and no WAL
  /// traffic) when nothing matches.
  Result<WriteReceipt> Delete(const std::string& name);

  /// Replaces every live document named `name` with one holding `text`;
  /// an upsert when the name is absent.
  Result<WriteReceipt> Update(const std::string& name,
                              const std::string& text);

  /// Publishes any pending writes and syncs the WAL. Graceful-drain
  /// calls this so every acknowledged write is visible and durable
  /// before the process exits.
  Status Flush();

  /// Runs one synchronous rebuild-and-swap, regardless of drift.
  /// FailedPrecondition if a refresh is already running.
  Status ForceRefresh();

  /// Stops the refresher, publishes pending writes, closes the WAL.
  /// Idempotent; writes fail after. The destructor calls this too, but
  /// callers who care about the final sync status should call it
  /// explicitly.
  Status Close();

  LiveStats stats() const;

 private:
  /// One write journaled while a rebuild is in flight, replayed onto
  /// the fresh engine before it publishes.
  struct DeltaOp {
    WalOp op = WalOp::kAdd;
    std::string name;
    std::string text;
    std::size_t corpus_index = 0;  // Adds/updates: position in corpus_.
  };

  explicit LiveEngine(LiveOptions options);

  Result<WriteReceipt> Write(WalOp op, const std::string& name,
                             const std::string& text);
  Status ValidateWrite(WalOp op, const std::string& name,
                       const std::string& text) const
      LSI_REQUIRES(write_mutex_);
  Result<WriteReceipt> ApplyLocked(const WalRecord& record)
      LSI_REQUIRES(write_mutex_);
  void EnsurePendingLocked() LSI_REQUIRES(write_mutex_);
  void MaybeAutoCompactLocked() LSI_REQUIRES(write_mutex_);
  void PublishLocked() LSI_REQUIRES(write_mutex_);
  bool ShouldRefreshLocked() const LSI_REQUIRES(write_mutex_);
  Status RunRefresh();
  void RefresherLoop();
  std::shared_ptr<const core::LsiEngine> SnapshotInternal() const;

  const LiveOptions options_;
  const text::Analyzer analyzer_;

  /// Guards the published pointer only — the one lock queries touch.
  mutable Mutex snapshot_mutex_{
      LSI_LOCK_RANK("live.engine.snapshot", lock_rank::kLiveSnapshot)};
  std::shared_ptr<const core::LsiEngine> snapshot_
      LSI_GUARDED_BY(snapshot_mutex_);
  std::atomic<std::uint64_t> epoch_{0};

  /// Serializes writers, replay, refresh bookkeeping.
  mutable Mutex write_mutex_{
      LSI_LOCK_RANK("live.engine.write", lock_rank::kLiveWrite)};
  std::unique_ptr<Wal> wal_ LSI_GUARDED_BY(write_mutex_);
  /// Every document ever accepted (base + adds), in arrival order —
  /// the analyzed system of record a rebuild reconstructs from.
  text::Corpus corpus_ LSI_GUARDED_BY(write_mutex_);
  /// alive_[i] == 0 once corpus_ document i has been deleted/replaced.
  std::vector<std::uint8_t> alive_ LSI_GUARDED_BY(write_mutex_);
  /// Engine document id -> corpus_ index (engine ids compact on
  /// rebuild; this keeps them resolvable).
  std::vector<std::size_t> doc_corpus_ LSI_GUARDED_BY(write_mutex_);
  /// Live (non-tombstoned) engine ids by document name.
  std::unordered_map<std::string, std::vector<std::size_t>> by_name_
      LSI_GUARDED_BY(write_mutex_);
  /// Copy-on-write clone the next publish will swap in; null when no
  /// writes are pending.
  std::unique_ptr<core::LsiEngine> pending_ LSI_GUARDED_BY(write_mutex_);
  std::size_t unpublished_ LSI_GUARDED_BY(write_mutex_) = 0;
  double drift_sum_ LSI_GUARDED_BY(write_mutex_) = 0.0;
  double drift_max_ LSI_GUARDED_BY(write_mutex_) = 0.0;
  std::size_t drift_count_ LSI_GUARDED_BY(write_mutex_) = 0;
  std::size_t folded_since_refresh_ LSI_GUARDED_BY(write_mutex_) = 0;
  std::size_t tombstones_ LSI_GUARDED_BY(write_mutex_) = 0;
  bool refresh_in_progress_ LSI_GUARDED_BY(write_mutex_) = false;
  std::vector<DeltaOp> refresh_delta_ LSI_GUARDED_BY(write_mutex_);
  std::string wal_path_ LSI_GUARDED_BY(write_mutex_);
  std::uint64_t autocompacts_ LSI_GUARDED_BY(write_mutex_) = 0;
  std::uint64_t publishes_ LSI_GUARDED_BY(write_mutex_) = 0;
  std::uint64_t refreshes_ LSI_GUARDED_BY(write_mutex_) = 0;
  std::uint64_t refresh_failures_ LSI_GUARDED_BY(write_mutex_) = 0;
  bool closed_ LSI_GUARDED_BY(write_mutex_) = false;

  Mutex refresh_mutex_{
      LSI_LOCK_RANK("live.engine.refresh", lock_rank::kLiveRefresh)};
  CondVar refresh_cv_;
  bool stop_refresher_ LSI_GUARDED_BY(refresh_mutex_) = false;
  std::thread refresher_;
};

}  // namespace lsi::live

#endif  // LSI_LIVE_LIVE_ENGINE_H_
