#include "live/live_engine.h"

#include <algorithm>
#include <utility>

#include "common/fault.h"
#include "live/compact.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lsi::live {
namespace {

bool ContainsAny(const std::string& s, const char* chars) {
  return s.find_first_of(chars) != std::string::npos;
}

/// The metrics every acknowledged write touches, resolved once.
struct WriteMetrics {
  obs::Counter& publishes;
  obs::Gauge& epoch;
  obs::Gauge& drift_mean;
  obs::Counter& adds;
  obs::Counter& deletes;
  obs::Counter& updates;

  obs::Counter& OpCounter(WalOp op) const {
    switch (op) {
      case WalOp::kAdd:
        return adds;
      case WalOp::kDelete:
        return deletes;
      case WalOp::kUpdate:
        break;
    }
    return updates;
  }
};

const WriteMetrics& Metrics() {
  static const WriteMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return WriteMetrics{registry.GetCounter("lsi.live.publishes"),
                        registry.GetGauge("lsi.live.epoch"),
                        registry.GetGauge("lsi.live.drift_mean_radians"),
                        registry.GetCounter("lsi.live.adds"),
                        registry.GetCounter("lsi.live.deletes"),
                        registry.GetCounter("lsi.live.updates")};
  }();
  return metrics;
}

}  // namespace

text::Corpus CompactCorpus(const text::Corpus& corpus,
                           const std::vector<std::uint8_t>& alive) {
  text::Corpus compacted;
  for (std::size_t i = 0; i < corpus.NumDocuments(); ++i) {
    if (i < alive.size() && alive[i] == 0) continue;
    const text::Document& doc = corpus.document(i);
    std::vector<std::string> tokens;
    tokens.reserve(doc.Length());
    for (const auto& [term, count] : doc.counts()) {
      for (std::size_t c = 0; c < count; ++c) {
        tokens.push_back(corpus.vocabulary().TermOf(term));
      }
    }
    compacted.AddDocument(doc.name(), tokens);
  }
  return compacted;
}

LiveEngine::LiveEngine(LiveOptions options) : options_(std::move(options)) {}

LiveEngine::~LiveEngine() { (void)Close(); }

Result<std::unique_ptr<LiveEngine>> LiveEngine::Open(
    text::Corpus base_corpus, const std::string& wal_path,
    LiveOptions options) {
  if (base_corpus.NumDocuments() == 0 || base_corpus.NumTerms() == 0) {
    return Status::InvalidArgument("live: empty base corpus");
  }
  options.publish_every = std::max<std::size_t>(1, options.publish_every);
  obs::ScopedSpan span("live.open");

  LSI_ASSIGN_OR_RETURN(core::LsiEngine base,
                       core::LsiEngine::Build(base_corpus, options.engine));
  std::unique_ptr<LiveEngine> live(new LiveEngine(std::move(options)));
  {
    MutexLock lock(live->write_mutex_);
    live->corpus_ = std::move(base_corpus);
    const std::size_t base_documents = live->corpus_.NumDocuments();
    live->alive_.assign(base_documents, 1);
    live->doc_corpus_.resize(base_documents);
    for (std::size_t i = 0; i < base_documents; ++i) {
      live->doc_corpus_[i] = i;
      live->by_name_[live->corpus_.document(i).name()].push_back(i);
    }
    {
      MutexLock snapshot_lock(live->snapshot_mutex_);
      live->snapshot_ = std::make_shared<core::LsiEngine>(std::move(base));
    }
    live->wal_path_ = wal_path;
    LSI_ASSIGN_OR_RETURN(live->wal_, Wal::Open(wal_path, base_documents));

    // Replay through the exact path live writes take, then publish the
    // result as one epoch: a restarted engine is byte-identical to the
    // one that kept running.
    for (const WalRecord& record : live->wal_->replayed()) {
      Result<WriteReceipt> applied = live->ApplyLocked(record);
      if (!applied.ok()) {
        return Status::Internal("live: wal replay failed at record " +
                                std::to_string(record.seq) + ": " +
                                applied.status().message());
      }
      ++live->unpublished_;
    }
    if (live->unpublished_ > 0) live->PublishLocked();
  }
  if (live->options_.background_refresh) {
    live->refresher_ = std::thread(&LiveEngine::RefresherLoop, live.get());
  }
  return live;
}

std::shared_ptr<const core::LsiEngine> LiveEngine::SnapshotInternal() const {
  MutexLock lock(snapshot_mutex_);
  return snapshot_;
}

std::shared_ptr<const core::LsiEngine> LiveEngine::Snapshot() const {
  return SnapshotInternal();
}

Status LiveEngine::ValidateWrite(WalOp op, const std::string& name,
                                 const std::string& text) const {
  if (name.empty()) {
    return Status::InvalidArgument("live: document name must be non-empty");
  }
  if (name.size() > kWalMaxNameBytes) {
    return Status::InvalidArgument("live: document name too large");
  }
  if (ContainsAny(name, "\t\n\r")) {
    return Status::InvalidArgument(
        "live: document name must not contain tabs or newlines");
  }
  if (text.size() > kWalMaxTextBytes) {
    return Status::InvalidArgument("live: document text too large");
  }
  if (ContainsAny(text, "\n\r")) {
    return Status::InvalidArgument(
        "live: document text must not contain newlines");
  }
  if (op == WalOp::kDelete && !text.empty()) {
    return Status::InvalidArgument("live: delete carries no text");
  }
  return Status::OK();
}

void LiveEngine::EnsurePendingLocked() {
  if (pending_ != nullptr) return;
  std::shared_ptr<const core::LsiEngine> current = SnapshotInternal();
  pending_ = std::make_unique<core::LsiEngine>(*current);
}

void LiveEngine::PublishLocked() {
  unpublished_ = 0;
  if (pending_ == nullptr) return;
  std::shared_ptr<const core::LsiEngine> next(std::move(pending_));
  {
    MutexLock lock(snapshot_mutex_);
    snapshot_ = std::move(next);
  }
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  ++publishes_;
  Metrics().publishes.Increment();
  Metrics().epoch.Set(static_cast<double>(epoch));
}

Result<WriteReceipt> LiveEngine::ApplyLocked(const WalRecord& record) {
  WriteReceipt receipt;
  receipt.seq = record.seq;

  // Delete half (kDelete always; kUpdate when the name exists).
  if (record.op == WalOp::kDelete || record.op == WalOp::kUpdate) {
    auto it = by_name_.find(record.name);
    if (it == by_name_.end()) {
      if (record.op == WalOp::kDelete) {
        return Status::NotFound("live: no document named " + record.name);
      }
    } else {
      EnsurePendingLocked();
      for (std::size_t id : it->second) {
        LSI_RETURN_IF_ERROR(pending_->RemoveDocument(id));
        alive_[doc_corpus_[id]] = 0;
        ++tombstones_;
      }
      receipt.removed = it->second.size();
      by_name_.erase(it);
    }
  }

  // Add half (kAdd always; kUpdate's replacement document).
  if (record.op == WalOp::kAdd || record.op == WalOp::kUpdate) {
    EnsurePendingLocked();
    LSI_ASSIGN_OR_RETURN(core::LsiEngine::FoldInResult fold,
                         pending_->FoldInDocument(record.name, record.text));
    const std::size_t corpus_index =
        corpus_.AddDocument(record.name, analyzer_.Analyze(record.text));
    alive_.push_back(1);
    doc_corpus_.push_back(corpus_index);
    by_name_[record.name].push_back(fold.document);
    drift_sum_ += fold.residual_angle;
    drift_max_ = std::max(drift_max_, fold.residual_angle);
    ++drift_count_;
    ++folded_since_refresh_;
    receipt.document = fold.document;
    if (refresh_in_progress_) {
      refresh_delta_.push_back(
          {record.op, record.name, record.text, corpus_index});
    }
  } else if (refresh_in_progress_) {
    refresh_delta_.push_back({record.op, record.name, std::string(), 0});
  }
  return receipt;
}

Result<WriteReceipt> LiveEngine::Write(WalOp op, const std::string& name,
                                       const std::string& text) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  MutexLock lock(write_mutex_);
  if (closed_) return Status::FailedPrecondition("live: engine is closed");
  if (wal_ == nullptr) {
    // A failed autocompact could not re-open any WAL; without a log
    // there is no durability, so writes must fail loudly.
    return Status::FailedPrecondition(
        "live: WAL unavailable (autocompact recovery failed)");
  }
  LSI_RETURN_IF_ERROR(ValidateWrite(op, name, text));
  if (op == WalOp::kDelete && by_name_.find(name) == by_name_.end()) {
    // Refuse before logging: the WAL holds only writes that apply.
    return Status::NotFound("live: no document named " + name);
  }

  LSI_ASSIGN_OR_RETURN(std::uint64_t seq, wal_->Append(op, name, text));
  if (LSI_FAULT_POINT("live.publish")) {
    // Simulated crash between the WAL append and the apply/publish: the
    // caller gets an error (never an ack), so the record must not
    // survive to replay — clip it back off the log.
    Status aborted = wal_->AbortLast();
    if (!aborted.ok()) return aborted;
    registry.GetCounter("lsi.live.write_errors").Increment();
    return fault::InjectedFailure("live.publish");
  }

  WalRecord record;
  record.op = op;
  record.seq = seq;
  record.name = name;
  record.text = text;
  Result<WriteReceipt> receipt = ApplyLocked(record);
  if (!receipt.ok()) {
    Status aborted = wal_->AbortLast();
    if (!aborted.ok()) return aborted;
    registry.GetCounter("lsi.live.write_errors").Increment();
    return receipt.status();
  }

  ++unpublished_;
  if (unpublished_ >= options_.publish_every) PublishLocked();
  receipt->epoch = epoch_.load(std::memory_order_acquire) +
                   (unpublished_ > 0 ? 1 : 0);
  Metrics().OpCounter(op).Increment();
  MaybeAutoCompactLocked();
  if (drift_count_ > 0) {
    Metrics().drift_mean.Set(drift_sum_ / static_cast<double>(drift_count_));
  }
  return receipt;
}

void LiveEngine::MaybeAutoCompactLocked() {
  if (options_.corpus_path.empty() || wal_ == nullptr) return;
  const bool over_bytes =
      options_.wal_compact_bytes != 0 &&
      wal_->committed_bytes() >= options_.wal_compact_bytes;
  const bool over_ops = options_.wal_compact_ops != 0 &&
                        wal_->record_count() >= options_.wal_compact_ops;
  if (!over_bytes && !over_ops) return;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (LSI_FAULT_POINT("live.wal.autocompact")) {
    // Simulated compaction failure before any file is touched: the
    // acknowledged write that tripped the threshold stays acknowledged;
    // only the compaction is skipped (and will re-arm on the next
    // write, since the log is still over the threshold).
    registry.GetCounter("lsi.live.wal.autocompact_failures").Increment();
    return;
  }

  // The WAL must be closed while CompactLive replays and resets the
  // file underneath it. The write lock is held throughout, so no other
  // writer can observe the gap.
  const std::uint64_t old_base = wal_->base_documents();
  const Status closed = wal_->Close();
  wal_.reset();

  Result<CompactStats> compacted =
      closed.ok() ? CompactLive(options_.corpus_path, wal_path_)
                  : Result<CompactStats>(closed);
  const std::uint64_t new_base =
      compacted.ok() ? compacted->output_documents : old_base;
  Result<std::unique_ptr<Wal>> reopened = Wal::Open(wal_path_, new_base);
  if (!reopened.ok() && !compacted.ok()) {
    // A compact that died between the corpus rewrite and the WAL reset
    // leaves a new corpus paired with the old log; re-pin a fresh log
    // to whatever document count the corpus actually holds (its records
    // are already folded into the corpus when this state arises).
    Result<std::size_t> count = CountTsvDocuments(options_.corpus_path);
    if (count.ok() && ResetWal(options_.corpus_path, wal_path_).ok()) {
      reopened = Wal::Open(wal_path_, static_cast<std::uint64_t>(*count));
    }
  }
  if (reopened.ok()) wal_ = std::move(*reopened);

  if (compacted.ok() && reopened.ok()) {
    ++autocompacts_;
    registry.GetCounter("lsi.live.wal.autocompact").Increment();
  } else {
    registry.GetCounter("lsi.live.wal.autocompact_failures").Increment();
  }
}

Result<WriteReceipt> LiveEngine::Add(const std::string& name,
                                     const std::string& text) {
  return Write(WalOp::kAdd, name, text);
}

Result<WriteReceipt> LiveEngine::Delete(const std::string& name) {
  return Write(WalOp::kDelete, name, std::string());
}

Result<WriteReceipt> LiveEngine::Update(const std::string& name,
                                        const std::string& text) {
  return Write(WalOp::kUpdate, name, text);
}

Status LiveEngine::Flush() {
  MutexLock lock(write_mutex_);
  if (closed_) return Status::FailedPrecondition("live: engine is closed");
  PublishLocked();
  return Status::OK();
}

bool LiveEngine::ShouldRefreshLocked() const {
  if (closed_ || refresh_in_progress_) return false;
  if (options_.drift_threshold_radians > 0.0 && drift_count_ > 0) {
    const double mean = drift_sum_ / static_cast<double>(drift_count_);
    if (mean > options_.drift_threshold_radians) return true;
  }
  if (options_.max_folded_fraction > 0.0 && folded_since_refresh_ > 0) {
    const double total = static_cast<double>(doc_corpus_.size());
    if (static_cast<double>(folded_since_refresh_) >
        options_.max_folded_fraction * total) {
      return true;
    }
  }
  return false;
}

// Lock order across the three phases follows the live band of
// src/common/lock_ranks.h strictly upward: refresh (20) is never held
// here (RefresherLoop drops it before calling in), phase 1 and 3 take
// write (24), and the publish swap nests snapshot (28) inside write —
// the same write -> snapshot order Open() uses. LSI_DEADLOCK_DETECT=1
// checks this on every refresh.
Status LiveEngine::RunRefresh() {
  obs::ScopedSpan span("live.refresh");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  // Phase 1 (write lock): freeze the rebuild input. Everything
  // acknowledged so far is in corpus_/alive_; writes from here on are
  // journaled into refresh_delta_ by ApplyLocked.
  text::Corpus rebuild;
  std::vector<std::size_t> rebuild_corpus_indices;
  {
    MutexLock lock(write_mutex_);
    if (closed_) return Status::FailedPrecondition("live: engine is closed");
    if (refresh_in_progress_) {
      return Status::FailedPrecondition("live: refresh already in progress");
    }
    PublishLocked();
    rebuild = CompactCorpus(corpus_, alive_);
    for (std::size_t i = 0; i < corpus_.NumDocuments(); ++i) {
      if (alive_[i] != 0) rebuild_corpus_indices.push_back(i);
    }
    if (rebuild.NumDocuments() == 0) {
      return Status::FailedPrecondition(
          "live: refresh needs at least one live document");
    }
    refresh_in_progress_ = true;
    refresh_delta_.clear();
  }

  // Phase 2 (NO lock): the expensive SVD. Queries keep hitting the old
  // snapshot; writes keep folding into pending epochs.
  Status built = Status::OK();
  std::unique_ptr<core::LsiEngine> fresh;
  if (LSI_FAULT_POINT("live.refresh.build")) {
    built = fault::InjectedFailure("live.refresh.build");
  } else {
    Result<core::LsiEngine> rebuilt =
        core::LsiEngine::Build(rebuild, options_.engine);
    if (rebuilt.ok()) {
      fresh = std::make_unique<core::LsiEngine>(*std::move(rebuilt));
    } else {
      built = rebuilt.status();
    }
  }

  // Phase 3 (write lock): replay the journal onto the fresh engine,
  // rebuild the id maps, swap it in.
  MutexLock lock(write_mutex_);
  if (!built.ok() || closed_) {
    refresh_in_progress_ = false;
    refresh_delta_.clear();
    if (built.ok()) return Status::FailedPrecondition("live: engine closed");
    ++refresh_failures_;
    registry.GetCounter("lsi.live.refresh_failures").Increment();
    return built;
  }

  std::vector<std::size_t> doc_corpus = rebuild_corpus_indices;
  std::unordered_map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t e = 0; e < doc_corpus.size(); ++e) {
    by_name[corpus_.document(doc_corpus[e]).name()].push_back(e);
  }
  double drift_sum = 0.0;
  double drift_max = 0.0;
  std::size_t drift_count = 0;
  for (const DeltaOp& delta : refresh_delta_) {
    if (delta.op == WalOp::kDelete || delta.op == WalOp::kUpdate) {
      auto it = by_name.find(delta.name);
      if (it != by_name.end()) {
        for (std::size_t id : it->second) {
          LSI_RETURN_IF_ERROR(fresh->RemoveDocument(id));
        }
        by_name.erase(it);
      }
    }
    if (delta.op == WalOp::kAdd || delta.op == WalOp::kUpdate) {
      LSI_ASSIGN_OR_RETURN(core::LsiEngine::FoldInResult fold,
                           fresh->FoldInDocument(delta.name, delta.text));
      doc_corpus.push_back(delta.corpus_index);
      by_name[delta.name].push_back(fold.document);
      drift_sum += fold.residual_angle;
      drift_max = std::max(drift_max, fold.residual_angle);
      ++drift_count;
    }
  }

  doc_corpus_ = std::move(doc_corpus);
  by_name_ = std::move(by_name);
  tombstones_ = fresh->index().NumDeleted();
  pending_.reset();
  unpublished_ = 0;
  drift_sum_ = drift_sum;
  drift_max_ = drift_max;
  drift_count_ = drift_count;
  folded_since_refresh_ = drift_count;
  refresh_delta_.clear();
  refresh_in_progress_ = false;
  ++refreshes_;

  std::shared_ptr<const core::LsiEngine> next(std::move(fresh));
  {
    MutexLock snapshot_lock(snapshot_mutex_);
    snapshot_ = std::move(next);
  }
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  registry.GetCounter("lsi.live.refreshes").Increment();
  Metrics().epoch.Set(static_cast<double>(epoch));
  Metrics().drift_mean.Set(
      drift_count > 0 ? drift_sum / static_cast<double>(drift_count) : 0.0);
  return Status::OK();
}

Status LiveEngine::ForceRefresh() { return RunRefresh(); }

void LiveEngine::RefresherLoop() {
  MutexLock lock(refresh_mutex_);
  while (!stop_refresher_) {
    refresh_cv_.WaitFor(lock, options_.refresh_interval);
    if (stop_refresher_) break;
    lock.Unlock();
    bool wanted = false;
    {
      MutexLock write_lock(write_mutex_);
      wanted = ShouldRefreshLocked();
    }
    // Failures are counted in lsi.live.refresh_failures; the old
    // snapshot keeps serving, and the next tick retries.
    if (wanted) (void)RunRefresh();
    lock.Lock();
  }
}

Status LiveEngine::Close() {
  {
    MutexLock lock(refresh_mutex_);
    stop_refresher_ = true;
    refresh_cv_.NotifyAll();
  }
  if (refresher_.joinable()) refresher_.join();

  MutexLock lock(write_mutex_);
  if (closed_) return Status::OK();
  closed_ = true;
  PublishLocked();
  // A half-opened engine (Wal::Open or replay failed) has no log to close.
  return wal_ != nullptr ? wal_->Close() : Status::OK();
}

LiveStats LiveEngine::stats() const {
  LiveStats stats;
  MutexLock lock(write_mutex_);
  stats.epoch = epoch_.load(std::memory_order_acquire);
  stats.wal_records = wal_ != nullptr ? wal_->record_count() : 0;
  stats.documents = static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), std::uint8_t{1}));
  stats.tombstones = tombstones_;
  stats.folded_since_refresh = folded_since_refresh_;
  stats.pending_writes = unpublished_;
  stats.drift_mean_radians =
      drift_count_ > 0 ? drift_sum_ / static_cast<double>(drift_count_) : 0.0;
  stats.drift_max_radians = drift_max_;
  stats.publishes = publishes_;
  stats.refreshes = refreshes_;
  stats.refresh_failures = refresh_failures_;
  stats.autocompacts = autocompacts_;
  stats.refresh_in_progress = refresh_in_progress_;
  return stats;
}

}  // namespace lsi::live
