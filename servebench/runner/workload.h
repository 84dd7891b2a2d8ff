// Workload definitions and their seeded inputs.
//
// Every input of a run — the corpus, the query stream and the write
// stream — comes from lsi::model's ε-separable corpus model plus the
// run's seed, so two runs with one seed send byte-identical requests
// and nothing is downloaded.

#ifndef SERVEBENCH_RUNNER_WORKLOAD_H_
#define SERVEBENCH_RUNNER_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "model/corpus_model.h"

namespace lsi::servebench {

/// One named traffic mix. The thread and client counts are part of the
/// definition: build and query times depend on them.
struct WorkloadSpec {
  std::string name;
  std::size_t documents = 0;
  std::size_t extra_terms = 0;   ///< Noise-only terms beyond the topics.
  std::size_t shards = 0;        ///< 0: one LsiService, no router.
  bool live = false;             ///< LiveEngine behind the service.
  std::size_t threads = 1;       ///< LSI_THREADS of the serving process.
  std::size_t query_clients = 1;
  std::size_t write_clients = 0;
  double repeat_share = 0.0;     ///< Expected share of repeated queries.
  /// live only: drift threshold above the corpus's steady-state mean
  /// residual angle, so refreshes are not triggered by ordinary adds.
  double drift_threshold_radians = 0.0;
};

/// The benchmark's workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

inline constexpr std::size_t kTopics = 50;
inline constexpr std::size_t kTermsPerTopic = 100;
inline constexpr std::size_t kQueryTerms = 4;
inline constexpr std::size_t kRank = 100;
inline constexpr std::size_t kTopK = 10;

/// A query of kQueryTerms primary terms of one topic.
struct PoolQuery {
  std::string text;
  std::size_t topic = 0;
};

/// The closed-loop query sequence shared by a workload's query clients.
/// Entry i is fixed by the seed and i alone: each entry is either a new
/// distinct query (probability 1 - repeat_share) or a repeat of an
/// earlier one drawn Zipf(s = 1) by first-use rank.
class QueryStream {
 public:
  QueryStream(const model::CorpusModel& model, double repeat_share,
              std::uint64_t seed);

  struct Entry {
    std::size_t pool = 0;  ///< Index into pool().
    bool repeat = false;
    PoolQuery query;
  };
  /// Next entry; thread-safe, hands out each position once.
  Entry Next();

  /// Distinct queries generated so far; read it only once no client
  /// calls Next() any more.
  const std::vector<PoolQuery>& pool() const { return pool_; }
  /// A query no stream entry can equal (it has one term fewer), for
  /// warming up code paths without filling the caches.
  PoolQuery WarmupQuery(std::size_t i) const;

 private:
  /// Draws a query; `key` (optional) receives its sorted term-id set.
  PoolQuery MakeQuery(Rng& rng, std::size_t terms, std::uint64_t* key) const;

  const model::CorpusModel& model_;
  double repeat_share_;
  std::uint64_t seed_;
  std::mutex mutex_;
  Rng stream_rng_;
  Rng pool_rng_;
  std::vector<PoolQuery> pool_;
  std::vector<std::uint64_t> seen_;  // Sorted term-id keys of pool_.
};

enum class WriteKind { kAdd, kUpdate, kDelete };

struct WriteOp {
  WriteKind kind = WriteKind::kAdd;
  std::string name;
  std::string text;  ///< Empty for deletes.
  std::size_t topic = 0;
};

/// A valid write sequence over the base corpus (`base_topics[d]` is the
/// planted topic of "doc<d>"): 80% add, 10% update and 10% delete, where
/// updates and deletes name a live document, so no write is refused when
/// the ops are sent in order.
std::vector<WriteOp> MakeWriteStream(const model::CorpusModel& model,
                                     const std::vector<std::size_t>& base_topics,
                                     std::size_t count, std::uint64_t seed);

/// Renders term ids as the space-separated text the analyzer maps back
/// to the same ids.
std::string TermsToText(const std::vector<std::size_t>& terms);

}  // namespace lsi::servebench

#endif  // SERVEBENCH_RUNNER_WORKLOAD_H_
