#include "runner/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lsi::servebench {
namespace {

// Independent streams per input kind, so adding writes never shifts the
// query sequence of the same seed.
constexpr std::uint64_t kStreamSalt = 0x51a7e5d0c0ffee01ULL;
constexpr std::uint64_t kPoolSalt = 0x9001f00dba5eba11ULL;
constexpr std::uint64_t kWarmupSalt = 0x3a3ab0b0c4c4d1d1ULL;
constexpr std::uint64_t kWriteSalt = 0x77a17e5eedf00d42ULL;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> specs(3);
    specs[0].name = "query-50k";
    specs[0].documents = 50000;
    specs[0].threads = 2;
    specs[0].query_clients = 1;

    specs[1].name = "router-4x20k-zipf";
    specs[1].documents = 20000;
    specs[1].shards = 4;
    specs[1].threads = 1;
    // One client: while its query is out, the 4 single-thread backends
    // are the only busy threads, so nothing waits for a core.
    specs[1].query_clients = 1;
    specs[1].repeat_share = 0.3;

    specs[2].name = "live-20k-wide";
    specs[2].documents = 20000;
    specs[2].extra_terms = 45000;
    specs[2].live = true;
    specs[2].threads = 1;
    specs[2].query_clients = 1;
    specs[2].write_clients = 1;
    specs[2].repeat_share = 0.3;
    specs[2].drift_threshold_radians = 1.2;
    return specs;
  }();
  return workloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string TermsToText(const std::vector<std::size_t>& terms) {
  std::string text;
  char buffer[32];
  for (std::size_t term : terms) {
    std::snprintf(buffer, sizeof buffer, "term%05zu", term);
    if (!text.empty()) text += ' ';
    text += buffer;
  }
  return text;
}

QueryStream::QueryStream(const model::CorpusModel& model, double repeat_share,
                         std::uint64_t seed)
    : model_(model),
      repeat_share_(repeat_share),
      seed_(seed),
      stream_rng_(seed ^ kStreamSalt),
      pool_rng_(seed ^ kPoolSalt) {}

PoolQuery QueryStream::MakeQuery(Rng& rng, std::size_t terms,
                                 std::uint64_t* key) const {
  PoolQuery query;
  query.topic = static_cast<std::size_t>(rng.NextUint64Below(kTopics));
  const auto& primary = model_.topic(query.topic).primary_terms();
  std::vector<std::size_t> picked;
  while (picked.size() < terms) {
    const std::size_t term =
        primary[static_cast<std::size_t>(rng.NextUint64Below(primary.size()))];
    if (std::find(picked.begin(), picked.end(), term) == picked.end()) {
      picked.push_back(term);
    }
  }
  query.text = TermsToText(picked);
  if (key != nullptr) {
    std::sort(picked.begin(), picked.end());
    *key = 0;
    for (std::size_t id : picked) *key = *key * 65536 + id;
  }
  return query;
}

PoolQuery QueryStream::WarmupQuery(std::size_t i) const {
  Rng rng((seed_ ^ kWarmupSalt) + i);
  return MakeQuery(rng, kQueryTerms - 1, nullptr);
}

QueryStream::Entry QueryStream::Next() {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  const bool repeat =
      !pool_.empty() && stream_rng_.NextDouble() < repeat_share_;
  if (repeat) {
    // Zipf(1) over first-use rank: log-uniform on [1, n + 1).
    const double n = static_cast<double>(pool_.size());
    const double draw = std::exp(stream_rng_.NextDouble() * std::log(n + 1.0));
    entry.pool = std::min(pool_.size() - 1,
                          static_cast<std::size_t>(draw) - 1);
    entry.repeat = true;
    entry.query = pool_[entry.pool];
    return entry;
  }
  // A new query must differ from every earlier one as a term set, or
  // the "distinct" share would silently include cache hits.
  while (true) {
    std::uint64_t key = 0;
    PoolQuery query = MakeQuery(pool_rng_, kQueryTerms, &key);
    auto it = std::lower_bound(seen_.begin(), seen_.end(), key);
    if (it != seen_.end() && *it == key) continue;
    seen_.insert(it, key);
    entry.pool = pool_.size();
    entry.query = query;
    pool_.push_back(std::move(query));
    return entry;
  }
}

std::vector<WriteOp> MakeWriteStream(const model::CorpusModel& model,
                                     const std::vector<std::size_t>& base_topics,
                                     std::size_t count, std::uint64_t seed) {
  Rng rng(seed ^ kWriteSalt);
  struct Alive {
    std::string name;
    std::size_t topic = 0;
  };
  std::vector<Alive> alive;
  alive.reserve(base_topics.size() + count);
  char buffer[32];
  for (std::size_t d = 0; d < base_topics.size(); ++d) {
    std::snprintf(buffer, sizeof buffer, "doc%05zu", d);
    alive.push_back({buffer, base_topics[d]});
  }
  auto make_text = [&](std::size_t topic) {
    const std::size_t length =
        static_cast<std::size_t>(rng.UniformInt(50, 100));
    std::vector<std::size_t> terms(length);
    for (std::size_t& term : terms) term = model.topic(topic).Sample(rng);
    return TermsToText(terms);
  };

  std::vector<WriteOp> ops;
  ops.reserve(count);
  std::size_t adds = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double kind = rng.NextDouble();
    WriteOp op;
    if (kind < 0.8 || alive.size() < 2) {
      op.kind = WriteKind::kAdd;
      op.topic = static_cast<std::size_t>(rng.NextUint64Below(kTopics));
      std::snprintf(buffer, sizeof buffer, "new%06zu", adds++);
      op.name = buffer;
      op.text = make_text(op.topic);
      alive.push_back({op.name, op.topic});
    } else {
      const std::size_t victim =
          static_cast<std::size_t>(rng.NextUint64Below(alive.size()));
      op.name = alive[victim].name;
      op.topic = alive[victim].topic;
      if (kind < 0.9) {
        // An update keeps the document's planted topic, so a name's
        // label never changes during a run.
        op.kind = WriteKind::kUpdate;
        op.text = make_text(op.topic);
      } else {
        op.kind = WriteKind::kDelete;
        alive[victim] = alive.back();
        alive.pop_back();
      }
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace lsi::servebench
