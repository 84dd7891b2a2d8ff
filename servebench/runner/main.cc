// servebench_runner: one run of one workload against the serving stack.
//
//   servebench_runner --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --out <file.json> --workdir <dir>
//
// The process generates the run's corpus from lsi::model and the seed,
// then forks. The child is the serving side: it builds the stack an
// operator starts, times set-up until /healthz answers, and serves on
// loopback. The parent is the load: closed-loop clients over keep-alive
// connections, then a check of every reply against the child's
// in-process reference. Raw samples go to --out; servebench/run.py turns
// them into metrics.

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runner/http_client.h"
#include "runner/serving.h"
#include "runner/workload.h"
#include "linalg/simd/simd.h"
#include "model/separable_model.h"
#include "par/par.h"
#include "serve/json.h"

namespace lsi::servebench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::JsonValue;

constexpr int kSetupRepeats = 3;         // Untraced runs; median reported.
constexpr std::size_t kWarmupQueries = 20;
constexpr std::size_t kLiveProbes = 50;
constexpr std::size_t kReplayQueries = 100;
constexpr std::size_t kReplayWrites = 50;
constexpr auto kTraceBlock = std::chrono::milliseconds(500);
constexpr auto kStealTick = std::chrono::milliseconds(100);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string workdir;
};

pid_t g_serving_pid = 0;  // Set in the load process only.

/// Reports a broken run and exits non-zero; the load process first
/// stops and reaps the serving process.
[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  if (g_serving_pid > 0) {
    ::kill(g_serving_pid, SIGKILL);
    ::waitpid(g_serving_pid, nullptr, 0);
  }
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (options.out.empty() || options.workdir.empty() ||
      options.seconds <= 0.0) {
    Fail("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> "
         "--out <file> --workdir <dir>");
  }
  return options;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Peak resident set of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Line-oriented pipe between the load and the serving process.
class Channel {
 public:
  Channel(int read_fd, int write_fd)
      : in_(::fdopen(read_fd, "r")), out_(::fdopen(write_fd, "w")) {}
  ~Channel() {
    if (in_ != nullptr) std::fclose(in_);
    if (out_ != nullptr) std::fclose(out_);
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Send(const std::string& line) {
    std::fputs(line.c_str(), out_);
    std::fputc('\n', out_);
    std::fflush(out_);
  }
  std::string Receive() {
    std::string line;
    int c;
    while ((c = std::fgetc(in_)) != EOF && c != '\n') line.push_back(char(c));
    if (c == EOF && line.empty()) Fail("peer process closed the channel");
    return line;
  }

 private:
  std::FILE* in_;
  std::FILE* out_;
};

// ---------------------------------------------------------------- serving

int RunServing(const Options& options, const WorkloadSpec& spec,
               const model::CorpusModel& model,
               const model::GeneratedCorpus& generated,
               const std::atomic<int>* trace_flag, Channel& channel) {
  SpanLog spans;
  std::unique_ptr<ServingStack> stack;
  std::vector<double> setup_s;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    stack.reset();  // Tear the previous stack down before the next build.
    const Clock::time_point start = Clock::now();
    stack = ServingStack::Start(spec, generated.corpus, options.workdir,
                                trace_flag, &spans);
    HttpClient client(stack->port());
    while (client.Send("GET", "/healthz", "").status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    setup_s.push_back(Seconds(Clock::now() - start));
  }
  channel.Send("ready " + std::to_string(stack->port()));

  ServingStack::Counters before, after;
  double rss_mb = 0.0;
  std::vector<SpanLog::Span> measured_spans;
  std::size_t traced_queries = 0, tombstoned_queries = 0;
  std::vector<std::string> verified_queries, verified_bodies;
  while (true) {
    std::istringstream command(channel.Receive());
    std::string verb;
    command >> verb;
    if (verb == "go") {
      (void)spans.Take();  // Warm-up spans do not count.
      {
        std::lock_guard<std::mutex> lock(spans.mutex);
        spans.queries = spans.tombstoned_queries = 0;
      }
      before = stack->ReadCounters();
      channel.Send("ok");
    } else if (verb == "done") {
      after = stack->ReadCounters();
      rss_mb = PeakRssMb();
      measured_spans = spans.Take();
      std::lock_guard<std::mutex> lock(spans.mutex);
      traced_queries = spans.queries;
      tombstoned_queries = spans.tombstoned_queries;
      channel.Send("ok");
    } else if (verb == "quiesce") {
      stack->Quiesce();
      channel.Send("ok " + std::to_string(stack->epoch()));
    } else if (verb == "epoch") {
      channel.Send(std::to_string(stack->epoch()));
    } else if (verb == "verify") {
      std::size_t n = 0;
      command >> n;
      std::vector<std::string> queries(n);
      for (std::string& q : queries) q = channel.Receive();
      // References use every core; results are bit-identical at any
      // LSI_THREADS, and the measured load is over.
      lsi::par::SetThreads(lsi::par::AutoThreads());
      const std::vector<std::string> bodies = stack->ReferenceBodies(queries);
      lsi::par::SetThreads(spec.threads);
      for (std::size_t i = 0; i < n; ++i) {
        channel.Send(bodies[i]);
        if (verified_queries.size() < kReplayQueries) {
          verified_queries.push_back(queries[i]);
          verified_bodies.push_back(bodies[i]);
        }
      }
    } else if (verb == "finish") {
      break;
    } else {
      Fail("serving: unknown command " + verb);
    }
  }

  JsonValue::Object out;
  out.emplace_back("setup_s", Samples(setup_s));
  out.emplace_back("rss_mb", JsonValue(rss_mb));
  out.emplace_back("rows_scanned_per_query",
                   JsonValue(static_cast<double>(stack->RowsScannedPerQuery())));
  auto delta = [](auto a, auto b) { return static_cast<double>(b - a); };
  JsonValue::Object counters;
  counters.emplace_back("cache_hits",
                        JsonValue(delta(before.cache_hits, after.cache_hits)));
  counters.emplace_back("cache_misses",
                        JsonValue(delta(before.cache_misses, after.cache_misses)));
  counters.emplace_back("front_queries",
                        JsonValue(delta(before.front_queries, after.front_queries)));
  counters.emplace_back("backend_queries",
                        JsonValue(delta(before.backend_queries, after.backend_queries)));
  counters.emplace_back("batches", JsonValue(delta(before.batch_count, after.batch_count)));
  counters.emplace_back("batched_queries", JsonValue(after.batch_sum - before.batch_sum));
  counters.emplace_back("par_wait_ms", JsonValue(after.par_wait_ms - before.par_wait_ms));
  counters.emplace_back("connections", JsonValue(delta(before.connections, after.connections)));
  counters.emplace_back("hedges", JsonValue(delta(before.hedges, after.hedges)));
  counters.emplace_back("refreshes", JsonValue(delta(before.refreshes, after.refreshes)));
  counters.emplace_back("drift_mean_radians", JsonValue(after.drift_mean_radians));
  out.emplace_back("counters", JsonValue(std::move(counters)));

  if (options.trace) {
    // Spans by kind; a router query's gather overhead is its span minus
    // the slowest backend span for the same request body.
    std::vector<double> query_ms, write_ms, router_ms, backend_ms, overhead_ms;
    std::map<std::string, double> slowest_backend;
    for (const SpanLog::Span& span : measured_spans) {
      if (span.kind == SpanLog::Kind::kBackend) {
        double& slowest = slowest_backend[span.body];
        slowest = std::max(slowest, span.ms);
      }
    }
    for (const SpanLog::Span& span : measured_spans) {
      switch (span.kind) {
        case SpanLog::Kind::kQuery:
          query_ms.push_back(span.ms);
          break;
        case SpanLog::Kind::kWrite:
          write_ms.push_back(span.ms);
          break;
        case SpanLog::Kind::kBackend:
          backend_ms.push_back(span.ms);
          break;
        case SpanLog::Kind::kRouter: {
          router_ms.push_back(span.ms);
          auto it = slowest_backend.find(span.body);
          if (it != slowest_backend.end()) {
            overhead_ms.push_back(span.ms - it->second);
            slowest_backend.erase(it);  // Only the request that scattered.
          }
          break;
        }
      }
    }
    JsonValue::Object trace;
    trace.emplace_back("handle_ms", Samples(query_ms));
    trace.emplace_back("write_handle_ms", Samples(write_ms));
    trace.emplace_back("router_handle_ms", Samples(router_ms));
    trace.emplace_back("backend_handle_ms", Samples(backend_ms));
    trace.emplace_back("gather_overhead_ms", Samples(overhead_ms));
    trace.emplace_back("engine_queries",
                       JsonValue(static_cast<double>(traced_queries)));
    trace.emplace_back("tombstoned_queries",
                       JsonValue(static_cast<double>(tombstoned_queries)));
    out.emplace_back("trace", JsonValue(std::move(trace)));

    std::vector<WriteOp> writes;
    if (spec.live) {
      writes = MakeWriteStream(model, generated.topic_of_document,
                               kReplayWrites, options.seed);
    }
    out.emplace_back("replay",
                     stack->Replay(generated.corpus, verified_queries,
                                   verified_bodies, writes, options.workdir));
  }
  stack.reset();
  std::ofstream file(options.workdir + "/serving.json");
  file << JsonValue(std::move(out)).Serialize();
  file.close();
  channel.Send(file ? "ok" : "error");
  return 0;
}

// ------------------------------------------------------------------- load

struct Record {
  double start_s = 0.0;  ///< Since the load began.
  double end_s = 0.0;
  double ms = 0.0;
  int status = 0;
  std::size_t pool = 0;  ///< Query: pool index. Write: op index.
  std::string body;
};

/// The label of a hit's document name: "docNNNNN" is a base document,
/// "newNNNNNN" an added one.
struct Labels {
  const std::vector<std::size_t>* base = nullptr;
  std::map<std::string, std::size_t> added;

  bool Find(const std::string& name, std::size_t* topic) const {
    if (name.rfind("doc", 0) == 0) {
      const std::size_t d = std::strtoul(name.c_str() + 3, nullptr, 10);
      if (d >= base->size()) return false;
      *topic = (*base)[d];
      return true;
    }
    auto it = added.find(name);
    if (it == added.end()) return false;
    *topic = it->second;
    return true;
  }
};

/// Parses a query reply; false unless it is {"hits": [...]} with at most
/// kTopK well-formed hits.
bool ParseHits(const std::string& body, std::vector<std::string>* names) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const JsonValue* hits = parsed->Find("hits");
  if (hits == nullptr || !hits->is_array() || hits->array().size() > kTopK) {
    return false;
  }
  names->clear();
  for (const JsonValue& hit : hits->array()) {
    const JsonValue* name = hit.Find("name");
    const JsonValue* document = hit.Find("document");
    const JsonValue* score = hit.Find("score");
    if (name == nullptr || !name->is_string() || document == nullptr ||
        !document->is_number() || score == nullptr || !score->is_number()) {
      return false;
    }
    names->push_back(name->string_value());
  }
  return parsed->object().size() == 1;
}

/// A write receipt is well-formed when it carries the next WAL sequence
/// number, an epoch, and the fields its route promises.
bool WellFormedReceipt(const std::string& body, const WriteOp& op,
                       std::uint64_t expected_seq) {
  auto parsed = JsonValue::Parse(body);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const JsonValue* seq = parsed->Find("seq");
  const JsonValue* epoch = parsed->Find("epoch");
  const JsonValue* document = parsed->Find("document");
  const JsonValue* removed = parsed->Find("removed");
  if (seq == nullptr || !seq->is_number() ||
      seq->number() != static_cast<double>(expected_seq) ||
      epoch == nullptr || !epoch->is_number()) {
    return false;
  }
  if ((op.kind != WriteKind::kDelete) != (document != nullptr)) return false;
  if ((op.kind != WriteKind::kAdd) !=
      (removed != nullptr && removed->number() == 1.0)) {
    return false;
  }
  return true;
}

std::string HostCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU time counters of /proc/stat, in ticks.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double LoadAverage() {
  std::ifstream loadavg("/proc/loadavg");
  double one_minute = 0.0;
  loadavg >> one_minute;
  return one_minute;
}

int RunLoad(const Options& options, const WorkloadSpec& spec,
            const model::CorpusModel& model,
            const model::GeneratedCorpus& generated,
            std::atomic<int>* trace_flag, Channel& channel, double load_avg) {
  std::istringstream ready(channel.Receive());
  std::string verb;
  int port = 0;
  ready >> verb >> port;
  if (verb != "ready") Fail("serving process did not start");

  QueryStream stream(model, spec.repeat_share, options.seed);
  std::vector<WriteOp> writes;
  if (spec.live) {
    // Enough for any write rate the stack reaches in the run.
    const auto count = static_cast<std::size_t>(1000.0 * options.seconds);
    writes = MakeWriteStream(model, generated.topic_of_document, count,
                             options.seed);
  }
  {
    HttpClient warm(port);
    for (std::size_t i = 0; i < kWarmupQueries; ++i) {
      (void)warm.Send("POST", "/query",
                      QueryBody(stream.WarmupQuery(i).text));
    }
  }
  channel.Send("go");
  (void)channel.Receive();

  const CpuTicks ticks_before = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  auto since = [start](Clock::time_point t) { return Seconds(t - start); };
  std::vector<std::vector<Record>> query_records(spec.query_clients);
  std::vector<Record> write_records;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < spec.query_clients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client(port);
      while (Clock::now() < deadline) {
        QueryStream::Entry entry = stream.Next();
        Record record;
        record.pool = entry.pool;
        const Clock::time_point t0 = Clock::now();
        HttpReply reply = client.Send("POST", "/query", QueryBody(entry.query.text));
        const Clock::time_point t1 = Clock::now();
        record.start_s = since(t0);
        record.end_s = since(t1);
        record.ms = 1000.0 * Seconds(t1 - t0);
        record.status = reply.status;
        record.body = std::move(reply.body);
        query_records[c].push_back(std::move(record));
      }
    });
  }
  if (spec.write_clients > 0) {
    clients.emplace_back([&] {
      HttpClient client(port);
      for (std::size_t i = 0; i < writes.size() && Clock::now() < deadline;
           ++i) {
        const WriteOp& op = writes[i];
        JsonValue::Object body;
        body.emplace_back("name", JsonValue(op.name));
        if (op.kind != WriteKind::kDelete) {
          body.emplace_back("text", JsonValue(op.text));
        }
        const char* path = op.kind == WriteKind::kAdd      ? "/add"
                           : op.kind == WriteKind::kUpdate ? "/update"
                                                           : "/delete";
        Record record;
        record.pool = i;
        const Clock::time_point t0 = Clock::now();
        HttpReply reply =
            client.Send("POST", path, JsonValue(std::move(body)).Serialize());
        const Clock::time_point t1 = Clock::now();
        record.start_s = since(t0);
        record.end_s = since(t1);
        record.ms = 1000.0 * Seconds(t1 - t0);
        record.status = reply.status;
        record.body = std::move(reply.body);
        write_records.push_back(std::move(record));
      }
    });
  }
  // Steal share per 100 ms, so a slow stretch of the run can be told
  // apart from a slow program.
  std::vector<double> steal_t, steal_share;
  std::thread steal_sampler([&] {
    CpuTicks previous = ticks_before;
    for (int tick = 1; start + tick * kStealTick < deadline; ++tick) {
      std::this_thread::sleep_until(start + tick * kStealTick);
      const CpuTicks now = ReadCpuTicks();
      steal_t.push_back(since(Clock::now()));
      steal_share.push_back((now.steal - previous.steal) /
                            std::max(1.0, now.total - previous.total));
      previous = now;
    }
  });
  if (options.trace) {
    // Alternate untraced and traced blocks, so the tracing overhead is
    // measured on interleaved halves of the same run.
    for (int block = 1; start + block * kTraceBlock < deadline; ++block) {
      std::this_thread::sleep_until(start + block * kTraceBlock);
      trace_flag->store(block % 2, std::memory_order_relaxed);
    }
  }
  for (std::thread& t : clients) t.join();
  steal_sampler.join();
  const double elapsed_s = since(Clock::now());
  const CpuTicks ticks_after = ReadCpuTicks();
  trace_flag->store(0, std::memory_order_relaxed);
  channel.Send("done");
  (void)channel.Receive();

  // ---- correctness
  std::size_t attempted = 0, failed = 0, mismatched = 0, malformed = 0;
  Labels labels;
  labels.base = &generated.topic_of_document;
  std::uint64_t expected_seq = 1;
  for (const Record& record : write_records) {
    ++attempted;
    const WriteOp& op = writes[record.pool];
    if (record.status != 200) {
      ++failed;
    } else if (!WellFormedReceipt(record.body, op, expected_seq)) {
      ++failed;
      ++malformed;
    }
    if (record.status == 200) ++expected_seq;
    if (op.kind == WriteKind::kAdd) labels.added[op.name] = op.topic;
  }

  const std::vector<PoolQuery>& pool = stream.pool();
  std::vector<std::string> probe_queries;
  std::vector<std::string> probe_bodies;
  if (spec.live) {
    // Replies during the run come from moving snapshots; correctness is
    // checked on probes sent once the engine is quiet.
    channel.Send("quiesce");
    const std::string epoch_before = channel.Receive();
    HttpClient client(port);
    for (std::size_t i = 0; i < pool.size() && i < kLiveProbes; ++i) {
      probe_queries.push_back(pool[i].text);
      HttpReply reply = client.Send("POST", "/query", QueryBody(pool[i].text));
      probe_bodies.push_back(reply.status == 200 ? reply.body : "");
    }
    channel.Send("epoch");
    if ("ok " + channel.Receive() != epoch_before) {
      Fail("live epoch moved while probing");
    }
  } else {
    for (const PoolQuery& query : pool) probe_queries.push_back(query.text);
  }
  channel.Send("verify " + std::to_string(probe_queries.size()));
  for (const std::string& q : probe_queries) channel.Send(q);
  std::vector<std::string> reference(probe_queries.size());
  for (std::string& body : reference) body = channel.Receive();

  std::vector<double> query_ms, query_start_s, write_ms, traced_ms, untraced_ms,
      p_at_10;
  std::size_t repeats_sent = 0;
  std::vector<bool> seen(pool.size(), false);
  std::vector<std::string> names;
  for (const auto& records : query_records) {
    for (const Record& record : records) {
      ++attempted;
      query_ms.push_back(record.ms);
      query_start_s.push_back(record.start_s);
      if (seen[record.pool]) ++repeats_sent;
      seen[record.pool] = true;
      bool ok = record.status == 200 && ParseHits(record.body, &names);
      if (ok && !spec.live && record.body != reference[record.pool]) {
        ok = false;
        ++mismatched;
      }
      if (!ok) {
        ++failed;
        continue;
      }
      std::size_t relevant = 0, topic = 0;
      for (const std::string& name : names) {
        if (labels.Find(name, &topic) && topic == pool[record.pool].topic) {
          ++relevant;
        }
      }
      p_at_10.push_back(static_cast<double>(relevant) / kTopK);
      const auto block_of = [](double s) {
        return static_cast<long>(s / std::chrono::duration<double>(kTraceBlock).count());
      };
      if (options.trace && block_of(record.start_s) == block_of(record.end_s)) {
        (block_of(record.start_s) % 2 ? traced_ms : untraced_ms)
            .push_back(record.ms);
      }
    }
  }
  if (spec.live) {
    for (std::size_t i = 0; i < probe_queries.size(); ++i) {
      ++attempted;
      if (probe_bodies[i] != reference[i]) {
        ++failed;
        ++mismatched;
      }
    }
  }
  std::vector<double> write_start_s;
  // Live reads take the tombstone path only once a delete has landed;
  // the gated figures start there, so every run measures that phase.
  double measured_from_s = spec.live ? -1.0 : 0.0;
  for (const Record& record : write_records) {
    write_ms.push_back(record.ms);
    write_start_s.push_back(record.start_s);
    if (measured_from_s < 0.0 && record.status == 200 &&
        writes[record.pool].kind == WriteKind::kDelete) {
      measured_from_s = record.end_s;
    }
  }
  if (measured_from_s < 0.0) Fail("no delete was acknowledged");

  channel.Send("finish");
  if (channel.Receive() != "ok") Fail("serving process failed to report");

  std::ifstream serving_file(options.workdir + "/serving.json");
  std::stringstream serving_text;
  serving_text << serving_file.rdbuf();
  auto serving = JsonValue::Parse(serving_text.str());
  if (!serving.ok()) Fail("unreadable serving report");

  JsonValue::Object host;
  host.emplace_back("nproc", JsonValue(static_cast<double>(
                                 ::sysconf(_SC_NPROCESSORS_ONLN))));
  host.emplace_back("cpu_model", JsonValue(HostCpuModel()));
  host.emplace_back("simd", JsonValue(std::string(lsi::linalg::simd::PathName(
                                lsi::linalg::simd::ActivePath()))));
  host.emplace_back("loadavg_1m", JsonValue(load_avg));
  // Time the hypervisor ran something else on this machine's CPUs while
  // the load ran: the usual cause of a slow run on a shared host.
  host.emplace_back("steal_share",
                    JsonValue((ticks_after.steal - ticks_before.steal) /
                           std::max(1.0, ticks_after.total - ticks_before.total)));

  JsonValue::Object out;
  out.emplace_back("workload", JsonValue(spec.name));
  out.emplace_back("seed", JsonValue(static_cast<double>(options.seed)));
  out.emplace_back("seconds", JsonValue(options.seconds));
  out.emplace_back("trace", JsonValue(options.trace));
  out.emplace_back("lsi_threads", JsonValue(static_cast<double>(spec.threads)));
  out.emplace_back("query_clients",
                   JsonValue(static_cast<double>(spec.query_clients)));
  out.emplace_back("write_clients",
                   JsonValue(static_cast<double>(spec.write_clients)));
  out.emplace_back("documents", JsonValue(static_cast<double>(spec.documents)));
  out.emplace_back("shards", JsonValue(static_cast<double>(spec.shards)));
  out.emplace_back("live", JsonValue(spec.live));
  out.emplace_back("terms",
                   JsonValue(static_cast<double>(generated.corpus.NumTerms())));
  out.emplace_back("stated_repeat_share", JsonValue(spec.repeat_share));
  out.emplace_back("host", JsonValue(std::move(host)));
  out.emplace_back("steal_t", Samples(steal_t));
  out.emplace_back("steal_share", Samples(steal_share));
  out.emplace_back("elapsed_s", JsonValue(elapsed_s));
  out.emplace_back("query_ms", Samples(query_ms));
  out.emplace_back("query_start_s", Samples(query_start_s));
  out.emplace_back("write_ms", Samples(write_ms));
  out.emplace_back("write_start_s", Samples(write_start_s));
  out.emplace_back("measured_from_s", JsonValue(measured_from_s));
  out.emplace_back("traced_query_ms", Samples(traced_ms));
  out.emplace_back("untraced_query_ms", Samples(untraced_ms));
  out.emplace_back("p_at_10", Samples(p_at_10));
  out.emplace_back("repeats_sent", JsonValue(static_cast<double>(repeats_sent)));
  out.emplace_back("attempted", JsonValue(static_cast<double>(attempted)));
  out.emplace_back("failed", JsonValue(static_cast<double>(failed)));
  out.emplace_back("mismatched", JsonValue(static_cast<double>(mismatched)));
  out.emplace_back("malformed_receipts", JsonValue(static_cast<double>(malformed)));
  out.emplace_back("serving", std::move(serving).value());
  std::ofstream file(options.out);
  file << JsonValue(std::move(out)).Serialize() << "\n";
  file.close();
  if (!file) Fail("cannot write " + options.out);
  return 0;
}

int Run(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) Fail("unknown workload " + options.workload);
  const double load_avg = LoadAverage();
  // The workload pins the serving process's thread count.
  ::setenv("LSI_THREADS", std::to_string(spec->threads).c_str(), 1);
  ::mkdir(options.workdir.c_str(), 0755);

  model::SeparableModelParams params;
  params.num_topics = kTopics;
  params.terms_per_topic = kTermsPerTopic;
  params.extra_terms = spec->extra_terms;
  params.epsilon = 0.05;
  params.min_document_length = 50;
  params.max_document_length = 100;
  auto corpus_model = model::BuildSeparableModel(params);
  if (!corpus_model.ok()) Fail(corpus_model.status().ToString());
  lsi::Rng rng(options.seed);
  auto generated = corpus_model->GenerateCorpus(spec->documents, rng);
  if (!generated.ok()) Fail(generated.status().ToString());

  // The trace flag lives in memory both processes share, so the load
  // can switch the serving side's spans on and off between blocks.
  void* shared = ::mmap(nullptr, sizeof(std::atomic<int>),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
  if (shared == MAP_FAILED) Fail("mmap failed");
  auto* trace_flag = new (shared) std::atomic<int>(0);

  int to_serving[2], to_load[2];
  if (::pipe(to_serving) != 0 || ::pipe(to_load) != 0) Fail("pipe failed");
  // Nothing has started a thread yet, so forking is safe.
  const pid_t pid = ::fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    ::close(to_serving[1]);
    ::close(to_load[0]);
    Channel channel(to_serving[0], to_load[1]);
    const int code = RunServing(options, *spec, *corpus_model, *generated,
                                trace_flag, channel);
    std::exit(code);
  }
  g_serving_pid = pid;
  ::close(to_serving[0]);
  ::close(to_load[1]);
  int code = 0;
  {
    Channel channel(to_load[0], to_serving[1]);
    code = RunLoad(options, *spec, *corpus_model, *generated, trace_flag, channel,
                   load_avg);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  g_serving_pid = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("serving process exited abnormally");
  }
  return code;
}

}  // namespace
}  // namespace lsi::servebench

int main(int argc, char** argv) { return lsi::servebench::Run(argc, argv); }
