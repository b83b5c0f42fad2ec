#include "workloads.h"

#include <signal.h>

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "hierarq/data/loader.h"
#include "hierarq/net/client.h"
#include "hierarq/obs/trace.h"
#include "server_process.h"

namespace perfbench {

using hierarq::Result;
using hierarq::Status;
using hierarq::StatusCode;
using hierarq::VersionedDatabase;
using hierarq::net::HierarqClient;
using hierarq::net::QueryResult;
using hierarq::net::SolverKind;
using hierarq::obs::Tracer;

namespace {

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(Tracer::NowNs() - start_ns) / 1e9;
}

constexpr int kWindows = 8;

// The shapes keep every query's Pr[Q] well below 1: near 1 a pqe answer
// rounds to 1.0 and the answer check cannot tell a wrong one apart.
// ~400 facts: evaluation takes microseconds, the front door dominates.
// Pr[Q] is about 0.01 to 0.5 over the three queries.
constexpr DatasetShape kSmall{134, 16, 10, 500};
// ~300k facts with small probabilities.
constexpr DatasetShape kLarge{100000, 1000, 10, 100};
/// A reference pqe answer at or above this fails the run (see above).
constexpr double kMaxPqe = 1 - 1e-6;

Result<Dataset> MakeDataset(const Options& options, const DatasetShape& shape,
                            Report& report) {
  Dataset data;
  data.shape = shape;
  data.path = options.work_dir + "/facts.tid";
  {
    std::ofstream out(data.path, std::ios::binary | std::ios::trunc);
    out << GenerateTidText(shape, options.seed);
    if (!out) {
      return Status::Internal("cannot write " + data.path);
    }
  }
  hierarq::Dictionary dict;
  const uint64_t start = Tracer::NowNs();
  HIERARQ_ASSIGN_OR_RETURN(data.tid,
                           hierarq::LoadTidDatabaseFromFile(data.path, &dict));
  data.load_s = SecondsSince(start);
  report.Info("facts", std::to_string(data.tid.NumFacts()));
  return data;
}

Answer Corrupt(Answer answer) {
  answer.count += 1;
  answer.number = answer.number * (1 + 1e-9) + 1e-300;
  return answer;
}

/// The reference answer the benchmark checks a served result against.
Result<Answer> Reference(const Options& options, hierarq::Evaluator& evaluator,
                         const Request& request, const VersionedDatabase& db) {
  HIERARQ_ASSIGN_OR_RETURN(Answer answer,
                           ReferenceAnswer(evaluator, request, db));
  return options.corrupt_reference ? Corrupt(answer) : answer;
}

Result<std::vector<Expected>> ReferenceMix(const Options& options,
                                           const std::vector<Request>& mix,
                                           const VersionedDatabase& db) {
  hierarq::Evaluator evaluator;
  std::vector<Expected> out;
  for (const Request& request : mix) {
    HIERARQ_ASSIGN_OR_RETURN(Answer answer,
                             Reference(options, evaluator, request, db));
    if (request.solver == SolverKind::kPqe && answer.number >= kMaxPqe) {
      return Status::InvalidArgument(
          "Pr[" + request.query + "] = " + std::to_string(answer.number) +
          " is too close to 1 for the answer check");
    }
    out.push_back({request, answer});
  }
  return out;
}

void Classify(const Result<QueryResult>& result, const Answer& want,
              Tally& tally) {
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) {
      ++tally.refused;
    } else {
      ++tally.failed;
    }
  } else if (Matches(*result, want)) {
    ++tally.ok;
  } else {
    ++tally.wrong;
  }
}

/// Spawn until the first answer, checked: the set-up time a user of a
/// started server waits, into `setup_s`. Only the data file is set, so
/// every other server default is under test.
Result<std::unique_ptr<ServerProcess>> StartServer(const Options& options,
                                                   const Dataset& data,
                                                   const Expected& first,
                                                   Report& report,
                                                   double* setup_s) {
  const uint64_t start = Tracer::NowNs();
  HIERARQ_ASSIGN_OR_RETURN(
      std::unique_ptr<ServerProcess> server,
      ServerProcess::Spawn(options.server_bin, {"--db=" + data.path, "--tid"},
                           options.work_dir + "/server.log"));
  HierarqClient client;
  HIERARQ_RETURN_NOT_OK(client.Connect("127.0.0.1", server->port()));
  const Result<QueryResult> answer =
      client.Query(first.request.solver, first.request.query);
  *setup_s = SecondsSince(start);
  Classify(answer, first.answer, report.tally());
  if (!answer.ok()) {
    return answer.status();
  }
  return server;
}

/// CPU seconds between two /proc readings, per completed operation.
double CpuUsPerOp(const std::optional<ProcCpu>& before,
                  const std::optional<ProcCpu>& after, uint64_t ops,
                  Report& report) {
  if (!before || !after || ops == 0) {
    report.Fail("cannot read CPU time from /proc");
    return 0.0;
  }
  const double seconds =
      static_cast<double>(after->total() - before->total()) /
      ClockTicksPerSecond();
  return seconds * 1e6 / static_cast<double>(ops);
}

/// The server's annotation cache counters, from its text /metrics frame.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

bool ScrapeCounter(HierarqClient& client, const std::string& name,
                   uint64_t* value) {
  auto text = client.Metrics(hierarq::net::WireFormat::kNative);
  if (!text.ok()) {
    return false;
  }
  const std::string needle = "\ncounter " + name + " ";
  const std::string haystack = "\n" + *text;
  const size_t at = haystack.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  *value = std::strtoull(haystack.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

std::optional<CacheCounts> ScrapeCacheCounts(uint16_t port) {
  HierarqClient client;
  CacheCounts counts;
  if (!client.Connect("127.0.0.1", port).ok() ||
      !ScrapeCounter(client, "service.annotation_cache_hits", &counts.hits) ||
      !ScrapeCounter(client, "service.annotation_cache_misses",
                     &counts.misses)) {
    return std::nullopt;
  }
  return counts;
}

// ------------------------------------------------------ closed-loop reads --

struct ReadWindow {
  std::vector<double> latency_ms;
  Tally tally;
  double ops_per_s = 0.0;
  uint64_t completed = 0;
  RequestSpans spans;
  /// The server's CPU time at the start and end of the timed part.
  std::optional<ProcCpu> cpu_before;
  std::optional<ProcCpu> cpu_after;
};

/// `connections` synchronous clients, each round-robin over `mix` from
/// its own offset, for `seconds`. Every answer is checked. With `traced`
/// each request asks for the server's QueryStats and is timed as a span.
ReadWindow RunReadWindow(const ServerProcess& server, size_t connections,
                         const std::vector<Expected>& mix, double seconds,
                         bool traced) {
  struct PerThread {
    ReadWindow window;
    double span_s = 0.0;
  };
  std::vector<PerThread> per_thread(connections);
  ReadWindow total;
  // The server's CPU is read once every client is warm, so the warm-up
  // queries are not charged to the timed operations.
  std::barrier ready(static_cast<std::ptrdiff_t>(connections),
                     [&]() noexcept { total.cpu_before = server.Cpu(); });
  std::vector<std::thread> threads;
  for (size_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      PerThread& mine = per_thread[t];
      HierarqClient client;
      const bool connected = client.Connect("127.0.0.1", server.port()).ok();
      // Warm every (solver, query) pair on this connection untimed.
      if (connected) {
        for (const Expected& item : mix) {
          Classify(client.Query(item.request.solver, item.request.query),
                   item.answer, mine.window.tally);
        }
      } else {
        ++mine.window.tally.failed;
      }
      ready.arrive_and_wait();
      if (!connected) {
        return;
      }
      const uint64_t start = Tracer::NowNs();
      const uint64_t deadline =
          start + static_cast<uint64_t>(seconds * 1e9);
      uint64_t last = start;
      for (size_t i = t; last < deadline; ++i) {
        const Expected& item = mix[i % mix.size()];
        const uint64_t sent = Tracer::NowNs();
        Result<QueryResult> result =
            client.Query(item.request.solver, item.request.query, 0,
                         /*capture_trace=*/false, /*capture_stats=*/traced);
        last = Tracer::NowNs();
        Classify(result, item.answer, mine.window.tally);
        if (!result.ok()) {
          if (result.status().code() != StatusCode::kResourceExhausted) {
            break;  // A broken connection ends this client.
          }
          ++mine.window.spans.rejected;
          continue;
        }
        if (!Matches(*result, item.answer)) {
          continue;
        }
        ++mine.window.completed;
        mine.window.latency_ms.push_back(static_cast<double>(last - sent) /
                                         1e6);
        if (traced) {
          mine.window.spans.Record(last - sent, result->stats);
        }
      }
      mine.span_s = static_cast<double>(last - start) / 1e9;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  total.cpu_after = server.Cpu();
  for (PerThread& mine : per_thread) {
    ReadWindow& w = mine.window;
    total.tally += w.tally;
    total.completed += w.completed;
    if (mine.span_s > 0) {
      total.ops_per_s += static_cast<double>(w.completed) / mine.span_s;
    }
    total.latency_ms.insert(total.latency_ms.end(), w.latency_ms.begin(),
                            w.latency_ms.end());
    total.spans.Append(w.spans);
  }
  return total;
}

/// A traced read window, bracketed by /metrics scrapes for the
/// annotation cache hit ratio.
ReadWindow RunTracedReadWindow(const ServerProcess& server,
                               size_t connections,
                               const std::vector<Expected>& mix,
                               double seconds) {
  const auto before = ScrapeCacheCounts(server.port());
  ReadWindow window = RunReadWindow(server, connections, mix, seconds, true);
  const auto after = ScrapeCacheCounts(server.port());
  if (before && after) {
    window.spans.annotation_cache_hits = after->hits - before->hits;
    window.spans.annotation_cache_misses = after->misses - before->misses;
    window.spans.has_cache_counts = true;
  }
  return window;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double value : values) {
    if (!out.empty()) {
      out += ' ';
    }
    out += std::to_string(value);
  }
  return out;
}

/// The end-to-end metrics of one run. A run is kWindows timed windows,
/// each on a freshly set-up system and 1/kWindows of the run long. Every
/// metric is the median over the windows, the percentiles too: each
/// window has its own p50 and p90, so a host that drifts during the run
/// moves whole windows, not the tail of one pooled sample.
struct Windows {
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
  std::vector<double> cpu_us_per_op;
  std::vector<double> peak_rss_mb;
  std::vector<double> latency_ms;  ///< Every sample, for the p99 info line.

  void Add(const ServerProcess& server, double setup, const ReadWindow& window,
           Report& report) {
    setup_s.push_back(setup);
    ops_per_s.push_back(window.ops_per_s);
    std::vector<double> sorted = window.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    p50_ms.push_back(WindowPercentile(sorted, 0.5, "op_p50_ms", report));
    p90_ms.push_back(WindowPercentile(sorted, 0.9, "op_p90_ms", report));
    cpu_us_per_op.push_back(CpuUsPerOp(window.cpu_before, window.cpu_after,
                                       window.completed, report));
    const std::optional<double> rss = server.PeakRssMb();
    if (!rss) {
      report.Fail("cannot read VmHWM from /proc");
    }
    peak_rss_mb.push_back(rss.value_or(0.0));
    latency_ms.insert(latency_ms.end(), sorted.begin(), sorted.end());
  }

  void AddTo(Report& report) const {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("ops_per_s", Median(ops_per_s), "1/s");
    report.Add("op_p50_ms", Median(p50_ms), "ms");
    report.Add("op_p90_ms", Median(p90_ms), "ms");
    report.Add("cpu_us_per_op", Median(cpu_us_per_op), "us");
    report.Add("peak_rss_mb", Median(peak_rss_mb), "MB");
    std::vector<double> sorted = latency_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto p99 = TailPercentile(sorted, 0.99);
    report.Info("op_p99_ms", (p99 ? std::to_string(*p99) + " ms" : "n/a") +
                                 " (n=" + std::to_string(sorted.size()) + ")");
    report.Info("ops_per_s_by_window", Join(ops_per_s));
    report.Info("op_p50_ms_by_window", Join(p50_ms));
    report.Info("op_p90_ms_by_window", Join(p90_ms));
    report.Info("cpu_us_per_op_by_window", Join(cpu_us_per_op));
    report.Info("setup_s_by_window", Join(setup_s));
  }

 private:
  /// A window's q-quantile; a window too short to have ten samples
  /// beyond it fails the run rather than report a one-sample tail.
  static double WindowPercentile(const std::vector<double>& sorted, double q,
                                 const char* name, Report& report) {
    const auto value = TailPercentile(sorted, q);
    if (!value) {
      report.Fail(std::string(name) + ": a window's " +
                  std::to_string(sorted.size()) +
                  " samples leave fewer than 10 beyond the percentile");
    }
    return value.value_or(0.0);
  }
};

void RunReads(const Options& options, Report& report, const char* name,
              const DatasetShape& shape, std::vector<Request> requests,
              size_t connections) {
  auto data = MakeDataset(options, shape, report);
  if (!data.ok()) {
    report.Fail(data.status().ToString());
    return;
  }
  report.Info("connections", std::to_string(connections));
  std::vector<Expected> mix;
  {
    const VersionedDatabase db(data->tid);
    auto expected = ReferenceMix(options, requests, db);
    if (!expected.ok()) {
      report.Fail(expected.status().ToString());
      return;
    }
    mix = std::move(*expected);
  }
  // A traced run is one window that splits --seconds between an untraced
  // and a traced part, so it lasts about as long as an untraced run.
  const int windows = options.trace ? 1 : kWindows;
  const double window_s = options.seconds / (options.trace ? 2 : kWindows);
  Windows all;
  for (int w = 0; w < windows; ++w) {
    double setup_s = 0.0;
    auto server = StartServer(options, *data, mix.front(), report, &setup_s);
    if (!server.ok()) {
      report.Fail(std::string(name) + " set-up: " +
                  server.status().ToString());
      return;
    }
    ReadWindow window =
        RunReadWindow(**server, connections, mix, window_s, false);
    report.tally() += window.tally;
    if (options.trace) {
      ReadWindow traced =
          RunTracedReadWindow(**server, connections, mix, window_s);
      report.tally() += traced.tally;
      TracedRun run_info;
      run_info.data = &*data;
      run_info.mix = mix;
      run_info.connections = connections;
      run_info.port = (*server)->port();
      run_info.spans = std::move(traced.spans);
      run_info.untraced_ops_per_s = window.ops_per_s;
      run_info.traced_ops_per_s = traced.ops_per_s;
      ProbeLayers(options, run_info, report);
    } else {
      all.Add(**server, setup_s, window, report);
    }
    if (!(*server)->Stop(SIGTERM)) {
      report.Fail("server did not stop on SIGTERM");
    }
  }
  if (!options.trace) {
    all.AddTo(report);
  }
}

std::vector<Request> SmallMix() {
  std::vector<Request> mix;
  for (const char* query : {kPaperQuery, kRsQuery, kStQuery}) {
    for (SolverKind solver :
         {SolverKind::kCount, SolverKind::kPqe, SolverKind::kExpect}) {
      mix.push_back({solver, query});
    }
  }
  return mix;
}

}  // namespace

void RequestSpans::Record(uint64_t wall_ns,
                          const hierarq::obs::QueryStats& stats) {
  wall_us.push_back(static_cast<double>(wall_ns) / 1e3);
  queue_us.push_back(static_cast<double>(stats.queue_wait_ns) / 1e3);
  exec_us.push_back(static_cast<double>(stats.exec_ns) / 1e3);
  plan_cache_hits += stats.plan_cache_hit ? 1 : 0;
}

void RequestSpans::Append(const RequestSpans& other) {
  wall_us.insert(wall_us.end(), other.wall_us.begin(), other.wall_us.end());
  queue_us.insert(queue_us.end(), other.queue_us.begin(),
                  other.queue_us.end());
  exec_us.insert(exec_us.end(), other.exec_us.begin(), other.exec_us.end());
  plan_cache_hits += other.plan_cache_hits;
  rejected += other.rejected;
}

void RunWorkload(const Options& options, Report& report) {
  const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  if (options.workload == "small_requests") {
    // One client per core. With half as many, the server's threads idle
    // between requests and each request pays for waking them; on a shared
    // host that cost drifts, and the run-to-run spread was half again as
    // wide.
    RunReads(options, report, "small_requests", kSmall, SmallMix(), cores);
  } else if (options.workload == "large_reads") {
    // Three solvers, not two: with count and pqe half each, the median
    // fell on the boundary between their latency modes and jumped by a
    // fifth between runs.
    RunReads(options, report, "large_reads", kLarge,
             {{SolverKind::kCount, kPaperQuery},
              {SolverKind::kPqe, kPaperQuery},
              {SolverKind::kExpect, kPaperQuery}},
             std::min<size_t>(2, cores));
  } else {
    report.Fail("unknown workload '" + options.workload + "'");
  }
}

}  // namespace perfbench
