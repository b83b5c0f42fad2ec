// The traced run's per-layer metrics. Each probe times calls into one
// module's public functions from the benchmark's side, on the workload's
// own generated database, queries and delta stream; nothing inside the
// program is changed. Request-side numbers (queue wait, execution,
// residual) come from the workload's traced window, where every request
// carried the server's QueryStats back.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <thread>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/incremental/incremental_evaluator.h"
#include "hierarq/net/client.h"
#include "hierarq/net/wire.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/persist/fault_io.h"
#include "hierarq/persist/persistor.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/eval_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hierarq::ConjunctiveQuery;
using hierarq::Fact;
using hierarq::Status;
using hierarq::VersionedDatabase;
using hierarq::obs::Tracer;

constexpr double kProbeSeconds = 0.5;
constexpr size_t kMinProbeCalls = 16;

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Mean microseconds per call of `fn`, repeated until `kProbeSeconds`
/// (at least kMinProbeCalls times).
template <typename Fn>
double MeanCallUs(Fn&& fn) {
  const uint64_t start = Tracer::NowNs();
  const uint64_t budget = static_cast<uint64_t>(kProbeSeconds * 1e9);
  size_t calls = 0;
  while (calls < kMinProbeCalls || Tracer::NowNs() - start < budget) {
    fn(calls);
    ++calls;
  }
  return Us(Tracer::NowNs() - start) / static_cast<double>(calls);
}

/// Records Write and Sync time and written bytes around the production
/// file I/O, so a Persistor append splits into write and fsync.
class TimingFileIo : public hierarq::persist::FileIo {
 public:
  Status MakeDir(const std::string& path) override {
    return real_.MakeDir(path);
  }
  hierarq::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return real_.ListDir(path);
  }
  bool Exists(const std::string& path) override { return real_.Exists(path); }
  Status Remove(const std::string& path) override {
    return real_.Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return real_.Rename(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return real_.SyncDir(path);
  }
  hierarq::Result<std::string> ReadFile(const std::string& path) override {
    return real_.ReadFile(path);
  }
  hierarq::Result<uint64_t> OpenForWrite(const std::string& path,
                                         bool truncate) override {
    return real_.OpenForWrite(path, truncate);
  }
  Status Write(uint64_t file, std::string_view bytes) override {
    const uint64_t start = Tracer::NowNs();
    Status status = real_.Write(file, bytes);
    write_ns += Tracer::NowNs() - start;
    written_bytes += bytes.size();
    return status;
  }
  Status Sync(uint64_t file) override {
    const uint64_t start = Tracer::NowNs();
    Status status = real_.Sync(file);
    sync_ns += Tracer::NowNs() - start;
    return status;
  }
  Status Close(uint64_t file) override { return real_.Close(file); }

  uint64_t write_ns = 0;
  uint64_t sync_ns = 0;
  uint64_t written_bytes = 0;

 private:
  hierarq::persist::RealFileIo real_;
};

/// Ping round trips from `connections` clients at once.
double PingRttUs(uint16_t port, size_t connections) {
  std::atomic<uint64_t> pings{0};
  std::atomic<uint64_t> busy_ns{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < connections; ++i) {
    threads.emplace_back([&] {
      hierarq::net::HierarqClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        return;
      }
      const uint64_t start = Tracer::NowNs();
      uint64_t mine = 0;
      while (Tracer::NowNs() - start < static_cast<uint64_t>(kProbeSeconds * 1e9)) {
        if (!client.Ping().ok()) {
          break;
        }
        ++mine;
      }
      pings += mine;
      busy_ns += Tracer::NowNs() - start;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return pings == 0 ? 0.0 : Us(busy_ns) / static_cast<double>(pings);
}

/// net.* and query.*: the request path up to the service.
void ProbeNetAndQuery(const TracedRun& run, Report& report) {
  const RequestSpans& spans = run.spans;
  const double ping_us = PingRttUs(run.port, run.connections);

  std::vector<std::string> frames;
  std::vector<hierarq::net::QueryResult> results;
  for (const Expected& item : run.mix) {
    hierarq::net::QueryRequest request;
    request.solver = item.request.solver;
    request.query = item.request.query;
    frames.push_back(hierarq::net::EncodeQueryRequest(
        request, hierarq::net::WireFormat::kNative));
    hierarq::net::QueryResult result;
    result.solver = item.answer.solver;
    result.count = item.answer.count;
    result.number = item.answer.number;
    results.push_back(result);
  }
  size_t failed_calls = 0;
  const double decode_us = MeanCallUs([&](size_t i) {
    auto decoded = hierarq::net::DecodeQueryRequest(
        frames[i % frames.size()], hierarq::net::WireFormat::kNative);
    failed_calls += decoded.ok() ? 0 : 1;
  });
  const double encode_us = MeanCallUs([&](size_t i) {
    failed_calls += hierarq::net::EncodeQueryResult(
                        results[i % results.size()],
                        hierarq::net::WireFormat::kNative, false, false)
                        .empty();
  });
  const double parse_us = MeanCallUs([&](size_t i) {
    auto query = hierarq::ParseQuery(run.mix[i % run.mix.size()].request.query);
    failed_calls += query.ok() ? 0 : 1;
  });
  std::vector<ConjunctiveQuery> queries;
  for (const Expected& item : run.mix) {
    queries.push_back(hierarq::ParseQueryOrDie(item.request.query));
  }
  const double plan_us = MeanCallUs([&](size_t i) {
    auto plan = hierarq::EliminationPlan::Build(queries[i % queries.size()]);
    failed_calls += plan.ok() ? 0 : 1;
  });
  if (failed_calls > 0) {
    report.Fail("a codec, parse or plan probe call failed");
  }

  const double n = static_cast<double>(spans.wall_us.size());
  const double wall_us = Mean(spans.wall_us);
  const double queue_us = Mean(spans.queue_us);
  const double exec_us = Mean(spans.exec_us);
  const double residual_us = wall_us - queue_us - exec_us;
  report.Add("net.ping_rtt_us", ping_us, "us");
  report.Add("net.decode_query_us", decode_us, "us");
  report.Add("net.encode_result_us", encode_us, "us");
  report.Add("net.queue_wait_us", queue_us, "us");
  report.Add("net.rejected", static_cast<double>(spans.rejected), "count");
  report.Add("net.residual_us", residual_us, "us");
  report.Add("net.residual_share", wall_us > 0 ? residual_us / wall_us : 0.0,
             "ratio");
  report.Add("query.parse_us", parse_us, "us");
  report.Add("query.plan_build_us", plan_us, "us");
  report.Add("query.plan_cache_hit_ratio",
             n > 0 ? static_cast<double>(spans.plan_cache_hits) / n : 0.0,
             "ratio");
  report.Add("service.exec_ms", exec_us / 1e3, "ms");
  const uint64_t lookups =
      spans.annotation_cache_hits + spans.annotation_cache_misses;
  report.Add("service.annotation_cache_hit_ratio",
             lookups > 0 ? static_cast<double>(spans.annotation_cache_hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio");
  if (!spans.has_cache_counts) {
    report.Fail("could not scrape the annotation cache counters");
  }

  // The residual is what the wire, the codec, the parse and the thread
  // hops cost; what the probes cannot attribute stays its own number.
  const double attributed =
      queue_us + exec_us + ping_us + decode_us + parse_us + encode_us;
  const double unattributed_us = wall_us - attributed;
  report.Add("net.unattributed_us", unattributed_us, "us");
  report.Info("waterfall_us",
              "wall=" + std::to_string(wall_us) +
                  " queue=" + std::to_string(queue_us) +
                  " exec=" + std::to_string(exec_us) +
                  " ping_rtt=" + std::to_string(ping_us) +
                  " decode=" + std::to_string(decode_us) +
                  " parse=" + std::to_string(parse_us) +
                  " encode=" + std::to_string(encode_us) +
                  " unattributed=" + std::to_string(unattributed_us) +
                  " (n=" + std::to_string(spans.wall_us.size()) + ")");
  // The server-side spans come from one request each, so queue + exec
  // can never exceed the wall; the probed parts are averages measured
  // apart, so allow them to over-attribute by a quarter at most.
  if (n == 0 || queue_us + exec_us > wall_us ||
      attributed > 1.25 * wall_us) {
    report.Fail("layer accounting: attributed " +
                std::to_string(attributed) + " us of a " +
                std::to_string(wall_us) + " us wall");
  }
}

/// The delta lines the probes replay: the workload's own update stream.
std::vector<std::string> ProbeLines(const Options& options,
                                    const Dataset& data, size_t n) {
  ToggleStream stream(data.tid, data.shape, options.seed);
  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) {
    lines.push_back(stream.Next());
  }
  return lines;
}

/// service.*, data.* and core.* on the workload's database.
void ProbeServiceDataCore(const Options& options, const TracedRun& run,
                          Report& report) {
  const Dataset& data = *run.data;
  const ConjunctiveQuery query = hierarq::ParseQueryOrDie(kPaperQuery);
  const std::vector<const ConjunctiveQuery*> one{&query};
  const std::function<uint64_t(const Fact&)> unit = [](const Fact&) {
    return uint64_t{1};
  };
  const hierarq::CountMonoid monoid;

  // service: warm (same generation, cached annotation) vs cold (bumped).
  {
    VersionedDatabase db(data.tid);
    hierarq::EvalService service;
    hierarq::Dictionary dict;
    std::vector<double> warm_ms, cold_ms;
    for (const std::string& line : ProbeLines(options, data, 3)) {
      auto batch = hierarq::ParseDeltaLine(line, &dict, db);
      if (!batch.ok()) {
        report.Fail("probe delta: " + batch.status().ToString());
        return;
      }
      db.Apply(*batch);
      uint64_t start = Tracer::NowNs();
      auto cold = service.EvaluateMany(monoid, one, db, unit, "probe.count");
      cold_ms.push_back(Ms(Tracer::NowNs() - start));
      for (int rep = 0; rep < 3; ++rep) {
        start = Tracer::NowNs();
        auto warm =
            service.EvaluateMany(monoid, one, db, unit, "probe.count");
        warm_ms.push_back(Ms(Tracer::NowNs() - start));
        if (!warm.front().ok() || !cold.front().ok() ||
            *warm.front() != *cold.front()) {
          report.Fail("service probe: warm and cold answers differ");
        }
      }
    }
    report.Add("service.evaluate_warm_ms", Median(warm_ms), "ms");
    report.Add("service.evaluate_cold_ms", Median(cold_ms), "ms");
  }

  report.Add("data.load_s", data.load_s, "s");

  std::vector<double> annotate_ms, replay_ms, rule1_ms, rule2_ms, step_max_ms;
  hierarq::obs::QueryStats stats;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t start = Tracer::NowNs();
    auto pool = hierarq::AnnotateForQuerySet<uint64_t>(
        one, data.tid.facts(), unit,
        [&monoid](uint64_t a, uint64_t b) { return monoid.Plus(a, b); });
    annotate_ms.push_back(Ms(Tracer::NowNs() - start));

    hierarq::Evaluator evaluator;
    auto plan = evaluator.GetPlan(query);
    if (!plan.ok()) {
      report.Fail("plan: " + plan.status().ToString());
      return;
    }
    const auto bases = hierarq::ResolveBases(query, pool);
    hierarq::obs::Tracer tracer;
    stats.Reset();
    tracer.Install();
    start = Tracer::NowNs();
    {
      hierarq::obs::ScopedQueryStats scope(&stats);
      (void)evaluator.ReplayPlan(**plan, monoid, query, bases);
    }
    replay_ms.push_back(Ms(Tracer::NowNs() - start));
    tracer.Uninstall();
    uint64_t by_rule[3] = {0, 0, 0};
    uint64_t longest = 0;
    for (const auto& event : tracer.Snapshot()) {
      if (event.kind != hierarq::obs::TraceEvent::Kind::kStep) {
        continue;
      }
      by_rule[event.step.rule == 2 ? 2 : 1] += event.dur_ns;
      longest = std::max(longest, event.dur_ns);
    }
    rule1_ms.push_back(Ms(by_rule[1]));
    rule2_ms.push_back(Ms(by_rule[2]));
    step_max_ms.push_back(Ms(longest));
  }
  const double facts = static_cast<double>(data.tid.NumFacts());
  report.Add("data.annotate_ms", Median(annotate_ms), "ms");
  report.Add("data.annotate_ns_per_fact", Median(annotate_ms) * 1e6 / facts,
             "ns");
  report.Add("core.replay_ms", Median(replay_ms), "ms");
  report.Add("core.rule1_ms", Median(rule1_ms), "ms");
  report.Add("core.rule2_ms", Median(rule2_ms), "ms");
  report.Add("core.step_max_ms", Median(step_max_ms), "ms");
  report.Add("core.rows_scanned",
             static_cast<double>(stats.rule1_rows_scanned +
                                 stats.rule2_rows_scanned),
             "count");
  report.Add("core.parallel_steps", static_cast<double>(stats.steps_parallel),
             "count");
}

/// Mean microseconds the view of `query` spends on each of `batches`
/// (the view's own Apply timer, so the database apply is not in it), and
/// the Attach time.
template <typename M>
std::pair<double, double> ViewUpdateUs(
    const Dataset& data, const ConjunctiveQuery& query, M monoid,
    typename hierarq::IncrementalEvaluator<M>::Annotator annotator,
    const std::vector<hierarq::DeltaBatch>& batches, Report& report) {
  VersionedDatabase db(data.tid);
  hierarq::IncrementalEvaluator<M> evaluator(monoid, &db, annotator);
  const uint64_t start = Tracer::NowNs();
  auto handle = evaluator.Attach(query);
  if (!handle.ok()) {
    report.Fail("attach failed in the view probe");
    return {0.0, 0.0};
  }
  const double attach_ms = Ms(Tracer::NowNs() - start);
  const uint64_t before = evaluator.view(*handle).stats().apply_ns;
  for (const hierarq::DeltaBatch& batch : batches) {
    evaluator.ApplyDelta(batch);
  }
  const uint64_t view_ns = evaluator.view(*handle).stats().apply_ns - before;
  return {Us(view_ns) / static_cast<double>(batches.size()), attach_ms};
}

/// incremental.*: parse, apply, and each view's maintenance.
void ProbeIncremental(const Options& options, const TracedRun& run,
                      Report& report) {
  const Dataset& data = *run.data;
  const size_t n = data.tid.NumFacts() > 10000 ? 400 : 2000;
  const std::vector<std::string> lines = ProbeLines(options, data, n);
  hierarq::Dictionary dict;
  std::vector<hierarq::DeltaBatch> batches;
  double parse_us = 0.0;
  double apply_us = 0.0;
  {
    VersionedDatabase db(data.tid);
    for (const std::string& line : lines) {
      uint64_t start = Tracer::NowNs();
      auto batch = hierarq::ParseDeltaLine(line, &dict, db);
      parse_us += Us(Tracer::NowNs() - start);
      if (!batch.ok()) {
        report.Fail("probe delta: " + batch.status().ToString());
        return;
      }
      start = Tracer::NowNs();
      db.Apply(*batch);
      apply_us += Us(Tracer::NowNs() - start);
      batches.push_back(std::move(*batch));
    }
  }
  parse_us /= static_cast<double>(n);
  apply_us /= static_cast<double>(n);
  const ConjunctiveQuery query = hierarq::ParseQueryOrDie(kPaperQuery);
  const auto [count_us, count_attach_ms] = ViewUpdateUs(
      data, query, hierarq::CountMonoid{},
      [](const Fact&, double) -> uint64_t { return 1; }, batches, report);
  const auto [pqe_us, pqe_attach_ms] = ViewUpdateUs(
      data, query, hierarq::ProbMonoid{},
      [](const Fact&, double w) { return std::clamp(w, 0.0, 1.0); }, batches,
      report);
  report.Add("incremental.parse_delta_us", parse_us, "us");
  report.Add("incremental.apply_us", apply_us, "us");
  report.Add("incremental.view_count_us", count_us, "us");
  report.Add("incremental.view_pqe_us", pqe_us, "us");
  report.Add("incremental.attach_ms", count_attach_ms + pqe_attach_ms, "ms");
}

/// persist.*: appends through the production I/O with write and fsync
/// timed apart, a snapshot, and a recovery boot, all at |D|.
void ProbePersist(const Options& options, const TracedRun& run,
                  Report& report) {
  const Dataset& data = *run.data;
  const std::string dir = options.work_dir + "/probe-persist";
  std::error_code ec;
  fs::remove_all(dir, ec);
  constexpr size_t kAppends = 200;
  constexpr size_t kTail = 50;
  const std::vector<std::string> lines =
      ProbeLines(options, data, kAppends + kTail);
  hierarq::obs::Logger::Options log_options;
  log_options.min_level = hierarq::obs::LogLevel::kError;
  hierarq::obs::Logger quiet(log_options);
  TimingFileIo io;
  hierarq::persist::Persistor::Options persist_options;
  persist_options.io = &io;
  persist_options.logger = &quiet;
  hierarq::Dictionary dict;
  double append_us = 0.0, write_us = 0.0, fsync_us = 0.0, bytes = 0.0;
  double snapshot_ms = 0.0;
  {
    auto persistor = hierarq::persist::Persistor::Open(dir, persist_options);
    if (!persistor.ok()) {
      report.Fail("persist open: " + persistor.status().ToString());
      return;
    }
    auto booted = (*persistor)->Boot(VersionedDatabase(data.tid), &dict);
    if (!booted.ok()) {
      report.Fail("persist boot: " + booted.status().ToString());
      return;
    }
    VersionedDatabase db = std::move(*booted);
    const auto append = [&](const std::string& line) {
      auto batch = hierarq::ParseDeltaLine(line, &dict, db);
      if (!batch.ok()) {
        return batch.status();
      }
      HIERARQ_RETURN_NOT_OK((*persistor)->Append(
          db.generation() + 1, hierarq::RenderDeltaLine(*batch, dict)));
      db.Apply(*batch);
      return Status::OK();
    };
    const uint64_t write0 = io.write_ns, sync0 = io.sync_ns,
                   bytes0 = io.written_bytes;
    for (size_t i = 0; i < kAppends; ++i) {
      const uint64_t start = Tracer::NowNs();
      if (const Status s = append(lines[i]); !s.ok()) {
        report.Fail("persist append: " + s.ToString());
        return;
      }
      append_us += Us(Tracer::NowNs() - start);
    }
    append_us /= kAppends;
    write_us = Us(io.write_ns - write0) / kAppends;
    fsync_us = Us(io.sync_ns - sync0) / kAppends;
    bytes = static_cast<double>(io.written_bytes - bytes0) / kAppends;
    const uint64_t start = Tracer::NowNs();
    if (const Status s = (*persistor)->WriteSnapshot(db, dict); !s.ok()) {
      report.Fail("persist snapshot: " + s.ToString());
      return;
    }
    snapshot_ms = Ms(Tracer::NowNs() - start);
    db.TruncateLog(db.generation());
    for (size_t i = kAppends; i < lines.size(); ++i) {
      if (const Status s = append(lines[i]); !s.ok()) {
        report.Fail("persist append: " + s.ToString());
        return;
      }
    }
  }
  // Recovery: the snapshot plus a kTail-record WAL tail.
  hierarq::persist::Persistor::Options boot_options;
  boot_options.logger = &quiet;
  hierarq::Dictionary boot_dict;
  const uint64_t start = Tracer::NowNs();
  auto reopened = hierarq::persist::Persistor::Open(dir, boot_options);
  double boot_ms = 0.0;
  if (reopened.ok()) {
    auto recovered = (*reopened)->Boot(VersionedDatabase(), &boot_dict);
    boot_ms = Ms(Tracer::NowNs() - start);
    if (!recovered.ok() || recovered->generation() != lines.size()) {
      report.Fail("persist recovery lost generations");
    }
  } else {
    report.Fail("persist reopen: " + reopened.status().ToString());
  }
  fs::remove_all(dir, ec);
  report.Add("persist.append_us", append_us, "us");
  report.Add("persist.write_us", write_us, "us");
  report.Add("persist.fsync_us", fsync_us, "us");
  report.Add("persist.bytes_per_update", bytes, "bytes");
  report.Add("persist.snapshot_ms", snapshot_ms, "ms");
  report.Add("persist.boot_ms", boot_ms, "ms");
}

}  // namespace

void ProbeLayers(const Options& options, const TracedRun& run,
                 Report& report) {
  ProbeNetAndQuery(run, report);
  ProbeServiceDataCore(options, run, report);
  ProbeIncremental(options, run, report);
  ProbePersist(options, run, report);
  report.Add("obs.trace_overhead_ratio",
             run.untraced_ops_per_s > 0
                 ? run.traced_ops_per_s / run.untraced_ops_per_s
                 : 0.0,
             "ratio");
}

}  // namespace perfbench
