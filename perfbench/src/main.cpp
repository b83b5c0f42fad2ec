// perfbench — the served-system benchmark of hierarq.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server-bin PATH --work-dir DIR [--corrupt-reference]
//
// Generates the workload's inputs from the seed, drives the real
// hierarq_server, checks every answer against an in-process reference,
// and prints one `metric NAME VALUE UNIT` line per metric, `info KEY
// VALUE` lines that describe the run, and last one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 1 when any answer or check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "hierarq/data/storage.h"
#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR "
               "[--corrupt-reference]\n");
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--server-bin") {
      options.server_bin = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.server_bin.empty() ||
      options.work_dir.empty() || !(options.seconds > 0)) {
    return Usage();
  }

  perfbench::Report report;
  report.Info("workload", options.workload);
  report.Info("seed", std::to_string(options.seed));
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("default_storage",
              hierarq::StorageKindName(hierarq::kDefaultStorageKind));
  report.Info("seconds", JsonNumber(options.seconds));
  perfbench::RunWorkload(options, report);

  const perfbench::Tally& tally = report.tally();
  report.Info("answers",
              std::to_string(tally.ok) + " ok, " +
                  std::to_string(tally.refused) + " refused, " +
                  std::to_string(tally.failed) + " failed, " +
                  std::to_string(tally.wrong) + " wrong");
  report.Info("error_rate", JsonNumber(tally.error_rate()));
  for (const auto& [key, value] : report.info()) {
    std::printf("info %s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& metric : report.metrics()) {
    std::printf("metric %s %s %s\n", metric.name.c_str(),
                JsonNumber(metric.value).c_str(), metric.unit.c_str());
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += JsonString(metric.name) +
               ": {\"value\": " + JsonNumber(metric.value) +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  // A run with no attempts still reports one: the workload itself.
  const uint64_t attempted = std::max<uint64_t>(1, tally.attempted());
  const uint64_t failed = std::min<uint64_t>(
      attempted, tally.errors() + (report.failures().empty() ? 0 : 1));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
