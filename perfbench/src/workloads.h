#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The two workloads and the pieces they share with the layer probes.

#include <cstdint>
#include <string>
#include <vector>

#include "hierarq/data/tid_database.h"
#include "hierarq/net/wire.h"
#include "hierarq/obs/query_stats.h"
#include "inputs.h"
#include "report.h"

namespace perfbench {

/// A generated database, its fact file, and the reference copy the
/// benchmark loaded from that file.
struct Dataset {
  DatasetShape shape;
  std::string path;
  hierarq::TidDatabase tid;
  double load_s = 0.0;  ///< LoadTidDatabaseFromFile of the reference copy.
};

/// A request of the traffic mix with its reference answer.
struct Expected {
  Request request;
  Answer answer;
};

/// Client-side spans of traced query requests, joined with the server's
/// own accounting (QueryStats) of each.
struct RequestSpans {
  void Record(uint64_t wall_ns, const hierarq::obs::QueryStats& stats);
  void Append(const RequestSpans& other);

  std::vector<double> wall_us;
  std::vector<double> queue_us;
  std::vector<double> exec_us;
  uint64_t plan_cache_hits = 0;
  uint64_t rejected = 0;
  uint64_t annotation_cache_hits = 0;    ///< /metrics delta over the window.
  uint64_t annotation_cache_misses = 0;  ///< /metrics delta over the window.
  bool has_cache_counts = false;
};

/// What a workload hands to the layer probes of a traced run.
struct TracedRun {
  const Dataset* data = nullptr;
  std::vector<Expected> mix;
  size_t connections = 1;
  uint16_t port = 0;  ///< The server the workload ran against.
  RequestSpans spans;
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
};

/// Runs `options.workload` and fills `report`. Unknown names fail.
void RunWorkload(const Options& options, Report& report);

/// Per-layer metrics of a traced run (layers.cpp).
void ProbeLayers(const Options& options, const TracedRun& run,
                 Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
