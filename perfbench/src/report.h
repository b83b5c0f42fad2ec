#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one benchmark run produces: metrics by name and unit, the
// self-describing facts of the run, and every answer tally and check.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Perturbs every reference answer: the mutation check that shows the
  /// answer check can fail.
  bool corrupt_reference = false;
  std::string server_bin;
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string key, std::string value) {
    info_.emplace_back(std::move(key), std::move(value));
  }
  /// A failed check; the run is reported as not correct.
  void Fail(std::string what) { failures_.push_back(std::move(what)); }

  Tally& tally() { return tally_; }
  const Tally& tally() const { return tally_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::pair<std::string, std::string>>& info() const {
    return info_;
  }
  const std::vector<std::string>& failures() const { return failures_; }
  bool correct() const { return failures_.empty() && tally_.errors() == 0; }

 private:
  Tally tally_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
