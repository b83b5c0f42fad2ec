#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Pure measurement helpers of the served-system benchmark: percentile
// selection, /proc parsing and answer tallies. Header-only and free of hierarq types so that
// tests/measure_test.cpp can pin each rule on its own.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the "tail" is one or two unlucky samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank q-quantile (0 < q < 1) of `sorted` (ascending), or
/// nullopt when fewer than kMinSamplesBeyond samples lie above the
/// selected rank. p90 thus needs >= 100 samples, p99.9 >= 10000.
inline std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                            double q) {
  const size_t n = sorted.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) {
    return std::nullopt;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  const size_t index = rank - 1;
  if (n - 1 - index < kMinSamplesBeyond) {
    return std::nullopt;
  }
  return sorted[index];
}

/// Plain median (mean of the middle pair for even sizes); 0 when empty.
/// For small repeated measurements such as set-up times.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

/// CPU time of one process, in clock ticks, from /proc/<pid>/stat.
struct ProcCpu {
  uint64_t utime_ticks = 0;
  uint64_t stime_ticks = 0;
  uint64_t total() const { return utime_ticks + stime_ticks; }
};

/// Parses the text of /proc/<pid>/stat. The command name (field 2) is
/// parenthesised and may itself hold spaces and ')', so fields are
/// counted from the LAST ')'; utime and stime are fields 14 and 15.
inline std::optional<ProcCpu> ParseProcStat(std::string_view text) {
  const size_t close = text.rfind(')');
  if (close == std::string_view::npos) {
    return std::nullopt;
  }
  std::string_view rest = text.substr(close + 1);
  // rest starts at field 3 (state); utime is field 14 => 11 fields on.
  uint64_t values[2] = {0, 0};
  int field = 3;
  size_t pos = 0;
  while (pos < rest.size() && field <= 15) {
    while (pos < rest.size() && rest[pos] == ' ') {
      ++pos;
    }
    size_t end = pos;
    while (end < rest.size() && rest[end] != ' ' && rest[end] != '\n') {
      ++end;
    }
    if (end == pos) {
      break;
    }
    if (field == 14 || field == 15) {
      uint64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(rest.data() + pos, rest.data() + end, value);
      if (ec != std::errc() || ptr != rest.data() + end) {
        return std::nullopt;
      }
      values[field - 14] = value;
    }
    ++field;
    pos = end;
  }
  if (field <= 15) {
    return std::nullopt;
  }
  return ProcCpu{values[0], values[1]};
}

/// Parses the value of one "Key:   N kB" line of /proc/<pid>/status
/// (e.g. "VmHWM", the peak resident set), in kB.
inline std::optional<uint64_t> ParseStatusKb(std::string_view text,
                                             std::string_view key) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':') {
      continue;
    }
    line.remove_prefix(key.size() + 1);
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(line.data(), line.data() + line.size(), value);
    if (ec != std::errc() || ptr == line.data()) {
      return std::nullopt;
    }
    return value;
  }
  return std::nullopt;
}

/// Relative tolerance of a floating answer (pqe, expect), as in the
/// repository's own differential tests.
inline constexpr double kRelTol = 1e-11;

inline bool NearlyEqual(double got, double want) {
  if (got == want) {
    return true;
  }
  const double scale = std::max(std::fabs(got), std::fabs(want));
  return std::fabs(got - want) <= kRelTol * scale;
}

/// Every attempted operation ends exactly one way. Refused (the server
/// shed it), failed (transport or server error) and wrong answers all
/// count against error_rate.
struct Tally {
  uint64_t ok = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  uint64_t attempted() const { return ok + refused + failed + wrong; }
  uint64_t errors() const { return refused + failed + wrong; }
  double error_rate() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(errors()) /
                                  static_cast<double>(attempted());
  }
  Tally& operator+=(const Tally& other) {
    ok += other.ok;
    refused += other.refused;
    failed += other.failed;
    wrong += other.wrong;
    return *this;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
