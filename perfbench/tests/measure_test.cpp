// Tests of the benchmark's own measurement rules (src/measure.h).

#include "measure.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  // p90 of 100 samples is the 90th; ten lie above it.
  EXPECT_EQ(TailPercentile(Ramp(100), 0.9), 90.0);
  // One sample fewer leaves nine beyond: not reported.
  EXPECT_FALSE(TailPercentile(Ramp(99), 0.9).has_value());
  // p99.9 needs ten thousand samples.
  EXPECT_EQ(TailPercentile(Ramp(10000), 0.999), 9990.0);
  EXPECT_FALSE(TailPercentile(Ramp(9999), 0.999).has_value());
}

TEST(TailPercentileTest, MedianAndEdges) {
  EXPECT_EQ(TailPercentile(Ramp(21), 0.5), 11.0);
  EXPECT_FALSE(TailPercentile(Ramp(19), 0.5).has_value());
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
  EXPECT_FALSE(TailPercentile(Ramp(100), 1.0).has_value());
  EXPECT_FALSE(TailPercentile(Ramp(100), 0.0).has_value());
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(ProcStatTest, ParsesUtimeAndStime) {
  const char* stat =
      "4242 (hierarq_server) S 1 4242 4242 0 -1 4194560 2611 0 0 0 "
      "1234 567 0 0 20 0 9 0 100 1000000 500 18446744073709551615";
  const auto cpu = ParseProcStat(stat);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->utime_ticks, 1234u);
  EXPECT_EQ(cpu->stime_ticks, 567u);
  EXPECT_EQ(cpu->total(), 1801u);
}

TEST(ProcStatTest, CommandNameWithSpacesAndParens) {
  const char* stat =
      "7 (a) b (c) R 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 6 7";
  const auto cpu = ParseProcStat(stat);
  ASSERT_TRUE(cpu.has_value());
  EXPECT_EQ(cpu->utime_ticks, 11u);
  EXPECT_EQ(cpu->stime_ticks, 22u);
}

TEST(ProcStatTest, RejectsTruncatedOrGarbage) {
  EXPECT_FALSE(ParseProcStat("").has_value());
  EXPECT_FALSE(ParseProcStat("1 (x) S 1 2 3").has_value());
  EXPECT_FALSE(
      ParseProcStat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 ab 22 0").has_value());
}

TEST(StatusKbTest, FindsPeakRss) {
  const char* status =
      "Name:\thierarq_server\nVmPeak:\t  500000 kB\nVmHWM:\t  408760 kB\n"
      "VmRSS:\t  400000 kB\n";
  EXPECT_EQ(ParseStatusKb(status, "VmHWM"), 408760u);
  EXPECT_EQ(ParseStatusKb(status, "VmRSS"), 400000u);
  // "VmHWM" must not match a longer key that merely starts with it.
  EXPECT_FALSE(ParseStatusKb("VmHWMx:\t1 kB\n", "VmHWM").has_value());
  EXPECT_FALSE(ParseStatusKb(status, "VmSwap").has_value());
  EXPECT_FALSE(ParseStatusKb("VmHWM:\t kB\n", "VmHWM").has_value());
}

TEST(TallyTest, EveryKindOfErrorCounts) {
  Tally tally;
  tally.ok = 96;
  tally.refused = 1;
  tally.failed = 1;
  tally.wrong = 2;
  EXPECT_EQ(tally.attempted(), 100u);
  EXPECT_EQ(tally.errors(), 4u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.04);
  Tally more;
  more.ok = 100;
  tally += more;
  EXPECT_EQ(tally.attempted(), 200u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.02);
  EXPECT_DOUBLE_EQ(Tally{}.error_rate(), 0.0);
}

TEST(NearlyEqualTest, RelativeTolerance) {
  EXPECT_TRUE(NearlyEqual(0.5, 0.5));
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(NearlyEqual(1.0, 1.0 + 1e-9));
  EXPECT_TRUE(NearlyEqual(1e-200, 1e-200 * (1 + 1e-12)));
  EXPECT_FALSE(NearlyEqual(0.0, 1e-300));
}

}  // namespace
}  // namespace perfbench
