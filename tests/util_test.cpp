// Unit tests for src/util: rng, timer, table, args, memory, log.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "util/args.hpp"
#include "util/log.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace plt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRangeAndCoversRange) {
  Rng rng(7);
  std::map<std::uint64_t, int> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    seen[v]++;
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
  for (const auto& [value, count] : seen) EXPECT_GT(count, 700) << value;
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Degenerate interval.
  EXPECT_EQ(rng.next_in(42, 42), 42);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PoissonMeanApproximatelyCorrect) {
  Rng rng(11);
  for (const double mean : {0.5, 3.0, 10.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
      sum += static_cast<double>(rng.next_poisson(mean));
    const double observed = sum / n;
    EXPECT_NEAR(observed, mean, std::max(0.15, mean * 0.05)) << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.next_poisson(0.0), 0u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, JumpProducesIndependentStream) {
  Rng a(23);
  Rng b(23);
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds() * 1000.0 - 1e-9);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(1.5), "1.500 s");
  EXPECT_EQ(format_duration(0.0015), "1.50 ms");
  EXPECT_EQ(format_duration(15e-6), "15.00 us");
  EXPECT_EQ(format_duration(5e-9), "5 ns");
}

TEST(Memory, RssReadable) {
  // On Linux these should be nonzero for a live process.
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);
}

TEST(Memory, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(Table, AlignedTextOutput) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "x"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Args, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",       "--alpha=1", "--beta", "2",
                        "positional", "--gamma"};
  Args args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 1);
  EXPECT_EQ(args.get_int("beta", 0), 2);
  EXPECT_TRUE(args.get_bool("gamma", false));
  EXPECT_FALSE(args.get_bool("missing", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get("alpha", ""), "1");
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 1.0);
  EXPECT_EQ(args.get_int("absent", -7), -7);
}

TEST(Log, RespectsLevelThreshold) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  log_info() << "this should be dropped silently";
  set_log_level(before);
  SUCCEED();
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(3.5), "3.5");
  EXPECT_EQ(format_number(12.0), "12");
}

}  // namespace
}  // namespace plt
