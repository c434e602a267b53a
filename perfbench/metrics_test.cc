// Unit tests of the benchmark's own helpers (metrics.h). Build and run:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include "perfbench/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending: the helpers must sort
  }
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(Ramp(10), 50), 5);
  EXPECT_EQ(Percentile(Ramp(10), 90), 9);
  EXPECT_EQ(Percentile(Ramp(10), 91), 10);
  EXPECT_EQ(Percentile(Ramp(1), 99), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median(Ramp(100)), 50);
}

TEST(TailOf, PicksHighestPercentileWithTenBeyond) {
  // 100 samples: p90 has rank 90 and exactly 10 beyond; p95 has only 5.
  Tail t = TailOf(Ramp(100));
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);

  // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
  t = TailOf(Ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);

  // 640 samples: p98 (rank 628) leaves 12; p99 (rank 634) leaves 6.
  t = TailOf(Ramp(640));
  EXPECT_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.beyond, 12u);
  EXPECT_EQ(t.value, 628);
}

TEST(TailOf, TooFewSamplesFallsBackToMedian) {
  Tail t = TailOf(Ramp(12));
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 6);
  EXPECT_EQ(t.samples, 12u);
  EXPECT_EQ(t.beyond, 6u);

  t = TailOf({});
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.samples, 0u);
}

TEST(ValidMetricName, AcceptsOnlyTheNameAlphabet) {
  EXPECT_TRUE(ValidMetricName("read_p50_s"));
  EXPECT_TRUE(ValidMetricName("udf.serialize_ns_per_B"));
  EXPECT_TRUE(ValidMetricName("a-b.c_9"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'x')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'x')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/y"));
  EXPECT_FALSE(ValidMetricName("quote\""));
}

Span At(std::int64_t start, std::int64_t end) {
  Span s;
  s.sim_start = start;
  s.sim_end = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Span parent = At(0, 100);
  EXPECT_EQ(SelfTime(parent, {}), 100);
  EXPECT_EQ(SelfTime(parent, {At(10, 30)}), 80);
  // Overlapping children count once: [10, 50) covered.
  EXPECT_EQ(SelfTime(parent, {At(10, 30), At(20, 50)}), 60);
  // Disjoint children in any order.
  EXPECT_EQ(SelfTime(parent, {At(60, 70), At(0, 10)}), 80);
  // Parts outside the parent are ignored; a child covering it all
  // leaves nothing.
  EXPECT_EQ(SelfTime(parent, {At(-50, 20), At(90, 500)}), 70);
  EXPECT_EQ(SelfTime(parent, {At(-1, 101)}), 0);
  // A nested child inside another adds nothing.
  EXPECT_EQ(SelfTime(parent, {At(10, 90), At(40, 50)}), 20);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Begin("x", 0, 1, 0, 5), 0u);
  off.End(0, 9);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Tracer, ParentsChildrenAndChromeExport) {
  Tracer t(true);
  const std::uint64_t phase = t.Begin("phase", 0, 0, -1, 0, 0.5);
  const std::uint64_t a = t.Begin("get", phase, 1, 0, 10);
  const std::uint64_t b = t.Begin("get", phase, 2, 1, 20);
  t.End(a, 40);
  t.End(b, 60);
  t.End(phase, 100, 1.5);
  ASSERT_EQ(t.spans().size(), 3u);
  const std::vector<Span> kids = t.ChildrenOf(phase);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(SelfTime(*t.Find(phase), kids), 50);

  auto parsed = ros::json::Parse(t.ChromeTraceJson());
  ASSERT_TRUE(parsed.ok());
  const ros::json::Value& events = (*parsed)["traceEvents"];
  ASSERT_EQ(events.as_array().size(), 3u);
  const ros::json::Value& get = events.as_array()[1];
  EXPECT_EQ(get["name"].as_string(), "get");
  EXPECT_EQ(get["ph"].as_string(), "X");
  EXPECT_DOUBLE_EQ(get["ts"].as_double(), 0.010);  // microseconds
  EXPECT_DOUBLE_EQ(get["dur"].as_double(), 0.030);
  EXPECT_EQ(get["args"]["parent"].as_int(), 1);
  EXPECT_DOUBLE_EQ(events.as_array()[0]["args"]["host_end_s"].as_double(),
                   1.5);
}

TEST(Report, RejectsBadNamesDuplicatesAndNonFinite) {
  Report r;
  EXPECT_TRUE(r.Add("host_s", 1.0, "s", Clock::kHost).ok());
  EXPECT_FALSE(r.Add("host_s", 2.0, "s", Clock::kHost).ok());
  EXPECT_FALSE(r.Add("bad name", 2.0, "s", Clock::kHost).ok());
  EXPECT_FALSE(
      r.Add("nan_metric", std::nan(""), "s", Clock::kHost).ok());
  EXPECT_EQ(r.metrics().size(), 1u);
}

TEST(Report, JsonRoundTripKeepsEveryDigit) {
  Report r;
  ASSERT_TRUE(r.Add("read_p50_s", 309.09084712345678, "s", Clock::kSim).ok());
  ASSERT_TRUE(r.Add("peak_rss_MB", 293.826, "MB", Clock::kHost).ok());
  ASSERT_TRUE(r.Add("mech.loads", 42, "count", Clock::kNone).ok());
  const std::string text = r.ToJson().Dump();
  auto value = ros::json::Parse(text);
  ASSERT_TRUE(value.ok());
  auto back = Report::FromJson(*value);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->metrics().size(), 3u);
  for (const Metric& m : r.metrics()) {
    const Metric* b = back->Find(m.name);
    ASSERT_NE(b, nullptr) << m.name;
    EXPECT_EQ(b->value, m.value) << m.name;  // bit-exact
    EXPECT_EQ(b->unit, m.unit);
    EXPECT_EQ(b->clock, m.clock);
  }
  EXPECT_EQ(back->ToJson().Dump(), text);
}

TEST(Report, FromJsonRejectsMalformedEntries) {
  auto bad = ros::json::Parse(R"({"x": {"value": "1", "unit": "s",)"
                              R"( "clock": "sim"}})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(Report::FromJson(*bad).ok());
  auto missing = ros::json::Parse(R"({"x": {"value": 1}})");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(Report::FromJson(*missing).ok());
  auto name = ros::json::Parse(
      R"({"bad name": {"value": 1, "unit": "s", "clock": "sim"}})");
  ASSERT_TRUE(name.ok());
  EXPECT_FALSE(Report::FromJson(*name).ok());
}

}  // namespace
}  // namespace perfbench
