// Helpers of the ROS benchmark that carry no simulator state: tail
// percentile selection, metric-name validation, in-memory spans with
// self-time and Chrome trace-event export, and the metric report with its
// JSON round trip. Unit-tested by metrics_test.cc.
#ifndef ROS_PERFBENCH_METRICS_H_
#define ROS_PERFBENCH_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"

namespace perfbench {

// Nearest-rank percentile candidates for a tail metric, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 98.0, 95.0,
                                         90.0, 80.0, 75.0, 50.0};
// A tail percentile must leave at least this many samples beyond it.
inline constexpr std::size_t kTailMinBeyond = 10;

struct Tail {
  double percentile = 0;  // e.g. 95.0
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked strictly above the percentile
  bool supported = false;  // false: fewer than kTailMinBeyond beyond p50
};

// Nearest-rank percentile (rank ceil(p/100 * n), 1-based) of `samples`.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// The highest kTailLadder percentile with at least kTailMinBeyond samples
// ranked beyond it. With too few samples it falls back to the median and
// reports supported = false.
Tail TailOf(std::vector<double> samples);

// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

// One traced interval. Sim times are integer nanoseconds of the modelled
// clock; host times (phase spans only) are seconds since process start.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  int client = -1;
  std::string name;
  std::int64_t sim_start = 0;
  std::int64_t sim_end = 0;
  double host_start = -1;  // < 0: not host-timed
  double host_end = -1;
};

// A span's duration minus the part of its interval that its children
// cover (overlapping children are counted once; parts of a child outside
// the parent are ignored).
std::int64_t SelfTime(const Span& parent, const std::vector<Span>& children);

// Spans kept in memory; a disabled tracer records nothing. Span ids start
// at 1 and are never reused.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span and returns its id (0 when disabled).
  std::uint64_t Begin(std::string name, std::uint64_t parent,
                      std::uint64_t request, int client,
                      std::int64_t sim_start, double host_start = -1);
  void End(std::uint64_t id, std::int64_t sim_end, double host_end = -1);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> ChildrenOf(std::uint64_t id) const;
  const Span* Find(std::uint64_t id) const;

  // Chrome trace-event JSON ("X" complete events, microseconds of sim
  // time; one thread per client), loadable in Perfetto.
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

enum class Clock { kSim, kHost, kNone };
const char* ClockName(Clock clock);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Clock clock = Clock::kNone;
};

// Ordered metric set with unique, validated names.
class Report {
 public:
  ros::Status Add(std::string name, double value, std::string unit,
                  Clock clock);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

  // {"<name>": {"value": v, "unit": u, "clock": c}, ...}
  ros::json::Value ToJson() const;
  static ros::StatusOr<Report> FromJson(const ros::json::Value& value);

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // ROS_PERFBENCH_METRICS_H_
