#include "perfbench/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

using ros::json::Object;
using ros::json::Value;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  const double n = static_cast<double>(samples.size());
  for (double p : kTailLadder) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (samples.size() >= rank + kTailMinBeyond) {
      tail.percentile = p;
      tail.beyond = samples.size() - rank;
      tail.supported = true;
      break;
    }
  }
  if (!tail.supported) {
    tail.percentile = 50.0;
    const auto rank = static_cast<std::size_t>(std::ceil(0.5 * n));
    tail.beyond = samples.size() - std::min(rank, samples.size());
  }
  tail.value = Percentile(std::move(samples), tail.percentile);
  return tail;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::int64_t SelfTime(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.sim_start, parent.sim_start);
    const std::int64_t hi = std::min(child.sim_end, parent.sim_end);
    if (lo < hi) {
      cover.emplace_back(lo, hi);
    }
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.sim_start;
  for (const auto& [lo, hi] : cover) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (parent.sim_end - parent.sim_start) - covered;
}

std::uint64_t Tracer::Begin(std::string name, std::uint64_t parent,
                            std::uint64_t request, int client,
                            std::int64_t sim_start, double host_start) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.client = client;
  span.name = std::move(name);
  span.sim_start = sim_start;
  span.sim_end = sim_start;
  span.host_start = host_start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(std::uint64_t id, std::int64_t sim_end, double host_end) {
  if (!enabled_ || id == 0 || id > spans_.size()) {
    return;
  }
  Span& span = spans_[id - 1];
  span.sim_end = sim_end;
  span.host_end = host_end;
}

std::vector<Span> Tracer::ChildrenOf(std::uint64_t id) const {
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.parent == id) {
      out.push_back(span);
    }
  }
  return out;
}

const Span* Tracer::Find(std::uint64_t id) const {
  return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
}

std::string Tracer::ChromeTraceJson() const {
  ros::json::Array events;
  for (const Span& span : spans_) {
    Object args;
    args["id"] = Value(span.id);
    args["parent"] = Value(span.parent);
    args["request"] = Value(span.request);
    if (span.host_start >= 0) {
      args["host_start_s"] = Value(span.host_start);
      args["host_end_s"] = Value(span.host_end);
    }
    Object event;
    event["name"] = Value(span.name);
    event["ph"] = Value("X");
    event["pid"] = Value(1);
    event["tid"] = Value(span.client + 1);  // tid 0: phases
    event["ts"] = Value(static_cast<double>(span.sim_start) / 1e3);
    event["dur"] =
        Value(static_cast<double>(span.sim_end - span.sim_start) / 1e3);
    event["args"] = Value(std::move(args));
    events.push_back(Value(std::move(event)));
  }
  Object root;
  root["displayTimeUnit"] = Value("ms");
  root["traceEvents"] = Value(std::move(events));
  return Value(std::move(root)).Dump();
}

const char* ClockName(Clock clock) {
  switch (clock) {
    case Clock::kSim: return "sim";
    case Clock::kHost: return "host";
    case Clock::kNone: return "none";
  }
  return "none";
}

ros::Status Report::Add(std::string name, double value, std::string unit,
                        Clock clock) {
  if (!ValidMetricName(name)) {
    return ros::InvalidArgumentError("bad metric name: " + name);
  }
  if (Find(name) != nullptr) {
    return ros::AlreadyExistsError("duplicate metric: " + name);
  }
  if (!std::isfinite(value)) {
    return ros::InvalidArgumentError("non-finite value for " + name);
  }
  metrics_.push_back({std::move(name), value, std::move(unit), clock});
  return ros::OkStatus();
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

Value Report::ToJson() const {
  Object out;
  for (const Metric& m : metrics_) {
    Object entry;
    entry["value"] = Value(m.value);
    entry["unit"] = Value(m.unit);
    entry["clock"] = Value(ClockName(m.clock));
    out[m.name] = Value(std::move(entry));
  }
  return Value(std::move(out));
}

ros::StatusOr<Report> Report::FromJson(const Value& value) {
  if (!value.is_object()) {
    return ros::InvalidArgumentError("report is not an object");
  }
  Report report;
  for (const auto& [name, entry] : value.as_object()) {
    if (!entry.is_object() || !entry.contains("value") ||
        !entry.contains("unit") || !entry.contains("clock")) {
      return ros::InvalidArgumentError("malformed metric " + name);
    }
    const Value& v = entry["value"];
    if (!v.is_double() && !v.is_int()) {
      return ros::InvalidArgumentError("non-numeric metric " + name);
    }
    const std::string& clock = entry["clock"].as_string();
    const Clock c = clock == "sim"    ? Clock::kSim
                    : clock == "host" ? Clock::kHost
                                      : Clock::kNone;
    ROS_RETURN_IF_ERROR(
        report.Add(name, v.as_double(), entry["unit"].as_string(), c));
  }
  return report;
}

}  // namespace perfbench
