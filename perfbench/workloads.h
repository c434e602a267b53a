// The benchmark's three workloads. Each builds a fresh system,
// generates its inputs from the seed, runs one timed phase of fixed work
// through the public frontend/olfs APIs, verifies every result, and fills
// an Outcome. With tracing on it also records spans and runs the
// host-timed layer probes after the timed phase.
#ifndef ROS_PERFBENCH_WORKLOADS_H_
#define ROS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/metrics.h"
#include "src/common/status.h"

namespace perfbench {

// Runs one repetition of `options.workload`.
ros::Status RunWorkload(const Options& options, Tracer* tracer,
                        Ledger* ledger, Outcome* outcome);

}  // namespace perfbench

#endif  // ROS_PERFBENCH_WORKLOADS_H_
