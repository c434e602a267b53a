// One repetition of one ROS benchmark workload.
//
//   perfbench --workload ingest|cold_read|namespace --seed N
//             [--trace 0|1] [--trace-file PATH] [--inject-corruption]
//
// Prints one JSON line: end-to-end metrics (sim and host clocks), tail
// percentile provenance, op counts and failures, the sim::EventHasher
// digest, the input digest, workload parameters and build provenance;
// with --trace 1 also the per-layer metrics, and the spans are written to
// --trace-file as Chrome trace-event JSON. Exits 1 when any op failed or
// returned wrong bytes, 2 on a usage error. run.py drives repetitions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/metrics.h"
#include "perfbench/workloads.h"
#include "src/common/json.h"

namespace {

using perfbench::Options;
using ros::json::Object;
using ros::json::Value;

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      opt->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-file" && has_value) {
      opt->trace_file = argv[++i];
    } else if (arg == "--inject-corruption") {
      opt->inject_corruption = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return !opt->workload.empty();
}

int Fail(const ros::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N [--trace 0|1] "
                 "[--trace-file PATH] [--inject-corruption]\n");
    return 2;
  }
  perfbench::Tracer tracer(opt.trace);
  perfbench::Ledger ledger(&tracer);
  perfbench::Outcome outcome;
  const ros::Status run =
      perfbench::RunWorkload(opt, &tracer, &ledger, &outcome);
  if (!run.ok()) {
    return Fail(run);
  }

  perfbench::Report end_to_end;
  Object tails;
  ros::Status status =
      perfbench::EndToEndReport(outcome, &end_to_end, &tails);
  if (!status.ok()) {
    return Fail(status);
  }
  Object out;
  out["workload"] = Value(opt.workload);
  out["seed"] = Value(opt.seed);
  out["trace"] = Value(opt.trace);
  out["correct"] = Value(ledger.failed() == 0);
  out["attempted"] = Value(ledger.attempted());
  out["failed"] = Value(ledger.failed());
  ros::json::Array failures;
  for (const std::string& f : ledger.failures()) {
    failures.push_back(Value(f));
  }
  out["failures"] = Value(std::move(failures));
  out["digest"] = Value(Hex(outcome.digest));
  out["events"] = Value(outcome.events);
  out["input_digest"] = Value(Hex(outcome.input_digest));
  out["params"] = Value(outcome.params);
  out["sources"] = Value(outcome.sources);
  out["tails"] = Value(std::move(tails));
  out["end_to_end"] = end_to_end.ToJson();
  Object build;
  build["type"] = Value(PERFBENCH_BUILD_TYPE);
  build["compiler"] = Value(PERFBENCH_COMPILER);
  out["build"] = Value(std::move(build));

  if (opt.trace) {
    perfbench::Report layers;
    status = perfbench::LayerReport(outcome, &layers);
    for (const perfbench::Metric& m : outcome.extra_layers.metrics()) {
      if (status.ok()) {
        status = layers.Add(m.name, m.value, m.unit, m.clock);
      }
    }
    if (status.ok()) {
      status = layers.Add("trace.spans",
                          static_cast<double>(tracer.spans().size()),
                          "count", perfbench::Clock::kNone);
    }
    if (!status.ok()) {
      return Fail(status);
    }
    out["per_layer"] = layers.ToJson();
    if (!opt.trace_file.empty()) {
      std::ofstream file(opt.trace_file);
      file << tracer.ChromeTraceJson() << "\n";
      if (!file) {
        return Fail(ros::InternalError("cannot write " + opt.trace_file));
      }
    }
  }
  std::printf("%s\n", Value(std::move(out)).Dump().c_str());
  return ledger.failed() == 0 ? 0 : 1;
}
