// Shared machinery of the ROS benchmark's workloads: options, the host
// clock, seeded payloads, the op ledger (sim-time latencies, failures and
// spans around every call into frontend/olfs), public-counter snapshots
// diffed across the timed phase, and the host-timed layer probes.
#ifndef ROS_PERFBENCH_HARNESS_H_
#define ROS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "perfbench/metrics.h"
#include "src/common/json.h"
#include "src/olfs/cluster.h"
#include "src/olfs/olfs.h"
#include "src/sim/event_hasher.h"
#include "src/sim/simulator.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_file;          // Chrome trace output (trace runs only)
  bool inject_corruption = false;  // flips one read-back byte (self-check)
};

// CPU seconds this process has used. The simulator is single-threaded,
// so differences are its host cost, without the time other processes
// on a shared machine take from it.
double HostNow();

// Peak resident set (VmHWM) of this process, in MiB; 0 if unknown.
double PeakRssMiB();

// Deterministic payload for one object: `size` bytes drawn from a stream
// keyed by (seed, id).
std::vector<std::uint8_t> Payload(std::uint64_t seed, std::uint64_t id,
                                  std::size_t size);

// Word-at-a-time content fingerprint used to verify read-back bytes.
std::uint64_t ContentHash(std::span<const std::uint8_t> bytes);

// Folds values into a running FNV-style digest (input fingerprints).
std::uint64_t Mix(std::uint64_t h, std::uint64_t v);

// Per-rank request counts summing to `total` that follow Zipf(s) over
// ranks [0, n) (largest-remainder rounding).
std::vector<int> ZipfQuotas(std::size_t n, double s, int total);

// Seeded Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(double u) const;  // u uniform in [0, 1)

 private:
  std::vector<double> cdf_;
};

// kControl: calls that are not user ops (drains); spanned, not sampled.
enum class OpClass { kWrite, kRead, kMeta, kControl };

// Records every call the benchmark makes into the system under test.
class Ledger {
 public:
  explicit Ledger(Tracer* tracer) : tracer_(tracer) {}

  // The workload's simulator; ops are timed on its clock.
  void Attach(ros::sim::Simulator* sim) { sim_ = sim; }

  struct Op {
    std::uint64_t span = 0;
    std::int64_t t0 = 0;
    OpClass cls = OpClass::kMeta;
  };
  Op Start(const char* name, OpClass cls, int client, std::uint64_t parent);
  // Successful ops add their sim latency to the class's samples.
  void Finish(const Op& op, bool ok, const std::string& failure = "");

  // Counts a failure: a wrong-byte or wrong-metadata result of an op that
  // returned OK, or (via Finish) an op that returned an error.
  void Mismatch(const std::string& what);

  const std::vector<double>& latencies_s(OpClass cls) const {
    return lat_[static_cast<int>(cls)];
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t bytes_written = 0;  // user bytes acked
  std::uint64_t bytes_read = 0;     // user bytes returned
  std::uint64_t phase_span = 0;     // parent of op spans opened with 0

 private:
  ros::sim::Simulator* sim_ = nullptr;
  Tracer* tracer_;
  std::vector<double> lat_[4];
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t next_request_ = 0;
  std::vector<std::string> failures_;
};

// Public counters of one or more racks, summed. Gauges (max_*) keep the
// later snapshot's value when diffed.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t fetch_requests = 0;
  std::uint64_t fetch_completed = 0;
  std::uint64_t fetch_loads = 0;
  std::uint64_t fetch_avoided = 0;
  std::uint64_t spec_loads = 0;
  std::uint64_t spec_useful = 0;
  std::int64_t queue_delay_ns = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t readahead_bytes = 0;
  std::uint64_t mech_loads = 0;
  std::uint64_t mech_unloads = 0;
  std::uint64_t plc_instructions = 0;
  std::uint64_t drive_read = 0;
  std::uint64_t drive_burned = 0;
  std::uint64_t images_closed = 0;
  std::uint64_t arrays_burned = 0;
  std::uint64_t burn_retries = 0;
  std::uint64_t audit_roots = 0;
  std::uint64_t hdd_written = 0;
  std::uint64_t ssd_written = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_batches = 0;
  std::uint64_t mv_hits = 0;
  std::uint64_t mv_misses = 0;
  std::uint64_t compactions = 0;
  std::uint64_t memtable_flushes = 0;
  std::uint64_t segment_records = 0;
  std::uint64_t segment_live = 0;
  std::uint64_t cluster_messages = 0;

  void AddRack(ros::olfs::Olfs& rack);
  Counters Since(const Counters& before) const;
};

Counters Snapshot(ros::sim::Simulator& sim, ros::olfs::Olfs& rack);
Counters Snapshot(ros::sim::Simulator& sim, ros::olfs::Cluster& cluster);

// What a workload measured, handed to the report code.
struct Outcome {
  Ledger* ledger = nullptr;
  // End-to-end values (sim clock) computed by the workload.
  double ingest_MBps = 0;
  double durable_s = 0;
  double space_amp = 0;
  double read_MBps = 0;
  // Which phase each group of metrics came from (provenance).
  ros::json::Object sources;
  ros::json::Object params;
  // Timed-phase host seconds and set-up host seconds.
  double host_s = 0;
  double setup_s = 0;
  double peak_rss_MiB = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t input_digest = 0;
  Counters delta;         // across the timed phase
  Counters end;           // at the end of the timed phase
  std::uint64_t ops = 0;  // ops attempted in the timed phase
  // Per-layer metrics that only the workload can compute (cluster
  // routing shares, host probes), merged into the traced report.
  Report extra_layers;
};

// Adds the end-to-end metrics (with tail percentile provenance) to
// `report` and their tail details to `tails`.
ros::Status EndToEndReport(const Outcome& outcome, Report* report,
                           ros::json::Object* tails);

// Adds the counter-derived per-layer metrics to `report`.
ros::Status LayerReport(const Outcome& outcome, Report* report);

// Host probes over one rack's artifacts, each timing one public call at a
// time (medians over repeats). ProbeMeta Stats `files` and lists `dirs`;
// an empty list reports 0. A probe call that fails or returns a bad image
// counts as a failure in `ledger`.
ros::Status ProbeImages(ros::olfs::Olfs& rack, Ledger* ledger,
                        Report* report);
ros::Status ProbeMeta(ros::sim::Simulator& sim, ros::olfs::Olfs& rack,
                      const std::vector<std::string>& files,
                      const std::vector<std::string>& dirs, Ledger* ledger,
                      Report* report);

}  // namespace perfbench

#endif  // ROS_PERFBENCH_HARNESS_H_
