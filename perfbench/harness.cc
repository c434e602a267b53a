#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <time.h>

#include "src/common/gf256.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/olfs/audit.h"
#include "src/udf/serializer.h"

namespace perfbench {

using ros::Status;
using ros::json::Object;
using ros::json::Value;

double HostNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::vector<std::uint8_t> Payload(std::uint64_t seed, std::uint64_t id,
                                  std::size_t size) {
  ros::Rng rng(Mix(Mix(0x9e3779b97f4a7c15ull, seed), id));
  std::vector<std::uint8_t> out(size);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  const std::uint64_t tail = rng.Next();
  std::memcpy(out.data() + i, &tail, size - i);
  return out;
}

std::uint64_t ContentHash(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

std::vector<int> ZipfQuotas(std::size_t n, double s, int total) {
  std::vector<double> share(n);
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    share[k] = 1.0 / std::pow(static_cast<double>(k + 1), s);
    sum += share[k];
  }
  std::vector<int> quota(n);
  std::vector<std::pair<double, std::size_t>> remainder;
  int assigned = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double exact = share[k] / sum * total;
    quota[k] = static_cast<int>(exact);
    assigned += quota[k];
    remainder.emplace_back(exact - quota[k], k);
  }
  std::sort(remainder.begin(), remainder.end(), [](auto a, auto b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; assigned < total && i < remainder.size(); ++i) {
    ++quota[remainder[i].second];
    ++assigned;
  }
  return quota;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

std::size_t Zipf::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

Ledger::Op Ledger::Start(const char* name, OpClass cls, int client,
                         std::uint64_t parent) {
  ++attempted_;
  Op op;
  op.cls = cls;
  op.t0 = sim_->now();
  op.span = tracer_->Begin(name, parent != 0 ? parent : phase_span,
                           ++next_request_, client, op.t0);
  return op;
}

void Ledger::Finish(const Op& op, bool ok, const std::string& failure) {
  tracer_->End(op.span, sim_->now());
  if (!ok) {
    Mismatch(failure);
    return;
  }
  lat_[static_cast<int>(op.cls)].push_back(
      ros::sim::ToSeconds(sim_->now() - op.t0));
}

void Ledger::Mismatch(const std::string& what) {
  ++failed_;
  if (failures_.size() < 8) {
    failures_.push_back(what);
  }
}

void Counters::AddRack(ros::olfs::Olfs& rack) {
  if (const ros::olfs::FetchScheduler* sched = rack.fetch_scheduler()) {
    const ros::olfs::FetchSchedulerStats& s = sched->stats();
    fetch_requests += s.requests;
    fetch_completed += s.completed;
    fetch_loads += s.loads;
    fetch_avoided += s.loads_avoided();
    spec_loads += s.speculative_loads;
    spec_useful += s.speculative_useful;
    queue_delay_ns += s.total_queue_delay;
    max_queue_depth = std::max(max_queue_depth, s.max_queue_depth);
    max_batch = std::max(max_batch, s.max_batch);
  }
  cache_hits += rack.cache().hits();
  cache_misses += rack.cache().misses();
  readahead_bytes += rack.readahead_bytes();
  ros::mech::Library& library = rack.mech().library();
  mech_loads += library.loads_completed();
  mech_unloads += library.unloads_completed();
  plc_instructions += library.plc().instructions_executed();
  ros::olfs::RosSystem& system = rack.system();
  for (ros::drive::DriveSet* set : system.drive_sets()) {
    for (int i = 0; i < set->size(); ++i) {
      drive_read += set->drive(i).bytes_read();
      drive_burned += set->drive(i).bytes_burned();
    }
  }
  for (const ros::olfs::ImageRecord* record : rack.images().AllRecords()) {
    if (!record->parity && record->tier != ros::olfs::ImageTier::kOpenBucket) {
      ++images_closed;
    }
  }
  arrays_burned += static_cast<std::uint64_t>(rack.burns().arrays_burned());
  burn_retries += static_cast<std::uint64_t>(rack.burns().burn_retries());
  audit_roots += rack.audit().roots_built();
  for (int v = 0; v < system.config().data_volumes; ++v) {
    hdd_written += system.data_raid(v)->bytes_written();
  }
  ssd_written += system.mv_raid()->bytes_written();
  const ros::olfs::MetadataVolume::StoreStats store =
      rack.mv().store_stats();
  wal_records += store.wal.records_appended;
  wal_batches += store.wal.batches_committed;
  mv_hits += rack.mv().cache_stats().hits;
  mv_misses += rack.mv().cache_stats().misses;
  compactions += store.compactions;
  memtable_flushes += store.memtable_flushes;
  segment_records += store.segment_records_total;
  segment_live += store.segment_records_live;
}

Counters Counters::Since(const Counters& b) const {
  Counters d = *this;
  d.events -= b.events;
  d.fetch_requests -= b.fetch_requests;
  d.fetch_completed -= b.fetch_completed;
  d.fetch_loads -= b.fetch_loads;
  d.fetch_avoided -= b.fetch_avoided;
  d.spec_loads -= b.spec_loads;
  d.spec_useful -= b.spec_useful;
  d.queue_delay_ns -= b.queue_delay_ns;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.readahead_bytes -= b.readahead_bytes;
  d.mech_loads -= b.mech_loads;
  d.mech_unloads -= b.mech_unloads;
  d.plc_instructions -= b.plc_instructions;
  d.drive_read -= b.drive_read;
  d.drive_burned -= b.drive_burned;
  d.images_closed -= b.images_closed;
  d.arrays_burned -= b.arrays_burned;
  d.burn_retries -= b.burn_retries;
  d.audit_roots -= b.audit_roots;
  d.hdd_written -= b.hdd_written;
  d.ssd_written -= b.ssd_written;
  d.wal_records -= b.wal_records;
  d.wal_batches -= b.wal_batches;
  d.mv_hits -= b.mv_hits;
  d.mv_misses -= b.mv_misses;
  d.compactions -= b.compactions;
  d.memtable_flushes -= b.memtable_flushes;
  d.cluster_messages -= b.cluster_messages;
  return d;
}

Counters Snapshot(ros::sim::Simulator& sim, ros::olfs::Olfs& rack) {
  Counters c;
  c.events = sim.events_processed();
  c.AddRack(rack);
  return c;
}

Counters Snapshot(ros::sim::Simulator& sim, ros::olfs::Cluster& cluster) {
  Counters c;
  c.events = sim.events_processed();
  for (int r = 0; r < cluster.racks(); ++r) {
    c.AddRack(*cluster.rack(r));
  }
  c.cluster_messages = cluster.stats().messages;
  return c;
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Ms(double seconds) { return seconds * 1e3; }

Status AddTail(const char* name, const std::vector<double>& samples,
               double scale, const char* unit, Report* report,
               Object* tails) {
  const Tail tail = TailOf(samples);
  Object detail;
  detail["percentile"] = Value(tail.percentile);
  detail["samples"] = Value(static_cast<std::uint64_t>(tail.samples));
  detail["beyond"] = Value(static_cast<std::uint64_t>(tail.beyond));
  detail["supported"] = Value(tail.supported);
  (*tails)[name] = Value(std::move(detail));
  return report->Add(name, tail.value * scale, unit, Clock::kSim);
}

// Median over `rounds` of the ns per byte one call of `fn` takes.
template <typename Fn>
double NsPerByte(std::uint64_t bytes, int rounds, Fn fn) {
  if (bytes == 0) {
    return 0;
  }
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = HostNow();
    fn();
    samples.push_back((HostNow() - t0) * 1e9 / static_cast<double>(bytes));
  }
  return Median(std::move(samples));
}

}  // namespace

Status EndToEndReport(const Outcome& o, Report* report, Object* tails) {
  const Ledger& ledger = *o.ledger;
  const auto& writes = ledger.latencies_s(OpClass::kWrite);
  const auto& reads = ledger.latencies_s(OpClass::kRead);
  const auto& metas = ledger.latencies_s(OpClass::kMeta);
  ROS_RETURN_IF_ERROR(
      report->Add("write_p50_ms", Ms(Median(writes)), "ms", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      AddTail("write_tail_ms", writes, 1e3, "ms", report, tails));
  ROS_RETURN_IF_ERROR(
      report->Add("ingest_MBps", o.ingest_MBps, "MB/s", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      report->Add("durable_s", o.durable_s, "s", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      report->Add("space_amp", o.space_amp, "ratio", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      report->Add("read_p50_s", Median(reads), "s", Clock::kSim));
  ROS_RETURN_IF_ERROR(AddTail("read_tail_s", reads, 1, "s", report, tails));
  ROS_RETURN_IF_ERROR(
      report->Add("read_MBps", o.read_MBps, "MB/s", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      report->Add("meta_p50_ms", Ms(Median(metas)), "ms", Clock::kSim));
  ROS_RETURN_IF_ERROR(
      AddTail("meta_tail_ms", metas, 1e3, "ms", report, tails));
  ROS_RETURN_IF_ERROR(report->Add("host_s", o.host_s, "s", Clock::kHost));
  ROS_RETURN_IF_ERROR(report->Add("setup_s", o.setup_s, "s", Clock::kHost));
  ROS_RETURN_IF_ERROR(report->Add("peak_rss_MB",
                                  o.peak_rss_MiB * 1048576.0 / 1e6, "MB",
                                  Clock::kHost));
  return report->Add(
      "op_fail_frac",
      Ratio(static_cast<double>(ledger.failed()),
            static_cast<double>(ledger.attempted())),
      "fraction", Clock::kNone);
}

Status LayerReport(const Outcome& o, Report* report) {
  const Counters& d = o.delta;
  const Ledger& ledger = *o.ledger;
  const double reads =
      static_cast<double>(ledger.latencies_s(OpClass::kRead).size());
  const double meta_ops =
      static_cast<double>(ledger.latencies_s(OpClass::kMeta).size() +
                          ledger.latencies_s(OpClass::kWrite).size());
  const double ops = static_cast<double>(o.ops);
  auto add = [&](const char* name, double value, const char* unit,
                 Clock clock = Clock::kSim) {
    return report->Add(name, value, unit, clock);
  };
  auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  ROS_RETURN_IF_ERROR(add("cluster.msgs_per_op",
                          Ratio(f(d.cluster_messages), ops), "count"));
  double read_s = 0;
  for (double s : ledger.latencies_s(OpClass::kRead)) {
    read_s += s;
  }
  ROS_RETURN_IF_ERROR(add("fetch.queue_wait_share",
                          Ratio(ros::sim::ToSeconds(d.queue_delay_ns), read_s),
                          "ratio"));
  ROS_RETURN_IF_ERROR(
      add("fetch.queue_depth_max", f(d.max_queue_depth), "count"));
  ROS_RETURN_IF_ERROR(add("fetch.max_batch", f(d.max_batch), "count"));
  ROS_RETURN_IF_ERROR(
      add("fetch.loads_per_read", Ratio(f(d.fetch_loads), reads), "count"));
  ROS_RETURN_IF_ERROR(add("fetch.loads_avoided_ratio",
                          Ratio(f(d.fetch_avoided), f(d.fetch_requests)),
                          "ratio"));
  ROS_RETURN_IF_ERROR(add("fetch.spec_useful_ratio",
                          Ratio(f(d.spec_useful), f(d.spec_loads)),
                          "ratio"));
  ROS_RETURN_IF_ERROR(
      add("read_cache.hit_ratio",
          Ratio(f(d.cache_hits), f(d.cache_hits + d.cache_misses)),
          "ratio"));
  ROS_RETURN_IF_ERROR(
      add("olfs.readahead_bytes_per_read_byte",
          Ratio(f(d.readahead_bytes), f(ledger.bytes_read)), "ratio"));
  ROS_RETURN_IF_ERROR(add("mech.loads", f(d.mech_loads), "count"));
  ROS_RETURN_IF_ERROR(add("mech.unloads", f(d.mech_unloads), "count"));
  ROS_RETURN_IF_ERROR(
      add("mech.plc_instructions", f(d.plc_instructions), "count"));
  ROS_RETURN_IF_ERROR(add("drive.read_amp",
                          Ratio(f(d.drive_read), f(ledger.bytes_read)),
                          "ratio"));
  ROS_RETURN_IF_ERROR(add("drive.bytes_burned", f(d.drive_burned), "B"));
  ROS_RETURN_IF_ERROR(
      add("bucket.images_closed", f(d.images_closed), "count"));
  ROS_RETURN_IF_ERROR(
      add("burn.arrays_burned", f(d.arrays_burned), "count"));
  ROS_RETURN_IF_ERROR(add("burn.retries", f(d.burn_retries), "count"));
  ROS_RETURN_IF_ERROR(add("audit.roots_built", f(d.audit_roots), "count"));
  ROS_RETURN_IF_ERROR(add("disk.hdd_write_amp",
                          Ratio(f(d.hdd_written), f(ledger.bytes_written)),
                          "ratio"));
  ROS_RETURN_IF_ERROR(add("disk.ssd_bytes_per_meta_op",
                          Ratio(f(d.ssd_written), meta_ops), "B"));
  ROS_RETURN_IF_ERROR(add("mv.wal_records_per_batch",
                          Ratio(f(d.wal_records), f(d.wal_batches)),
                          "count"));
  ROS_RETURN_IF_ERROR(add("mv.cache_hit_ratio",
                          Ratio(f(d.mv_hits), f(d.mv_hits + d.mv_misses)),
                          "ratio"));
  ROS_RETURN_IF_ERROR(add("mv.compactions", f(d.compactions), "count"));
  ROS_RETURN_IF_ERROR(
      add("mv.memtable_flushes", f(d.memtable_flushes), "count"));
  ROS_RETURN_IF_ERROR(
      add("mv.segment_live_ratio",
          Ratio(f(o.end.segment_live), f(o.end.segment_records)), "ratio"));
  ROS_RETURN_IF_ERROR(
      add("sim.events_per_op", Ratio(f(d.events), ops), "count"));
  return add("sim.events_per_host_s", Ratio(f(d.events), o.host_s), "1/s",
             Clock::kHost);
}

Status ProbeImages(ros::olfs::Olfs& rack, Ledger* ledger, Report* report) {
  constexpr std::size_t kMaxImages = 11;  // one array's data members
  constexpr int kRounds = 5;
  std::vector<const ros::udf::Image*> images;
  for (const ros::olfs::ImageRecord* record : rack.images().AllRecords()) {
    if (images.size() < kMaxImages && record->image != nullptr &&
        !record->parity &&
        record->tier != ros::olfs::ImageTier::kOpenBucket) {
      images.push_back(record->image.get());
    }
  }
  std::vector<std::vector<std::uint8_t>> streams;
  std::uint64_t bytes = 0;
  std::size_t longest = 0;
  for (const ros::udf::Image* image : images) {
    streams.push_back(ros::udf::Serializer::Serialize(*image));
    bytes += streams.back().size();
    longest = std::max(longest, streams.back().size());
  }
  std::uint64_t sink = 0;
  const double serialize = NsPerByte(bytes, kRounds, [&] {
    for (const ros::udf::Image* image : images) {
      sink += ros::udf::Serializer::Serialize(*image).size();
    }
  });
  const double crc = NsPerByte(bytes, kRounds, [&] {
    for (const auto& s : streams) {
      sink += ros::Crc32(s);
    }
  });
  bool parsed = true;
  const double parse = NsPerByte(bytes, kRounds, [&] {
    for (const auto& s : streams) {
      parsed = parsed && ros::udf::Serializer::Parse(s).ok();
    }
  });
  std::vector<std::uint8_t> p(longest), q(longest);
  const double pq = NsPerByte(bytes, kRounds, [&] {
    std::fill(p.begin(), p.end(), 0);
    std::fill(q.begin(), q.end(), 0);
    for (std::size_t k = streams.size(); k-- > 0;) {
      ros::gf256::PQAcc(p, q, streams[k]);
    }
    sink += p[0] ^ q[0];
  });
  const std::uint64_t leaf_bytes = rack.params().audit_leaf_bytes;
  const double leaf = NsPerByte(bytes, kRounds, [&] {
    for (const auto& s : streams) {
      sink += ros::olfs::AuditLeafHashes(s, leaf_bytes).size();
    }
  });
  if (!parsed) {
    ledger->Mismatch("probe: a cached image failed to re-parse");
  }
  std::fprintf(stderr, "probe images=%zu bytes=%llu sink=%llu\n",
               images.size(), static_cast<unsigned long long>(bytes),
               static_cast<unsigned long long>(sink & 0xff));
  ROS_RETURN_IF_ERROR(report->Add("udf.serialize_ns_per_B", serialize,
                                  "ns/B", Clock::kHost));
  ROS_RETURN_IF_ERROR(
      report->Add("common.crc32_ns_per_B", crc, "ns/B", Clock::kHost));
  ROS_RETURN_IF_ERROR(
      report->Add("parity.pq_ns_per_B", pq, "ns/B", Clock::kHost));
  ROS_RETURN_IF_ERROR(
      report->Add("audit.leaf_ns_per_B", leaf, "ns/B", Clock::kHost));
  return report->Add("udf.parse_ns_per_B", parse, "ns/B", Clock::kHost);
}

Status ProbeMeta(ros::sim::Simulator& sim, ros::olfs::Olfs& rack,
                 const std::vector<std::string>& files,
                 const std::vector<std::string>& dirs, Ledger* ledger,
                 Report* report) {
  std::vector<double> stat_us;
  for (const std::string& path : files) {
    const double t0 = HostNow();
    auto info = sim.RunUntilComplete(rack.Stat(path));
    stat_us.push_back((HostNow() - t0) * 1e6);
    if (!info.ok()) {
      ledger->Mismatch("probe stat " + path + ": " + info.status().ToString());
    }
  }
  std::vector<double> readdir_us;
  for (const std::string& dir : dirs) {
    const double t0 = HostNow();
    auto names = sim.RunUntilComplete(rack.ReadDir(dir));
    readdir_us.push_back((HostNow() - t0) * 1e6);
    if (!names.ok()) {
      ledger->Mismatch("probe readdir " + dir + ": " +
                       names.status().ToString());
    }
  }
  ROS_RETURN_IF_ERROR(report->Add("mv.stat_host_us", Median(stat_us), "us",
                                  Clock::kHost));
  return report->Add("mv.readdir_host_us", Median(readdir_us), "us",
                     Clock::kHost);
}

}  // namespace perfbench
