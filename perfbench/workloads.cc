#include "perfbench/workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/frontend/cluster_store.h"
#include "src/frontend/nas_server.h"
#include "src/frontend/object_store.h"
#include "src/olfs/cluster.h"
#include "src/olfs/olfs.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

using ros::OkStatus;
using ros::Status;
using ros::StatusOr;
using ros::json::Object;
using ros::json::Value;
using ros::sim::Task;
using ros::sim::TimePoint;
namespace olfs = ros::olfs;
namespace frontend = ros::frontend;
namespace sim = ros::sim;

constexpr std::uint64_t kKiB = ros::kKiB;
constexpr std::uint64_t kMiB = ros::kMiB;

double MBps(std::uint64_t bytes, sim::Duration d) {
  return d <= 0 ? 0 : static_cast<double>(bytes) / sim::ToSeconds(d) / 1e6;
}

// Begins the timed phase: set-up host time ends, counters are captured
// and the phase span opens.
struct Phase {
  double host_t0 = 0;
  TimePoint sim_t0 = 0;
  Counters before;
};

template <typename System>
Phase BeginTimed(sim::Simulator& sim, System& system, double setup_t0,
                 Tracer* tracer, Ledger* ledger, Outcome* out) {
  Phase phase;
  phase.host_t0 = HostNow();
  out->setup_s = phase.host_t0 - setup_t0;
  phase.sim_t0 = sim.now();
  phase.before = Snapshot(sim, system);
  ledger->phase_span =
      tracer->Begin("timed_phase", 0, 0, -1, sim.now(), phase.host_t0);
  return phase;
}

// Ends the timed phase: host time, peak RSS, counters and the event
// digest are captured before any probe runs.
template <typename System>
void EndTimed(sim::Simulator& sim, System& system, const Phase& phase,
              const sim::EventHasher& hasher, Tracer* tracer,
              Ledger* ledger, Outcome* out) {
  const double host_t1 = HostNow();
  out->host_s = host_t1 - phase.host_t0;
  out->peak_rss_MiB = PeakRssMiB();
  out->end = Snapshot(sim, system);
  out->delta = out->end.Since(phase.before);
  out->digest = hasher.digest();
  out->events = hasher.event_count();
  tracer->End(ledger->phase_span, sim.now(), host_t1);
  const Span* span = tracer->Find(ledger->phase_span);
  if (span != nullptr) {
    // Share of the phase's sim time with a benchmark call in flight.
    const double self = sim::ToSeconds(
        SelfTime(*span, tracer->ChildrenOf(span->id)));
    const double total = sim::ToSeconds(span->sim_end - span->sim_start);
    Status added = out->extra_layers.Add(
        "trace.phase_busy_ratio", total > 0 ? 1.0 - self / total : 0,
        "ratio", Clock::kSim);
    ROS_CHECK(added.ok());
  }
}

// ---------------------------------------------------------------------
// ingest: stream-tagged ~0.5 MiB uploads through NasServer into one rack
// with small discs, so many images close, get parity and an audit
// manifest, and burn; ends with FlushAndDrain, then Stats every file and
// reads back a seeded sample.
// ---------------------------------------------------------------------

struct IngestConfig {
  int clients = 4;
  int files_per_client = 32;
  std::uint64_t min_file = 384 * kKiB;
  std::uint64_t max_file = 640 * kKiB;
  std::uint64_t disc_capacity = 2 * kMiB;
  int drive_sets = 2;
  int readback_per_client = 25;
  int probe_downloads = 16;
};

struct IngestFile {
  std::string path;
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  bool acked = false;
};

struct IngestInputs {
  std::vector<std::vector<IngestFile>> files;  // per client, in order
  std::vector<std::vector<int>> readback;      // per client, file indices
};

IngestInputs MakeIngestInputs(const IngestConfig& c, std::uint64_t seed) {
  ros::Rng rng(Mix(seed, 0x1a6e57));
  IngestInputs in;
  in.files.resize(static_cast<std::size_t>(c.clients));
  in.readback.resize(static_cast<std::size_t>(c.clients));
  std::uint64_t id = 0;
  for (int k = 0; k < c.clients; ++k) {
    for (int f = 0; f < c.files_per_client; ++f) {
      IngestFile file;
      file.path = "/ingest/s" + std::to_string(k) + "/f" +
                  std::to_string(f) + "-" + std::to_string(rng.Below(1000));
      file.id = id++;
      file.size = rng.Between(c.min_file, c.max_file);
      in.files[static_cast<std::size_t>(k)].push_back(std::move(file));
    }
    std::vector<int> order(static_cast<std::size_t>(c.files_per_client));
    for (int f = 0; f < c.files_per_client; ++f) {
      order[static_cast<std::size_t>(f)] = f;
    }
    for (int i = c.files_per_client - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.Below(static_cast<std::uint64_t>(i) + 1)]);
    }
    order.resize(static_cast<std::size_t>(c.readback_per_client));
    in.readback[static_cast<std::size_t>(k)] = std::move(order);
  }
  return in;
}

std::uint64_t DigestOf(const IngestInputs& in) {
  std::uint64_t h = 0;
  for (const auto& files : in.files) {
    for (const IngestFile& f : files) {
      h = Mix(Mix(h, f.size), std::hash<std::string>{}(f.path));
    }
  }
  for (const auto& picks : in.readback) {
    for (int i : picks) {
      h = Mix(h, static_cast<std::uint64_t>(i));
    }
  }
  return h;
}

Task<Status> IngestUploader(frontend::NasServer* nas, Ledger* ledger,
                            std::vector<IngestFile>* files,
                            std::vector<std::vector<std::uint8_t>>* payloads,
                            int client, TimePoint* last_ack,
                            sim::Simulator* sim) {
  const olfs::AccessHint hint{static_cast<std::uint64_t>(client) + 1,
                              /*scan=*/false};
  for (std::size_t i = 0; i < files->size(); ++i) {
    IngestFile& file = (*files)[i];
    const Ledger::Op op =
        ledger->Start("nas.upload", OpClass::kWrite, client, 0);
    Status status = co_await nas->Upload(file.path, std::move((*payloads)[i]),
                                         file.size, hint);
    ledger->Finish(op, status.ok(), file.path + ": " + status.ToString());
    if (status.ok()) {
      file.acked = true;
      ledger->bytes_written += file.size;
      *last_ack = std::max(*last_ack, sim->now());
    }
  }
  co_return OkStatus();
}

Task<Status> IngestStatter(olfs::Olfs* fs, Ledger* ledger,
                           const std::vector<IngestFile>* files,
                           int client) {
  for (const IngestFile& file : *files) {
    if (!file.acked) {
      continue;
    }
    const Ledger::Op op = ledger->Start("olfs.stat", OpClass::kMeta, client, 0);
    StatusOr<olfs::FileInfo> info = co_await fs->Stat(file.path);
    ledger->Finish(op, info.ok(), file.path + ": " + info.status().ToString());
    if (info.ok() && (info->size != file.size || info->is_directory)) {
      ledger->Mismatch("stat " + file.path + ": size " +
                       std::to_string(info->size) + " != " +
                       std::to_string(file.size));
    }
  }
  co_return OkStatus();
}

Task<Status> IngestReader(frontend::NasServer* nas, Ledger* ledger,
                          const std::vector<IngestFile>* files,
                          const std::vector<int>* picks, int client,
                          bool corrupt) {
  for (int index : *picks) {
    const IngestFile& file = (*files)[static_cast<std::size_t>(index)];
    if (!file.acked) {
      continue;
    }
    const Ledger::Op op =
        ledger->Start("nas.download", OpClass::kRead, client, 0);
    auto data = co_await nas->Download(file.path, 0, file.size);
    ledger->Finish(op, data.ok(), file.path + ": " + data.status().ToString());
    if (!data.ok()) {
      continue;
    }
    ledger->bytes_read += data->size();
    if (corrupt && !data->empty()) {
      (*data)[data->size() / 2] ^= 0x5a;
    }
    if (ContentHash(*data) != file.hash) {
      ledger->Mismatch("read-back of " + file.path + " differs");
    }
  }
  co_return OkStatus();
}

Status RunIngest(const Options& opt, Tracer* tracer, Ledger* ledger,
                 Outcome* out) {
  const IngestConfig c;
  const double setup_t0 = HostNow();
  IngestInputs in = MakeIngestInputs(c, opt.seed);
  out->input_digest = DigestOf(in);
  std::vector<std::vector<std::vector<std::uint8_t>>> payloads(in.files.size());
  std::uint64_t corpus = 0;
  for (std::size_t k = 0; k < in.files.size(); ++k) {
    for (IngestFile& f : in.files[k]) {
      payloads[k].push_back(Payload(opt.seed, f.id, f.size));
      f.hash = ContentHash(payloads[k].back());
      corpus += f.size;
    }
  }

  sim::EventHasher hasher;
  sim::Simulator sim;
  sim.set_event_hasher(&hasher);
  ledger->Attach(&sim);
  olfs::SystemConfig config = olfs::TestSystemConfig();
  config.drive_sets = c.drive_sets;
  olfs::RosSystem system(sim, config);
  olfs::OlfsParams params;
  params.disc_capacity_override = c.disc_capacity;
  olfs::Olfs fs(sim, &system, params);
  frontend::NasServer nas(sim, &fs);

  Object p;
  p["clients"] = Value(c.clients);
  p["files"] = Value(c.clients * c.files_per_client);
  p["file_bytes_min"] = Value(c.min_file);
  p["file_bytes_max"] = Value(c.max_file);
  p["corpus_bytes"] = Value(corpus);
  p["disc_capacity_bytes"] = Value(c.disc_capacity);
  p["drive_sets"] = Value(c.drive_sets);
  p["read_cache_bytes"] = Value(params.read_cache_bytes);
  p["readback_files"] = Value(c.clients * c.readback_per_client);
  p["nas_mode"] = Value("normal");
  out->params = std::move(p);
  out->sources["write"] = Value("timed: NasServer::Upload acks");
  out->sources["ingest_durable_space"] =
      Value("timed: first upload -> FlushAndDrain done");
  out->sources["meta"] = Value("timed: Olfs::Stat of every acked file");
  out->sources["read"] =
      Value("timed: NasServer::Download of the sample (disk buffer)");

  const Phase phase = BeginTimed(sim, fs, setup_t0, tracer, ledger, out);
  TimePoint last_ack = phase.sim_t0;
  std::vector<Task<Status>> uploaders;
  for (int k = 0; k < c.clients; ++k) {
    const auto i = static_cast<std::size_t>(k);
    uploaders.push_back(IngestUploader(&nas, ledger, &in.files[i],
                                       &payloads[i], k, &last_ack, &sim));
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(sim::AllOk(sim, std::move(uploaders))));
  const Ledger::Op drain =
      ledger->Start("olfs.flush_and_drain", OpClass::kControl, -1, 0);
  Status drained = sim.RunUntilComplete(fs.FlushAndDrain());
  ledger->Finish(drain, drained.ok(), "drain: " + drained.ToString());
  const TimePoint durable_at = sim.now();

  std::vector<Task<Status>> statters;
  for (int k = 0; k < c.clients; ++k) {
    statters.push_back(
        IngestStatter(&fs, ledger, &in.files[static_cast<std::size_t>(k)], k));
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(sim::AllOk(sim, std::move(statters))));

  const TimePoint read_t0 = sim.now();
  std::vector<Task<Status>> readers;
  for (int k = 0; k < c.clients; ++k) {
    const auto i = static_cast<std::size_t>(k);
    readers.push_back(IngestReader(&nas, ledger, &in.files[i],
                                   &in.readback[i], k,
                                   opt.inject_corruption && k == 0));
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(sim::AllOk(sim, std::move(readers))));
  const TimePoint read_t1 = sim.now();
  out->ops = ledger->attempted();
  EndTimed(sim, fs, phase, hasher, tracer, ledger, out);

  out->ingest_MBps = MBps(ledger->bytes_written, last_ack - phase.sim_t0);
  out->durable_s = sim::ToSeconds(durable_at - phase.sim_t0);
  out->space_amp = static_cast<double>(out->delta.drive_burned) /
                   static_cast<double>(std::max<std::uint64_t>(
                       ledger->bytes_written, 1));
  out->read_MBps = MBps(ledger->bytes_read, read_t1 - read_t0);

  if (tracer->enabled()) {
    ROS_RETURN_IF_ERROR(out->extra_layers.Add("cluster.rack_op_share_max", 1.0,
                                              "ratio", Clock::kSim));
    // One NasServer::Download at a time, to completion, on the host clock.
    ros::Rng rng(Mix(opt.seed, 0x9e7));
    std::vector<double> get_us;
    for (int g = 0; g < c.probe_downloads; ++g) {
      const auto& client_files = in.files[rng.Below(in.files.size())];
      const IngestFile& file = client_files[rng.Below(client_files.size())];
      const double t0 = HostNow();
      auto data = sim.RunUntilComplete(nas.Download(file.path, 0, file.size));
      get_us.push_back((HostNow() - t0) * 1e6);
      if (!data.ok()) {
        ledger->Mismatch("probe download " + file.path + ": " +
                         data.status().ToString());
      }
    }
    ROS_RETURN_IF_ERROR(out->extra_layers.Add(
        "frontend.get_host_us", Median(get_us), "us", Clock::kHost));
    ROS_RETURN_IF_ERROR(ProbeImages(fs, ledger, &out->extra_layers));
    std::vector<std::string> files;
    std::set<std::string> dirs;
    for (const auto& client_files : in.files) {
      for (std::size_t f = 0; f < client_files.size() && f < 16; ++f) {
        files.push_back(client_files[f].path);
        dirs.insert(client_files[f].path.substr(
            0, client_files[f].path.rfind('/')));
      }
    }
    ROS_RETURN_IF_ERROR(ProbeMeta(sim, fs, files,
                                  {dirs.begin(), dirs.end()}, ledger,
                                  &out->extra_layers));
  }
  sim.Shutdown();
  return OkStatus();
}

// ---------------------------------------------------------------------
// cold_read: a seeded corpus is ingested into a multi-rack cluster and
// drained (set-up); then more clients than bays per rack issue HEAD + GET
// pairs through ClusterStore with bucket(tray)-skewed Zipf popularity and
// scan hints, against a read cache several times smaller than the corpus.
// ---------------------------------------------------------------------

struct ColdReadConfig {
  int racks = 2;
  int drive_sets = 2;  // bays per rack
  int buckets = 12;
  int objects_per_bucket = 11;  // one tray's data discs
  std::uint64_t min_object = 480 * kKiB;
  std::uint64_t max_object = 508 * kKiB;
  std::uint64_t disc_capacity = 512 * kKiB;
  int cache_divisor = 4;  // per-rack corpus share / read cache
  int clients = 8;
  int gets_per_client = 80;
  double zipf_s = 1.0;
  int probe_gets = 16;
};

struct ColdObject {
  std::string bucket;
  std::string key;
  std::uint64_t id = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

struct ColdReadInputs {
  std::vector<std::vector<ColdObject>> buckets;  // per bucket, in put order
  // Per client: (bucket, object) pairs, in request order.
  std::vector<std::vector<std::pair<int, int>>> requests;
};

ColdReadInputs MakeColdReadInputs(const ColdReadConfig& c,
                                  std::uint64_t seed) {
  ros::Rng rng(Mix(seed, 0xc01d));
  ColdReadInputs in;
  std::uint64_t id = 0;
  for (int b = 0; b < c.buckets; ++b) {
    std::vector<ColdObject> objects;
    for (int o = 0; o < c.objects_per_bucket; ++o) {
      ColdObject obj;
      obj.bucket = "bk" + std::to_string(b);
      obj.key = "obj" + std::to_string(o) + "-" +
                std::to_string(rng.Below(1000));
      obj.id = id++;
      obj.size = rng.Between(c.min_object, c.max_object);
      objects.push_back(std::move(obj));
    }
    in.buckets.push_back(std::move(objects));
  }
  // Bucket b has Zipf popularity rank b (buckets are placed in that
  // order, so the hot ones alternate between racks). Every client issues
  // exactly its Zipf quota per bucket, in a seeded order, so the seed
  // moves which objects are read and when, not how skewed the load is.
  const std::vector<int> quota =
      ZipfQuotas(static_cast<std::size_t>(c.buckets), c.zipf_s,
                 c.gets_per_client);
  in.requests.resize(static_cast<std::size_t>(c.clients));
  for (auto& seq : in.requests) {
    for (int b = 0; b < c.buckets; ++b) {
      for (int q = 0; q < quota[static_cast<std::size_t>(b)]; ++q) {
        const int object = static_cast<int>(
            rng.Below(static_cast<std::uint64_t>(c.objects_per_bucket)));
        seq.emplace_back(b, object);
      }
    }
    for (std::size_t i = seq.size() - 1; i > 0; --i) {
      std::swap(seq[i], seq[rng.Below(i + 1)]);
    }
  }
  return in;
}

std::uint64_t DigestOf(const ColdReadInputs& in) {
  std::uint64_t h = 0;
  for (const auto& objects : in.buckets) {
    for (const ColdObject& o : objects) {
      h = Mix(Mix(h, o.size), std::hash<std::string>{}(o.key));
    }
  }
  for (const auto& seq : in.requests) {
    for (const auto& [b, o] : seq) {
      h = Mix(Mix(h, static_cast<std::uint64_t>(b)),
              static_cast<std::uint64_t>(o));
    }
  }
  return h;
}

// Puts `order`'s (bucket, object) pairs one at a time, in that order.
Task<Status> ColdLoader(frontend::ClusterStore* store, Ledger* ledger,
                        const ColdReadInputs* in,
                        std::vector<std::vector<std::vector<std::uint8_t>>>*
                            payloads,
                        std::vector<std::pair<int, int>> order,
                        std::uint64_t* acked, TimePoint* last_ack,
                        sim::Simulator* sim) {
  for (const auto& [b, o] : order) {
    const auto bi = static_cast<std::size_t>(b);
    const auto oi = static_cast<std::size_t>(o);
    const ColdObject& obj = in->buckets[bi][oi];
    const olfs::AccessHint hint{static_cast<std::uint64_t>(b) + 1,
                                /*scan=*/false};
    const Ledger::Op op =
        ledger->Start("cluster_store.put", OpClass::kWrite, b, 0);
    Status status = co_await store->PutObject(
        obj.bucket, obj.key, std::move((*payloads)[bi][oi]), hint);
    ledger->Finish(op, status.ok(), obj.key + ": " + status.ToString());
    if (status.ok()) {
      *acked += obj.size;
      *last_ack = std::max(*last_ack, sim->now());
    }
  }
  co_return OkStatus();
}

Task<Status> ColdReader(frontend::ClusterStore* store, Ledger* ledger,
                        const ColdReadInputs* in,
                        const std::vector<std::pair<int, int>>* seq,
                        std::vector<std::uint64_t>* bucket_gets, int client,
                        bool corrupt, Tracer* tracer, sim::Simulator* sim) {
  const olfs::AccessHint hint{static_cast<std::uint64_t>(client) + 1,
                              /*scan=*/true};
  for (const auto& [b, o] : *seq) {
    const ColdObject& obj = in->buckets[static_cast<std::size_t>(b)]
                                       [static_cast<std::size_t>(o)];
    const std::uint64_t request = tracer->Begin(
        "request", ledger->phase_span, 0, client, sim->now());
    const Ledger::Op head =
        ledger->Start("cluster_store.head", OpClass::kMeta, client, request);
    auto info = co_await store->HeadObject(obj.bucket, obj.key);
    ledger->Finish(head, info.ok(), obj.key + ": " + info.status().ToString());
    if (info.ok() && info->size != obj.size) {
      ledger->Mismatch("head " + obj.key + ": size " +
                       std::to_string(info->size));
    }
    const Ledger::Op get =
        ledger->Start("cluster_store.get", OpClass::kRead, client, request);
    auto data = co_await store->GetObject(obj.bucket, obj.key, hint);
    ledger->Finish(get, data.ok(), obj.key + ": " + data.status().ToString());
    tracer->End(request, sim->now());
    ++(*bucket_gets)[static_cast<std::size_t>(b)];
    if (!data.ok()) {
      continue;
    }
    ledger->bytes_read += data->size();
    if (corrupt && !data->empty()) {
      (*data)[0] ^= 0x01;
      corrupt = false;
    }
    if (ContentHash(*data) != obj.hash) {
      ledger->Mismatch("get " + obj.bucket + "/" + obj.key + " differs");
    }
  }
  co_return OkStatus();
}

Status RunColdRead(const Options& opt, Tracer* tracer, Ledger* ledger,
                   Outcome* out) {
  const ColdReadConfig c;
  const double setup_t0 = HostNow();
  ColdReadInputs in = MakeColdReadInputs(c, opt.seed);
  out->input_digest = DigestOf(in);
  std::vector<std::vector<std::vector<std::uint8_t>>> payloads(
      in.buckets.size());
  std::uint64_t corpus = 0;
  for (std::size_t b = 0; b < in.buckets.size(); ++b) {
    for (ColdObject& obj : in.buckets[b]) {
      payloads[b].push_back(Payload(opt.seed, obj.id, obj.size));
      obj.hash = ContentHash(payloads[b].back());
      corpus += obj.size;
    }
  }

  sim::EventHasher hasher;
  sim::Simulator sim;
  sim.set_event_hasher(&hasher);
  ledger->Attach(&sim);
  olfs::ClusterParams cp;
  cp.racks = c.racks;
  cp.rack_config.drive_sets = c.drive_sets;
  cp.rack_params.disc_capacity_override = c.disc_capacity;
  const std::uint64_t cache =
      corpus / static_cast<std::uint64_t>(c.racks * c.cache_divisor);
  cp.rack_params.read_cache_bytes = cache;
  olfs::Cluster cluster(sim, cp);
  frontend::ClusterStore store(&cluster);

  Object p;
  p["racks"] = Value(c.racks);
  p["bays_per_rack"] = Value(c.drive_sets);
  p["buckets"] = Value(c.buckets);
  p["objects"] = Value(c.buckets * c.objects_per_bucket);
  p["object_bytes_min"] = Value(c.min_object);
  p["object_bytes_max"] = Value(c.max_object);
  p["corpus_bytes"] = Value(corpus);
  p["disc_capacity_bytes"] = Value(c.disc_capacity);
  p["read_cache_bytes_per_rack"] = Value(cache);
  p["corpus_to_read_cache"] =
      Value(static_cast<double>(corpus) /
            static_cast<double>(cache * static_cast<std::uint64_t>(c.racks)));
  p["clients"] = Value(c.clients);
  p["gets"] = Value(c.clients * c.gets_per_client);
  p["zipf_s"] = Value(c.zipf_s);
  p["hint"] = Value("stream=client, scan=true");

  // Load phase (part of set-up on the host clock, sim-timed): one loader
  // puts every object in turn, round-robin over the buckets, so
  // capacity-aware placement sees the previous buckets' bytes when each
  // bucket's first object arrives and spreads the buckets over the racks;
  // then the cluster drains. The load is serial because concurrent
  // writers on one rack can lose acked index updates (README.md, "Known
  // defect"); the namespace workload still runs writers concurrently.
  const TimePoint load_t0 = sim.now();
  std::uint64_t acked = 0;
  TimePoint last_ack = load_t0;
  std::vector<std::pair<int, int>> order;
  for (int o = 0; o < c.objects_per_bucket; ++o) {
    for (int b = 0; b < c.buckets; ++b) {
      order.emplace_back(b, o);
    }
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(
      ColdLoader(&store, ledger, &in, &payloads, std::move(order), &acked,
                 &last_ack, &sim)));
  payloads.clear();
  Status drained = sim.RunUntilComplete(cluster.FlushAndDrain());
  if (!drained.ok()) {
    ledger->Mismatch("cluster drain: " + drained.ToString());
  }
  const TimePoint durable_at = sim.now();
  out->ingest_MBps = MBps(acked, last_ack - load_t0);
  out->durable_s = sim::ToSeconds(durable_at - load_t0);
  out->space_amp =
      static_cast<double>(Snapshot(sim, cluster).drive_burned) /
      static_cast<double>(std::max<std::uint64_t>(acked, 1));

  std::vector<int> bucket_rack(static_cast<std::size_t>(c.buckets), -1);
  std::vector<int> buckets_on_rack(static_cast<std::size_t>(c.racks), 0);
  for (int b = 0; b < c.buckets; ++b) {
    const std::string name = frontend::ObjectStore::EscapeComponent(
        in.buckets[static_cast<std::size_t>(b)][0].bucket);
    cluster.routes().ForEach(
        [&](const std::string& bucket, const olfs::BucketRoute& route) {
          if (bucket == name) {
            bucket_rack[static_cast<std::size_t>(b)] = route.primary;
          }
        });
    const int rack = bucket_rack[static_cast<std::size_t>(b)];
    if (rack >= 0) {
      ++buckets_on_rack[static_cast<std::size_t>(rack)];
    }
  }
  ros::json::Array spread;
  for (int n : buckets_on_rack) {
    spread.push_back(Value(n));
  }
  p["buckets_per_rack"] = Value(std::move(spread));
  out->params = std::move(p);
  out->sources["write"] = Value("set-up load: ClusterStore::PutObject acks");
  out->sources["ingest_durable_space"] =
      Value("set-up load: first put -> Cluster::FlushAndDrain done");
  out->sources["meta"] = Value("timed: ClusterStore::HeadObject");
  out->sources["read"] = Value("timed: ClusterStore::GetObject");

  const Phase phase = BeginTimed(sim, cluster, setup_t0, tracer, ledger, out);
  const std::uint64_t ops0 = ledger->attempted();
  std::vector<std::uint64_t> bucket_gets(static_cast<std::size_t>(c.buckets),
                                         0);
  std::vector<Task<Status>> readers;
  for (int k = 0; k < c.clients; ++k) {
    readers.push_back(ColdReader(&store, ledger, &in,
                                 &in.requests[static_cast<std::size_t>(k)],
                                 &bucket_gets, k,
                                 opt.inject_corruption && k == 0, tracer,
                                 &sim));
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(sim::AllOk(sim, std::move(readers))));
  const TimePoint read_t1 = sim.now();
  out->ops = ledger->attempted() - ops0;
  EndTimed(sim, cluster, phase, hasher, tracer, ledger, out);
  out->read_MBps = MBps(ledger->bytes_read, read_t1 - phase.sim_t0);

  if (tracer->enabled()) {
    std::vector<double> rack_gets(static_cast<std::size_t>(c.racks), 0);
    double total = 0;
    for (int b = 0; b < c.buckets; ++b) {
      const int rack = bucket_rack[static_cast<std::size_t>(b)];
      const auto gets =
          static_cast<double>(bucket_gets[static_cast<std::size_t>(b)]);
      if (rack >= 0) {
        rack_gets[static_cast<std::size_t>(rack)] += gets;
      }
      total += gets;
    }
    ROS_RETURN_IF_ERROR(out->extra_layers.Add(
        "cluster.rack_op_share_max",
        total == 0 ? 0 : *std::max_element(rack_gets.begin(), rack_gets.end()) /
                             total,
        "ratio", Clock::kSim));
    // One Cluster::Get at a time, to completion, on the host clock.
    ros::Rng rng(Mix(opt.seed, 0x9e7));
    std::vector<double> get_us;
    for (int g = 0; g < c.probe_gets; ++g) {
      const ColdObject& obj =
          in.buckets[rng.Below(static_cast<std::uint64_t>(c.buckets))]
                    [rng.Below(static_cast<std::uint64_t>(c.objects_per_bucket))];
      const double t0 = HostNow();
      auto data = sim.RunUntilComplete(store.GetObject(obj.bucket, obj.key));
      get_us.push_back((HostNow() - t0) * 1e6);
      if (!data.ok()) {
        ledger->Mismatch("probe get " + obj.key + ": " +
                         data.status().ToString());
      }
    }
    ROS_RETURN_IF_ERROR(out->extra_layers.Add("frontend.get_host_us",
                                              Median(get_us), "us",
                                              Clock::kHost));
    int probe_rack = 0;
    while (probe_rack + 1 < c.racks &&
           buckets_on_rack[static_cast<std::size_t>(probe_rack)] == 0) {
      ++probe_rack;
    }
    olfs::Olfs& rack = *cluster.rack(probe_rack);
    ROS_RETURN_IF_ERROR(ProbeImages(rack, ledger, &out->extra_layers));
    std::vector<std::string> files;
    std::vector<std::string> dirs;
    for (int b = 0; b < c.buckets; ++b) {
      if (bucket_rack[static_cast<std::size_t>(b)] != probe_rack) {
        continue;
      }
      const auto& objects = in.buckets[static_cast<std::size_t>(b)];
      const std::string bucket =
          frontend::ObjectStore::EscapeComponent(objects[0].bucket);
      dirs.push_back("/b/" + bucket);
      for (const ColdObject& obj : objects) {
        auto key = frontend::ClusterStore::RackKey(obj.bucket, obj.key);
        ROS_RETURN_IF_ERROR(key.status());
        files.push_back(olfs::Cluster::RackPath(bucket, *key));
      }
    }
    ROS_RETURN_IF_ERROR(
        ProbeMeta(sim, rack, files, dirs, ledger, &out->extra_layers));
  }
  sim.Shutdown();
  return OkStatus();
}

// ---------------------------------------------------------------------
// namespace: a rack preloaded with a small-file tree; closed-loop clients
// run a seeded 70/30 read/write mix of POSIX calls over Zipf-hot files,
// checked against an in-benchmark model. Not in BENCHMARK.json: concurrent
// writers on one rack lose acked index updates (see README.md), so every
// seed fails its checks. The tree (8,192 files) is smaller than the MV's
// 64k-entry decode cache because preload costs ~0.5-1 ms of host time per
// Create at this size.
// ---------------------------------------------------------------------

struct NamespaceConfig {
  int dirs = 64;
  int files_per_dir = 128;
  std::uint64_t min_file = 64;
  std::uint64_t max_file = 512;
  std::uint64_t read_len = 4 * kKiB;
  std::uint64_t disc_capacity = 16 * kMiB;
  int clients = 8;  // client k owns dirs d with d % clients == k
  int ops_per_client = 300;
  double zipf_s = 1.1;
  // Op mix per client, in ops out of 100: 70 reads, 30 writes.
  int stat_pct = 30;
  int readdir_pct = 10;
  int read_pct = 30;
  int create_pct = 12;
  int update_pct = 12;  // remainder: unlink
};

enum class NsOp { kStat, kReadDir, kRead, kCreate, kUpdate, kUnlink };

const char* NsOpName(NsOp op) {
  switch (op) {
    case NsOp::kStat: return "olfs.stat";
    case NsOp::kReadDir: return "olfs.readdir";
    case NsOp::kRead: return "olfs.read";
    case NsOp::kCreate: return "olfs.create";
    case NsOp::kUpdate: return "olfs.update";
    case NsOp::kUnlink: return "olfs.unlink";
  }
  return "?";
}

struct NsStep {
  NsOp op = NsOp::kStat;
  std::size_t slot = 0;  // Zipf rank of the target file (or dir)
  std::uint64_t size = 0;  // Create/Update payload size
};

std::string NsDir(int d) {
  return "/ns/d" + std::to_string(d);
}

struct NsFile {
  std::string path;
  std::uint64_t size = 0;
  std::uint64_t content = 0;  // payload stream id
  bool exists = false;
};

// Per-client model of the tree part the client owns.
struct NsModel {
  std::vector<int> dirs;
  std::vector<NsFile> files;  // slot order = Zipf rank order
  std::map<std::string, std::set<std::string>> children;  // dir -> names
  int created = 0;
};

struct NamespaceInputs {
  std::vector<NsModel> models;               // initial tree, per client
  std::vector<std::vector<NsStep>> steps;    // per client
};

NamespaceInputs MakeNamespaceInputs(const NamespaceConfig& c,
                                    std::uint64_t seed) {
  ros::Rng rng(Mix(seed, 0x5ace));
  NamespaceInputs in;
  in.models.resize(static_cast<std::size_t>(c.clients));
  std::uint64_t content = 1;
  for (int k = 0; k < c.clients; ++k) {
    NsModel& m = in.models[static_cast<std::size_t>(k)];
    for (int d = k; d < c.dirs; d += c.clients) {
      m.dirs.push_back(d);
      auto& names = m.children[NsDir(d)];
      for (int f = 0; f < c.files_per_dir; ++f) {
        NsFile file;
        std::string name = "f";
        name += std::to_string(f);
        file.path = NsDir(d) + "/" + name;
        file.size = rng.Between(c.min_file, c.max_file);
        file.content = content++;
        file.exists = true;
        names.insert(name);
        m.files.push_back(std::move(file));
      }
    }
    // Zipf rank -> file: a seeded shuffle of the client's files.
    for (std::size_t i = m.files.size() - 1; i > 0; --i) {
      std::swap(m.files[i], m.files[rng.Below(i + 1)]);
    }
  }
  in.steps.resize(static_cast<std::size_t>(c.clients));
  for (int k = 0; k < c.clients; ++k) {
    const NsModel& m = in.models[static_cast<std::size_t>(k)];
    const Zipf files(m.files.size(), c.zipf_s);
    const Zipf dirs(m.dirs.size(), c.zipf_s);
    // Exact op counts per class, in a seeded order.
    std::vector<NsOp> ops;
    const auto count = [&](int pct) { return c.ops_per_client * pct / 100; };
    ops.insert(ops.end(), count(c.stat_pct), NsOp::kStat);
    ops.insert(ops.end(), count(c.readdir_pct), NsOp::kReadDir);
    ops.insert(ops.end(), count(c.read_pct), NsOp::kRead);
    ops.insert(ops.end(), count(c.create_pct), NsOp::kCreate);
    ops.insert(ops.end(), count(c.update_pct), NsOp::kUpdate);
    ops.resize(static_cast<std::size_t>(c.ops_per_client), NsOp::kUnlink);
    for (std::size_t i = ops.size() - 1; i > 0; --i) {
      std::swap(ops[i], ops[rng.Below(i + 1)]);
    }
    for (NsOp op : ops) {
      NsStep step;
      step.op = op;
      step.slot = op == NsOp::kReadDir || op == NsOp::kCreate
                      ? dirs.Sample(rng.NextDouble())
                      : files.Sample(rng.NextDouble());
      step.size = rng.Between(c.min_file, c.max_file);
      in.steps[static_cast<std::size_t>(k)].push_back(step);
    }
  }
  return in;
}

std::uint64_t DigestOf(const NamespaceInputs& in) {
  std::uint64_t h = 0;
  for (const NsModel& m : in.models) {
    for (const NsFile& f : m.files) {
      h = Mix(Mix(h, f.size), std::hash<std::string>{}(f.path));
    }
  }
  for (const auto& steps : in.steps) {
    for (const NsStep& s : steps) {
      h = Mix(Mix(Mix(h, static_cast<std::uint64_t>(s.op)), s.slot), s.size);
    }
  }
  return h;
}

// The first existing file at or after Zipf slot `slot`.
NsFile* ExistingAt(NsModel* m, std::size_t slot) {
  for (std::size_t i = 0; i < m->files.size(); ++i) {
    NsFile& f = m->files[(slot + i) % m->files.size()];
    if (f.exists) {
      return &f;
    }
  }
  return nullptr;
}

std::pair<std::string, std::string> SplitPath(const std::string& path) {
  const std::size_t cut = path.rfind('/');
  return {path.substr(0, cut), path.substr(cut + 1)};
}

Task<Status> NsPreloader(olfs::Olfs* fs, const NsModel* m,
                         std::uint64_t seed, std::uint64_t* acked,
                         TimePoint* last_ack, sim::Simulator* sim) {
  for (const NsFile& f : m->files) {
    Status status =
        co_await fs->Create(f.path, Payload(seed, f.content, f.size));
    ROS_CO_RETURN_IF_ERROR(status);
    *acked += f.size;
    *last_ack = std::max(*last_ack, sim->now());
  }
  co_return OkStatus();
}

Task<Status> NsClient(olfs::Olfs* fs, Ledger* ledger, NsModel* m,
                      const std::vector<NsStep>* steps,
                      const NamespaceConfig* c, std::uint64_t seed,
                      int client, bool corrupt, std::uint64_t* next_content) {
  for (const NsStep& step : *steps) {
    const NsOp op = step.op;
    if (op == NsOp::kReadDir) {
      const std::string dir = NsDir(m->dirs[step.slot]);
      const Ledger::Op lo = ledger->Start(NsOpName(op), OpClass::kMeta,
                                          client, 0);
      auto names = co_await fs->ReadDir(dir);
      ledger->Finish(lo, names.ok(), dir + ": " + names.status().ToString());
      if (names.ok()) {
        const std::set<std::string> got(names->begin(), names->end());
        if (got != m->children[dir]) {
          ledger->Mismatch("readdir " + dir + ": " +
                           std::to_string(got.size()) + " names, model " +
                           std::to_string(m->children[dir].size()));
        }
      }
      continue;
    }
    if (op == NsOp::kCreate) {
      NsFile file;
      const std::string dir = NsDir(m->dirs[step.slot]);
      const std::string name =
          "n" + std::to_string(client) + "-" + std::to_string(m->created++);
      file.path = dir + "/" + name;
      file.size = step.size;
      file.content = (*next_content)++;
      const Ledger::Op lo = ledger->Start(NsOpName(op), OpClass::kWrite,
                                          client, 0);
      Status status = co_await fs->Create(
          file.path, Payload(seed, file.content, file.size));
      ledger->Finish(lo, status.ok(), file.path + ": " + status.ToString());
      if (status.ok()) {
        ledger->bytes_written += file.size;
        file.exists = true;
        m->children[dir].insert(name);
        m->files.push_back(std::move(file));
      }
      continue;
    }
    NsFile* file = ExistingAt(m, step.slot);
    if (file == nullptr) {
      ledger->Mismatch("model has no file left");
      continue;
    }
    const std::string path = file->path;
    const Ledger::Op lo = ledger->Start(
        NsOpName(op),
        op == NsOp::kStat    ? OpClass::kMeta
        : op == NsOp::kRead ? OpClass::kRead
                             : OpClass::kWrite,
        client, 0);
    if (op == NsOp::kStat) {
      auto info = co_await fs->Stat(path);
      ledger->Finish(lo, info.ok(), path + ": " + info.status().ToString());
      if (info.ok() && (info->size != file->size || info->is_directory)) {
        ledger->Mismatch("stat " + path + ": size " +
                         std::to_string(info->size) + " != " +
                         std::to_string(file->size));
      }
    } else if (op == NsOp::kRead) {
      const std::uint64_t len = std::min(c->read_len, file->size);
      auto data = co_await fs->Read(path, 0, len);
      ledger->Finish(lo, data.ok(), path + ": " + data.status().ToString());
      if (data.ok()) {
        ledger->bytes_read += data->size();
        if (corrupt && !data->empty()) {
          (*data)[0] ^= 0x01;
          corrupt = false;
        }
        std::vector<std::uint8_t> want =
            Payload(seed, file->content, file->size);
        want.resize(len);
        if (*data != want) {
          ledger->Mismatch("read " + path + " differs");
        }
      }
    } else if (op == NsOp::kUpdate) {
      const std::uint64_t content = (*next_content)++;
      Status status = co_await fs->Update(
          path, Payload(seed, content, step.size), step.size);
      ledger->Finish(lo, status.ok(), path + ": " + status.ToString());
      if (status.ok()) {
        ledger->bytes_written += step.size;
        file->size = step.size;
        file->content = content;
      }
    } else {
      Status status = co_await fs->Unlink(path);
      ledger->Finish(lo, status.ok(), path + ": " + status.ToString());
      if (status.ok()) {
        file->exists = false;
        const auto [dir, name] = SplitPath(path);
        m->children[dir].erase(name);
      }
    }
  }
  co_return OkStatus();
}

Status RunNamespace(const Options& opt, Tracer* tracer, Ledger* ledger,
                    Outcome* out) {
  const NamespaceConfig c;
  const double setup_t0 = HostNow();
  NamespaceInputs in = MakeNamespaceInputs(c, opt.seed);
  out->input_digest = DigestOf(in);

  sim::EventHasher hasher;
  sim::Simulator sim;
  sim.set_event_hasher(&hasher);
  ledger->Attach(&sim);
  olfs::RosSystem system(sim, olfs::TestSystemConfig());
  olfs::OlfsParams params;
  params.disc_capacity_override = c.disc_capacity;
  olfs::Olfs fs(sim, &system, params);

  // Load phase (set-up on the host clock, sim-timed): one closed-loop
  // preloader per client creates its files, then the rack drains.
  const TimePoint load_t0 = sim.now();
  std::uint64_t acked = 0;
  TimePoint last_ack = load_t0;
  std::vector<Task<Status>> preloaders;
  for (const NsModel& m : in.models) {
    preloaders.push_back(
        NsPreloader(&fs, &m, opt.seed, &acked, &last_ack, &sim));
  }
  ROS_RETURN_IF_ERROR(
      sim.RunUntilComplete(sim::AllOk(sim, std::move(preloaders))));
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(fs.FlushAndDrain()));
  out->ingest_MBps = MBps(acked, last_ack - load_t0);
  out->durable_s = sim::ToSeconds(sim.now() - load_t0);
  out->space_amp = static_cast<double>(Snapshot(sim, fs).drive_burned) /
                   static_cast<double>(std::max<std::uint64_t>(acked, 1));
  const std::uint64_t files = static_cast<std::uint64_t>(c.dirs) *
                              static_cast<std::uint64_t>(c.files_per_dir);

  Object p;
  p["dirs"] = Value(c.dirs);
  p["files"] = Value(files);
  p["file_bytes_min"] = Value(c.min_file);
  p["file_bytes_max"] = Value(c.max_file);
  p["preload_bytes"] = Value(acked);
  p["read_len"] = Value(c.read_len);
  p["clients"] = Value(c.clients);
  p["ops"] = Value(c.clients * c.ops_per_client);
  p["mix_pct"] = Value(
      "stat " + std::to_string(c.stat_pct) + ", readdir " +
      std::to_string(c.readdir_pct) + ", read " + std::to_string(c.read_pct) +
      ", create " + std::to_string(c.create_pct) + ", update " +
      std::to_string(c.update_pct) + ", unlink " +
      std::to_string(100 - c.stat_pct - c.readdir_pct - c.read_pct -
                     c.create_pct - c.update_pct));
  p["zipf_s"] = Value(c.zipf_s);
  p["mv_decode_cache_entries"] = Value(fs.mv().cache_capacity());
  p["tree_to_mv_cache"] =
      Value(static_cast<double>(files + static_cast<std::uint64_t>(c.dirs)) /
            static_cast<double>(fs.mv().cache_capacity()));
  p["read_cache_bytes"] = Value(params.read_cache_bytes);
  p["disc_capacity_bytes"] = Value(c.disc_capacity);
  out->params = std::move(p);
  out->sources["write"] = Value("timed: Olfs::Create/Update/Unlink");
  out->sources["ingest_durable_space"] =
      Value("set-up load: first preload Create -> FlushAndDrain done");
  out->sources["meta"] = Value("timed: Olfs::Stat/ReadDir");
  out->sources["read"] = Value("timed: Olfs::Read (small)");

  const Phase phase = BeginTimed(sim, fs, setup_t0, tracer, ledger, out);
  std::uint64_t next_content = 1u << 30;
  std::vector<Task<Status>> clients;
  for (int k = 0; k < c.clients; ++k) {
    const auto i = static_cast<std::size_t>(k);
    clients.push_back(NsClient(&fs, ledger, &in.models[i], &in.steps[i], &c,
                               opt.seed, k, opt.inject_corruption && k == 0,
                               &next_content));
  }
  ROS_RETURN_IF_ERROR(sim.RunUntilComplete(sim::AllOk(sim, std::move(clients))));
  const TimePoint t1 = sim.now();
  out->ops = ledger->attempted();
  EndTimed(sim, fs, phase, hasher, tracer, ledger, out);
  out->read_MBps = MBps(ledger->bytes_read, t1 - phase.sim_t0);

  if (tracer->enabled()) {
    ROS_RETURN_IF_ERROR(out->extra_layers.Add("cluster.rack_op_share_max", 1.0,
                                              "ratio", Clock::kSim));
    ROS_RETURN_IF_ERROR(ProbeImages(fs, ledger, &out->extra_layers));
    std::vector<std::string> files_probe;
    std::vector<std::string> dirs_probe;
    for (NsModel& m : in.models) {
      for (std::size_t s = 0; files_probe.size() < 256 && s < 32; ++s) {
        if (const NsFile* f = ExistingAt(&m, s)) {
          files_probe.push_back(f->path);
        }
      }
      dirs_probe.push_back(NsDir(m.dirs[0]));
    }
    // One small Olfs::Read at a time, to completion, on the host clock.
    std::vector<double> get_us;
    for (std::size_t i = 0; i < files_probe.size() && i < 16; ++i) {
      const double t0 = HostNow();
      auto data = sim.RunUntilComplete(fs.Read(files_probe[i], 0, c.read_len));
      get_us.push_back((HostNow() - t0) * 1e6);
      if (!data.ok()) {
        ledger->Mismatch("probe read " + files_probe[i] + ": " +
                         data.status().ToString());
      }
    }
    ROS_RETURN_IF_ERROR(out->extra_layers.Add(
        "frontend.get_host_us", Median(get_us), "us", Clock::kHost));
    ROS_RETURN_IF_ERROR(ProbeMeta(sim, fs, files_probe, dirs_probe, ledger,
                                  &out->extra_layers));
  }
  sim.Shutdown();
  return OkStatus();
}

}  // namespace

Status RunWorkload(const Options& opt, Tracer* tracer, Ledger* ledger,
                   Outcome* out) {
  out->ledger = ledger;
  Status status;
  if (opt.workload == "ingest") {
    status = RunIngest(opt, tracer, ledger, out);
  } else if (opt.workload == "cold_read") {
    status = RunColdRead(opt, tracer, ledger, out);
  } else if (opt.workload == "namespace") {
    status = RunNamespace(opt, tracer, ledger, out);
  } else {
    return ros::InvalidArgumentError("unknown workload " + opt.workload);
  }
  return status;
}

}  // namespace perfbench
