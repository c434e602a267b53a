// Chaos harness: seeded fault storms against the full OLFS stack.
//
// For every seed the harness builds a fresh rack, installs a FaultInjector
// mixing scripted one-shots with background fault rates, runs a write /
// flush / read-back / scrub / rebuild workload and checks the §4.7
// self-healing invariants:
//
//   * every acked write reads back byte-identical (degraded reads count
//     as success — that is the point of the parity path);
//   * the burn pipeline drains without a fatal error;
//   * after the storm, RebuildNamespace recovers every file from the
//     surviving discs;
//   * speculative tray loads enqueued against the storm never evict a
//     tray with queued demand and the scheduler queue drains.
//
// Prints one JSON line of telemetry per seed and exits non-zero (printing
// the offending seed) on the first violated invariant, so a CI job can
// sweep seeds cheaply:  chaos_harness --seeds=1,2,3,4,5
//
// --replay-check additionally runs every seed TWICE with a
// sim::EventHasher installed: the first run records the event-stream
// digest trail, the second verifies against it fold by fold. Any
// divergence — a wall-clock read, unordered-container iteration, or
// pointer-order dependence sneaking into the model — fails the seed and
// names the first divergent event.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/event_hasher.h"
#include "src/sim/fault.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::FaultKind;
using sim::Seconds;

struct Options {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  int files = 6;
  double latent_rate = 0.002;
  double mech_rate = 0.002;
  bool replay_check = false;
};

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

OlfsParams ChaosParams() {
  OlfsParams params;
  params.disc_type = drive::DiscType::kBdr25;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;  // every read exercises the optical path
  return params;
}

// Returns true when the seed's run upholds every invariant. With a
// non-null `hasher` the run folds its event stream into it; `quiet`
// suppresses the per-seed JSON line (used for replay-check second runs,
// which would otherwise print the same telemetry twice).
bool RunSeed(std::uint64_t seed, const Options& opt,
             sim::EventHasher* hasher = nullptr, bool quiet = false) {
  auto fail = [seed](const std::string& what) {
    std::fprintf(stderr, "CHAOS VIOLATION (seed %llu): %s\n",
                 static_cast<unsigned long long>(seed), what.c_str());
    return false;
  };

  sim::Simulator sim;
  sim.set_event_hasher(hasher);
  RosSystem system(sim, TestSystemConfig());
  auto olfs = std::make_unique<Olfs>(sim, &system, ChaosParams());
  olfs->burns().burn_start_interval = Seconds(1);

  sim::FaultInjector faults(seed);
  faults.set_event_hasher(hasher);
  faults.FailNth(FaultKind::kBurnFailure, "", 2);
  faults.FailNth(FaultKind::kMechFault, "", 10);
  faults.FailNth(FaultKind::kLatentSectorError, "", 3);
  faults.SetRate(FaultKind::kLatentSectorError, opt.latent_rate);
  faults.SetRate(FaultKind::kMechFault, opt.mech_rate);
  system.InstallFaultInjector(&faults);

  // Acked writes: only content whose Create returned OkStatus counts.
  // Writes carry an AccessHint stream tag so the storm also exercises the
  // affinity channel (two interleaved streams).
  std::map<std::string, std::vector<std::uint8_t>> acked;
  std::map<std::string, std::uint64_t> stream_of;
  for (int i = 0; i < opt.files; ++i) {
    const std::string path = "/storm/f" + std::to_string(i);
    const std::uint64_t stream = 1 + (i % 2);
    auto payload = RandomBytes(8 * kKiB + i * 4096, seed * 1000 + i);
    Status created = sim.RunUntilComplete(
        olfs->Create(path, payload, payload.size(), AccessHint{stream}));
    if (!created.ok()) {
      return fail("write not acked: " + created.ToString());
    }
    acked[path] = std::move(payload);
    stream_of[path] = stream;
  }
  Status drained = sim.RunUntilComplete(olfs->FlushAndDrain());
  if (!drained.ok()) {
    return fail("burn pipeline: " + drained.ToString());
  }

  // Burned tray set, used to aim speculative loads during the storm.
  std::vector<int> spec_trays;
  {
    std::set<int> burned;
    for (const std::string& id : olfs->images().BurnedImages()) {
      auto record = olfs->images().Lookup(id);
      if (record.ok() && (*record)->disc.has_value()) {
        burned.insert((*record)->disc->tray.ToIndex());
      }
    }
    spec_trays.assign(burned.begin(), burned.end());
  }

  // Read-back under fire, with speculative loads enqueued between demand
  // reads: the background class must cancel or yield, never evict a
  // demanded tray. Latencies feed the summary line.
  std::vector<double> read_latencies;
  std::size_t spec_cursor = 0;
  for (const auto& [path, expect] : acked) {
    if (!spec_trays.empty()) {
      olfs->fetch_scheduler()->EnqueueSpeculative(
          mech::TrayAddress::FromIndex(
              spec_trays[spec_cursor++ % spec_trays.size()]));
    }
    const sim::TimePoint start = sim.now();
    auto data = sim.RunUntilComplete(
        olfs->Read(path, 0, expect.size(), AccessHint{stream_of[path]}));
    read_latencies.push_back(sim::ToSeconds(sim.now() - start));
    if (!data.ok()) {
      return fail(path + " lost: " + data.status().ToString());
    }
    if (*data != expect) {
      return fail(path + " read back different bytes");
    }
  }
  const FetchSchedulerStats spec_stats = olfs->fetch_scheduler()->stats();
  if (spec_stats.speculative_demand_evictions != 0) {
    return fail("speculative load evicted a demanded tray");
  }
  if (olfs->fetch_scheduler()->queue_depth() != 0) {
    return fail("fetch queue did not drain after read-back");
  }

  // Storm over: scrub out latent damage, drain repair re-burns, then
  // prove a from-scratch disc scan still recovers the namespace.
  system.InstallFaultInjector(nullptr);
  auto scrubbed = sim.RunUntilComplete(olfs->scrub().ScrubAndRepair());
  if (!scrubbed.ok()) {
    return fail("scrub: " + scrubbed.status().ToString());
  }
  Status repairs = sim.RunUntilComplete(olfs->FlushAndDrain());
  if (!repairs.ok()) {
    return fail("repair burns: " + repairs.ToString());
  }

  std::set<int> tray_indices;
  for (const std::string& id : olfs->images().BurnedImages()) {
    auto record = olfs->images().Lookup(id);
    if (record.ok() && (*record)->disc.has_value()) {
      tray_indices.insert((*record)->disc->tray.ToIndex());
    }
  }
  const std::uint64_t degraded = olfs->reader().degraded_reads();
  const std::uint64_t reconstructions = olfs->scrub().reconstructions();
  const std::uint64_t repaired = olfs->scrub().images_repaired();
  const int burn_retries = olfs->burns().burn_retries();
  const int reallocated = olfs->burns().arrays_reallocated();
  const std::uint64_t fetch_retries = olfs->fetches().retries();

  olfs = std::make_unique<Olfs>(sim, &system, ChaosParams());
  olfs->burns().burn_start_interval = Seconds(1);
  std::vector<mech::TrayAddress> trays;
  for (int t : tray_indices) {
    trays.push_back(mech::TrayAddress::FromIndex(t));
  }
  Maintenance maintenance(olfs.get());
  auto report = sim.RunUntilComplete(maintenance.RebuildNamespace(trays));
  if (!report.ok()) {
    return fail("rebuild: " + report.status().ToString());
  }
  for (const auto& [path, expect] : acked) {
    auto data =
        sim.RunUntilComplete(olfs->Read(path, 0, expect.size()));
    if (!data.ok()) {
      return fail(path + " lost after rebuild: " +
                  data.status().ToString());
    }
    if (*data != expect) {
      return fail(path + " different bytes after rebuild");
    }
  }

  if (quiet) {
    sim.Shutdown();
    return true;
  }
  const SummaryStats lat = Summarize(std::move(read_latencies));
  std::printf(
      "{\"seed\": %llu, \"acked_files\": %zu, \"injected\": "
      "{\"burn\": %llu, \"latent\": %llu, \"mech\": %llu}, "
      "\"degraded_reads\": %llu, \"reconstructions\": %llu, "
      "\"images_repaired\": %llu, \"burn_retries\": %d, "
      "\"arrays_reallocated\": %d, \"fetch_retries\": %llu, "
      "\"read_latency_s\": {\"mean\": %.6f, \"p50\": %.6f, "
      "\"p99\": %.6f}, \"speculative\": {\"enqueued\": %llu, "
      "\"loads\": %llu, \"canceled\": %llu, \"useful\": %llu, "
      "\"demand_evictions\": %llu}, "
      "\"rebuild_files\": %d, \"sim_hours\": %.2f}\n",
      static_cast<unsigned long long>(seed), acked.size(),
      static_cast<unsigned long long>(
          faults.injected(FaultKind::kBurnFailure)),
      static_cast<unsigned long long>(
          faults.injected(FaultKind::kLatentSectorError)),
      static_cast<unsigned long long>(
          faults.injected(FaultKind::kMechFault)),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(reconstructions),
      static_cast<unsigned long long>(repaired), burn_retries,
      reallocated, static_cast<unsigned long long>(fetch_retries),
      lat.mean, lat.p50, lat.p99,
      static_cast<unsigned long long>(spec_stats.speculative_enqueued),
      static_cast<unsigned long long>(spec_stats.speculative_loads),
      static_cast<unsigned long long>(spec_stats.speculative_canceled),
      static_cast<unsigned long long>(spec_stats.speculative_useful),
      static_cast<unsigned long long>(
          spec_stats.speculative_demand_evictions),
      report->files_recovered, sim::ToSeconds(sim.now()) / 3600.0);
  sim.Shutdown();
  return true;
}

// Double-runs one seed with the divergence oracle installed. Returns true
// when both runs uphold the invariants and their event streams hash
// identically.
bool ReplayCheckSeed(std::uint64_t seed, const Options& opt) {
  sim::EventHasher record;
  if (!RunSeed(seed, opt, &record)) {
    return false;
  }
  sim::EventHasher check(record.trail());
  const bool replay_ok = RunSeed(seed, opt, &check, /*quiet=*/true);
  check.Finish();
  if (check.diverged()) {
    const sim::EventHasher::Divergence& div = *check.divergence();
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE (seed %llu): event #%llu: %s\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(div.index),
                 div.description.c_str());
    return false;
  }
  if (!replay_ok) {
    return false;
  }
  std::printf("{\"seed\": %llu, \"replay_events\": %llu, "
              "\"replay_digest\": \"%016llx\"}\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(check.event_count()),
              static_cast<unsigned long long>(check.digest()));
  return true;
}

std::vector<std::uint64_t> ParseSeeds(const char* list) {
  std::vector<std::uint64_t> seeds;
  for (const char* p = list; *p != '\0';) {
    char* end = nullptr;
    seeds.push_back(std::strtoull(p, &end, 10));
    if (end == p) {
      break;
    }
    p = *end == ',' ? end + 1 : end;
  }
  return seeds;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      opt.seeds = {std::strtoull(arg.c_str() + 7, nullptr, 10)};
    } else if (arg.rfind("--seeds=", 0) == 0) {
      opt.seeds = ParseSeeds(arg.c_str() + 8);
    } else if (arg.rfind("--files=", 0) == 0) {
      opt.files = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--latent-rate=", 0) == 0) {
      opt.latent_rate = std::atof(arg.c_str() + 14);
    } else if (arg.rfind("--mech-rate=", 0) == 0) {
      opt.mech_rate = std::atof(arg.c_str() + 12);
    } else if (arg == "--replay-check") {
      opt.replay_check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N | --seeds=A,B,C] [--files=N] "
                   "[--latent-rate=R] [--mech-rate=R] [--replay-check]\n",
                   argv[0]);
      return 2;
    }
  }
  int failures = 0;
  for (std::uint64_t seed : opt.seeds) {
    const bool ok = opt.replay_check ? ReplayCheckSeed(seed, opt)
                                     : RunSeed(seed, opt);
    if (!ok) {
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d of %zu seeds violated an invariant\n",
                 failures, opt.seeds.size());
    return 1;
  }
  std::printf("all %zu seeds upheld every invariant\n", opt.seeds.size());
  return 0;
}

}  // namespace
}  // namespace ros::olfs

int main(int argc, char** argv) { return ros::olfs::Main(argc, argv); }
