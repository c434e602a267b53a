// Reproduces §4.7's redundancy analysis and exercises the scrub/repair
// path: with a 1e-16 sector error rate, an 11+1 RAID-5 disc array reaches
// ~1e-23 and a 10+2 RAID-6 array ~1e-40 whole-array error rates; damaged
// discs are recovered from parity and re-burned.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/drive/disc.h"
#include "src/olfs/olfs.h"
#include "src/sim/time.h"

using namespace ros;
using namespace ros::olfs;

namespace {

// Probability that a disc array is unrecoverable: a sector stripe is lost
// when more than `tolerated` of its n discs have an error in the aligned
// sector (C(n, t+1) * p^(t+1)), summed over every stripe of the disc.
double ArrayErrorRate(double p, int n, int tolerated,
                      double sectors_per_disc) {
  const int k = tolerated + 1;
  double c = 1;
  for (int i = 0; i < k; ++i) {
    c = c * (n - i) / (i + 1);
  }
  return sectors_per_disc * c * std::pow(p, k);
}

}  // namespace

int main() {
  bench::PrintHeader("Redundancy analysis (§4.7)");
  const double sector_error = 1e-16;
  const double sectors = static_cast<double>(100 * kGB / drive::kSectorSize);
  const double raid5 = ArrayErrorRate(sector_error, 12, 1, sectors);
  const double raid6 = ArrayErrorRate(sector_error, 12, 2, sectors);
  std::printf("  sector error rate:              1e-16 (archive BD)\n");
  std::printf("  11+1 RAID-5 array error rate:   paper ~1e-23, model %.1e\n",
              raid5);
  std::printf("  10+2 RAID-6 array error rate:   paper ~1e-40, model %.1e\n",
              raid6);

  // End-to-end scrub & repair on a small rig (RAID-5 schema).
  sim::Simulator sim;
  RosSystem system(sim, TestSystemConfig());
  OlfsParams params;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  params.internal_op_cost = 0;
  params.mode_switch_cost = 0;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  ROS_CHECK(sim.RunUntilComplete(
                olfs.Create("/vault/a", std::vector<std::uint8_t>(9000, 0xAA),
                            9000))
                .ok());
  ROS_CHECK(sim.RunUntilComplete(
                olfs.Create("/vault/b", std::vector<std::uint8_t>(7000, 0xBB),
                            7000))
                .ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  auto index = sim.RunUntilComplete(olfs.mv().Get("/vault/a"));
  ROS_CHECK(index.ok());
  const std::string image = (*index->Latest())->parts[0].image_id;
  auto record = olfs.images().Lookup(image);
  ROS_CHECK(record.ok());
  olfs.mech().DiscAt(*(*record)->disc)->CorruptSector(2);

  sim::TimePoint t0 = sim.now();
  auto repaired = sim.RunUntilComplete(olfs.scrub().ScrubAndRepair());
  ROS_CHECK(repaired.ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  const double repair_seconds = sim::ToSeconds(sim.now() - t0);

  auto data = sim.RunUntilComplete(olfs.Read("/vault/a", 0, 9000));
  ROS_CHECK(data.ok());
  bool intact = true;
  for (std::uint8_t b : *data) {
    intact &= (b == 0xAA);
  }

  bench::PrintHeader("Scrub & parity repair (end to end)");
  std::printf("  corrupted discs repaired:  %d\n", *repaired);
  std::printf("  repair cycle time:         %.1f s (fetch members, XOR, "
              "re-burn)\n", repair_seconds);
  std::printf("  recovered data intact:     %s\n", intact ? "yes" : "NO");
  bench::PrintNote(
      "delayed parity + scheduled scrubbing replaces the write-and-check "
      "mode that would halve burn throughput (§4.7)");
  return 0;
}
