// Disaster recovery scenario (§2.3, §4.4, §4.7): the properties that make
// ROS trustworthy for 50-year preservation.
//
//   1. A burned disc develops sector errors -> the scrub detects it and
//      rebuilds the image from its array's parity disc, re-burning it.
//   2. The controller (and with it the Metadata Volume) is destroyed ->
//      a replacement controller rebuilds the entire global namespace by
//      physically scanning the survived discs, because every disc image
//      is self-descriptive (unique file path, §4.4).
#include <cstdio>
#include <memory>

#include "src/common/rng.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/time.h"

using namespace ros;
using namespace ros::olfs;

namespace {

std::vector<std::uint8_t> Fingerprinted(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

}  // namespace

int main() {
  sim::Simulator sim;
  RosSystem rack(sim, TestSystemConfig());

  OlfsParams params;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  auto olfs = std::make_unique<Olfs>(sim, &rack, params);
  olfs->burns().burn_start_interval = sim::Seconds(2);

  // Preserve a few precious datasets and push them all the way to discs.
  std::printf("[setup] preserving datasets to optical discs...\n");
  auto genome = Fingerprinted(96 * kKiB, 1);
  auto ledger = Fingerprinted(48 * kKiB, 2);
  ROS_CHECK(sim.RunUntilComplete(
                olfs->Create("/vault/genome.fa", genome)).ok());
  ROS_CHECK(sim.RunUntilComplete(
                olfs->Create("/vault/ledger.db", ledger)).ok());
  ROS_CHECK(sim.RunUntilComplete(olfs->FlushAndDrain()).ok());
  std::printf("  %zu images burned across %d disc array(s)\n",
              olfs->images().BurnedImages().size(),
              olfs->burns().arrays_burned());

  // --- disaster 1: media degradation -------------------------------
  std::printf("\n[disaster 1] sector rot on the disc holding "
              "/vault/genome.fa\n");
  auto index = sim.RunUntilComplete(olfs->mv().Get("/vault/genome.fa"));
  ROS_CHECK(index.ok());
  const std::string image_id = (*index->Latest())->parts[0].image_id;
  auto record = olfs->images().Lookup(image_id);
  ROS_CHECK(record.ok());
  const mech::TrayAddress home = (*record)->disc->tray;
  olfs->mech().DiscAt(*(*record)->disc)->CorruptSector(3);

  auto broken = sim.RunUntilComplete(olfs->Read("/vault/genome.fa", 0, 64));
  std::printf("  direct read: %s\n", broken.status().ToString().c_str());

  sim::TimePoint t0 = sim.now();
  auto repaired = sim.RunUntilComplete(olfs->scrub().ScrubAndRepair());
  ROS_CHECK(repaired.ok());
  ROS_CHECK(sim.RunUntilComplete(olfs->FlushAndDrain()).ok());
  auto healed = sim.RunUntilComplete(
      olfs->Read("/vault/genome.fa", 0, genome.size()));
  ROS_CHECK(healed.ok());
  std::printf("  scrub repaired %d image(s) from parity in %.0f s; "
              "data %s\n", *repaired, sim::ToSeconds(sim.now() - t0),
              *healed == genome ? "bit-exact" : "CORRUPT");

  // --- disaster 2: total controller + MV loss ----------------------
  std::printf("\n[disaster 2] controller destroyed; replacement boots "
              "with an empty MV\n");
  std::vector<mech::TrayAddress> used_trays;
  for (int t = 0; t < mech::kTraysPerRoller; ++t) {
    mech::TrayAddress tray = mech::TrayAddress::FromIndex(t);
    if (olfs->da_index().state(tray) == ArrayState::kUsed) {
      used_trays.push_back(tray);
    }
  }
  (void)home;
  olfs = std::make_unique<Olfs>(sim, &rack, params);  // new controller
  olfs->burns().burn_start_interval = sim::Seconds(2);

  auto missing = sim.RunUntilComplete(olfs->Read("/vault/ledger.db", 0, 16));
  std::printf("  before recovery: %s\n",
              missing.status().ToString().c_str());

  t0 = sim.now();
  Maintenance maintenance(olfs.get());
  auto report =
      sim.RunUntilComplete(maintenance.RebuildNamespace(used_trays));
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().ToString().c_str());
  }
  ROS_CHECK(report.ok());
  std::printf("  scanned %d discs, parsed %d images, recovered %d files "
              "in %.0f s\n", report->discs_scanned, report->images_parsed,
              report->files_recovered, sim::ToSeconds(sim.now() - t0));

  auto restored = sim.RunUntilComplete(
      olfs->Read("/vault/ledger.db", 0, ledger.size()));
  ROS_CHECK(restored.ok());
  std::printf("  /vault/ledger.db: %s\n",
              *restored == ledger ? "bit-exact after recovery"
                                  : "CORRUPT");
  auto restored_genome = sim.RunUntilComplete(
      olfs->Read("/vault/genome.fa", 0, genome.size()));
  ROS_CHECK(restored_genome.ok());
  std::printf("  /vault/genome.fa: %s\n",
              *restored_genome == genome ? "bit-exact after recovery"
                                         : "CORRUPT");
  return 0;
}
