// Reproduces Table 1 (§5.2): file read latency by storage location.
//
// The internal-op (FUSE) overhead is zeroed for this bench — Table 1
// reports the data-path latency of each location, which the paper's §5.3
// numbers (9/16 ms software overhead) sit on top of.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/olfs/olfs.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

using namespace ros;
using namespace ros::olfs;

namespace {

struct Rig {
  Rig() {
    SystemConfig config;
    config.rollers = 1;
    config.drive_sets = 1;
    config.data_volumes = 2;
    config.hdds_per_volume = 7;
    config.hdd_capacity = 8 * kGiB;
    config.ssd_capacity = 512 * kMiB;
    system = std::make_unique<RosSystem>(sim, config);
    OlfsParams params;
    params.disc_capacity_override = 64 * kMiB;
    params.read_cache_bytes = 0;  // evict after burning: reads go to discs
    params.internal_op_cost = 0;  // Table 1 measures the data path
    params.mode_switch_cost = 0;
    params.stream_op_cost = 0;
    olfs = std::make_unique<Olfs>(sim, system.get(), params);
    olfs->burns().burn_start_interval = sim::Seconds(2);
  }

  double TimedRead(const std::string& path) {
    sim::TimePoint t0 = sim.now();
    auto data = sim.RunUntilComplete(olfs->Read(path, 0, 1 * kKiB));
    ROS_CHECK(data.ok());
    return sim::ToSeconds(sim.now() - t0);
  }

  sim::Simulator sim;
  std::unique_ptr<RosSystem> system;
  std::unique_ptr<Olfs> olfs;
};

}  // namespace

int main() {
  Rig rig;
  auto payload = std::vector<std::uint8_t>(32 * kKiB, 0x3C);

  bench::PrintHeader("Table 1: read latency by file location (seconds)");

  // Row 1: file in an open disk bucket.
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/t1/bucket.bin", payload)).ok());
  bench::PrintRow("disk bucket", 0.001, rig.TimedRead("/t1/bucket.bin"),
                  "s");

  // Row 2: file in a closed disc image still in the disk buffer.
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/t1/image.bin", payload)).ok());
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->buckets().CloseCurrentBucket()).ok());
  bench::PrintRow("disc image (buffered)", 0.002,
                  rig.TimedRead("/t1/image.bin"), "s");

  // Burn everything; with a zero-byte cache the images leave the buffer.
  ROS_CHECK(rig.sim.RunUntilComplete(rig.olfs->FlushAndDrain()).ok());

  // Row 4: disc array in the roller, free drives (cold fetch).
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/t1/cold.bin", payload)).ok());
  ROS_CHECK(rig.sim.RunUntilComplete(rig.olfs->FlushAndDrain()).ok());
  // The burn parked nothing: bays are empty after burning.
  const double cold = rig.TimedRead("/t1/cold.bin");

  // Row 3: disc already in a drive (array parked by the previous fetch);
  // the administrator unmounted the UDF volume, so the read pays the VFS
  // mount again (the paper's 0.223 s case).
  {
    auto index = rig.sim.RunUntilComplete(rig.olfs->mv().Get("/t1/cold.bin"));
    ROS_CHECK(index.ok());
    const std::string image_id = (*index->Latest())->parts[0].image_id;
    auto record = rig.olfs->images().Lookup(image_id);
    ROS_CHECK(record.ok());
    drive::OpticalDrive* drive =
        rig.olfs->mech().DriveHolding(*(*record)->disc);
    ROS_CHECK(drive != nullptr);
    drive->InvalidateVfs();
    rig.olfs->reader().DropDiscMount(image_id);
    bench::PrintRow("disc in optical drive", 0.223,
                    rig.TimedRead("/t1/cold.bin"), "s");
  }
  bench::PrintRow("disc array in roller, free drives", 70.553, cold, "s");

  // Row 5: every bay holds an idle (parked) array of the wrong discs: the
  // fetch must unload it first. /t1/bucket.bin's array is parked from the
  // previous fetch; read a file whose disc lives in another array.
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/t1/other.bin", payload)).ok());
  ROS_CHECK(rig.sim.RunUntilComplete(rig.olfs->FlushAndDrain()).ok());
  // The flush-burn left the bay empty again; park the first array by
  // touching it, then read the new file.
  (void)rig.TimedRead("/t1/cold.bin");
  bench::PrintRow("disc array in roller, drives not working", 155.037,
                  rig.TimedRead("/t1/other.bin"), "s");

  // Row 6: all drives busy burning -> the read waits for the burn
  // (BusyDrivePolicy::kWaitForBurn), i.e. "minutes".
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/t1/late.bin", payload)).ok());
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->buckets().CloseCurrentBucket()).ok());
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->burns().FlushPartialArray()).ok());
  // While that array burns, immediately read a disc-resident file.
  const double busy = rig.TimedRead("/t1/cold.bin");
  bench::PrintRow("disc array in roller, all drives busy (min)",
                  2.0, busy / 60.0, "min");
  ROS_CHECK(rig.sim.RunUntilComplete(rig.olfs->burns().DrainAll()).ok());
  bench::PrintNote(
      "paper reports 'minutes'; measured value depends on residual burn time");
  return 0;
}
