// Property-based sweeps: random archival workloads pushed through the
// whole stack, checking the invariants the system promises:
//   P1 write/read round trip: every byte written is read back, from
//      whatever tier the data currently occupies;
//   P2 version monotonicity: stats report increasing versions; readable
//      historic versions return their original content;
//   P3 burn conservation: every closed image either awaits burning or has
//      a DILindex location, and parity membership covers all data images;
//   P4 recovery equivalence: after MV loss, a disc scan restores every
//      file whose image reached a disc, bit-exact;
//   P5 determinism: identical seeds produce identical simulated traces.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/common/rng.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

struct Op {
  enum Kind { kCreate, kUpdate, kAppend, kRead, kUnlink } kind;
  int file;
};

class PropertySweep : public ::testing::TestWithParam<int> {};

std::vector<std::uint8_t> Content(int file, int version, std::size_t n) {
  Rng rng(static_cast<std::uint64_t>(file) * 1000003 + version);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

TEST_P(PropertySweep, RandomWorkloadInvariants) {
  const int seed = GetParam();
  Rng rng(seed);

  sim::Simulator sim;
  auto config = TestSystemConfig();
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 4 * kMiB;
  params.read_cache_bytes = rng.Chance(0.5) ? 0 : 64 * kMiB;
  params.parity_images = rng.Chance(0.3) ? 2 : 1;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  constexpr int kFiles = 12;
  // Oracle: per file, expected latest content (empty = deleted/absent).
  std::map<int, std::vector<std::uint8_t>> oracle;
  std::map<int, int> versions;

  auto path = [](int f) {
    return "/p/dir" + std::to_string(f % 3) + "/file" + std::to_string(f);
  };

  for (int step = 0; step < 60; ++step) {
    const int f = static_cast<int>(rng.Below(kFiles));
    const std::size_t size = 100 + rng.Below(48 * 1024);
    const int choice = static_cast<int>(rng.Below(10));
    if (choice < 3) {  // create
      auto data = Content(f, versions[f] + 1, size);
      Status status = sim.RunUntilComplete(olfs.Create(path(f), data));
      if (oracle.count(f) && !oracle[f].empty()) {
        EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
      } else if (status.ok()) {
        oracle[f] = data;
        ++versions[f];
      }
    } else if (choice < 5) {  // update
      auto data = Content(f, versions[f] + 1, size);
      Status status = sim.RunUntilComplete(
          olfs.Update(path(f), data, data.size()));
      if (versions[f] == 0) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(status.ok()) << status.ToString();
        oracle[f] = data;
        ++versions[f];
      }
    } else if (choice < 6) {  // append
      if (versions[f] > 0 && !oracle[f].empty()) {
        auto extra = Content(f, 900 + step, 1 + rng.Below(2000));
        Status status = sim.RunUntilComplete(olfs.Append(path(f), extra));
        ASSERT_TRUE(status.ok()) << status.ToString();
        oracle[f].insert(oracle[f].end(), extra.begin(), extra.end());
        auto info = sim.RunUntilComplete(olfs.Stat(path(f)));
        ASSERT_TRUE(info.ok());
        versions[f] = info->version;
      }
    } else if (choice < 9) {  // read (P1)
      if (versions[f] > 0 && !oracle[f].empty()) {
        const auto& expect = oracle[f];
        const std::uint64_t off = rng.Below(expect.size());
        const std::uint64_t len = 1 + rng.Below(expect.size() - off);
        auto data = sim.RunUntilComplete(olfs.Read(path(f), off, len));
        ASSERT_TRUE(data.ok()) << data.status().ToString();
        EXPECT_TRUE(std::equal(data->begin(), data->end(),
                               expect.begin() + static_cast<long>(off)))
            << "file " << f << " step " << step;
      }
    } else {  // unlink
      if (versions[f] > 0 && !oracle[f].empty()) {
        ASSERT_TRUE(sim.RunUntilComplete(olfs.Unlink(path(f))).ok());
        oracle[f].clear();
        ++versions[f];  // tombstone consumes a version
      }
    }
    // Occasionally flush the pipeline mid-stream.
    if (step % 25 == 24) {
      ASSERT_TRUE(sim.RunUntilComplete(olfs.FlushAndDrain()).ok())
          << olfs.burns().last_error().ToString();
    }
  }
  ASSERT_TRUE(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  // P1 again, now that everything is burned/evicted per config.
  for (const auto& [f, expect] : oracle) {
    if (expect.empty()) {
      EXPECT_EQ(sim.RunUntilComplete(olfs.Read(path(f), 0, 1))
                    .status()
                    .code(),
                StatusCode::kNotFound);
      continue;
    }
    auto data = sim.RunUntilComplete(olfs.Read(path(f), 0, expect.size()));
    ASSERT_TRUE(data.ok()) << path(f) << ": " << data.status().ToString();
    EXPECT_EQ(*data, expect) << path(f);
  }

  // P2: stat versions match the oracle count.
  for (const auto& [f, v] : versions) {
    if (v > 0 && !oracle[f].empty()) {
      auto info = sim.RunUntilComplete(olfs.Stat(path(f)));
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->version, v) << path(f);
    }
  }

  // P3: every non-open image is buffered-awaiting-burn or on a disc, and
  // burned arrays have full parity membership.
  for (const std::string& id : olfs.images().BurnedImages()) {
    auto record = olfs.images().Lookup(id);
    ASSERT_TRUE(record.ok());
    EXPECT_TRUE((*record)->disc.has_value());
    if (!(*record)->parity) {
      EXPECT_FALSE((*record)->array_members.empty()) << id;
    }
  }

  // P4: recovery equivalence for disc-resident latest versions.
  std::vector<mech::TrayAddress> trays;
  for (int t = 0; t < mech::kTraysPerRoller; ++t) {
    mech::TrayAddress tray = mech::TrayAddress::FromIndex(t);
    if (olfs.da_index().state(tray) == ArrayState::kUsed) {
      trays.push_back(tray);
    }
  }
  if (!trays.empty()) {
    // Which files' latest versions are fully on discs?
    std::map<int, std::vector<std::uint8_t>> disc_resident;
    for (const auto& [f, expect] : oracle) {
      if (expect.empty() || versions[f] == 0) {
        continue;
      }
      auto index = sim.RunUntilComplete(olfs.mv().Get(path(f)));
      if (!index.ok() || !index->Latest().ok()) {
        continue;
      }
      bool all_on_disc = true;
      for (const FilePart& part : (*index->Latest())->parts) {
        auto record = olfs.images().Lookup(part.image_id);
        all_on_disc &= record.ok() && (*record)->disc.has_value();
      }
      if (all_on_disc) {
        disc_resident[f] = expect;
      }
    }

    Maintenance maintenance(&olfs);
    auto report = sim.RunUntilComplete(maintenance.RebuildNamespace(trays));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const auto& [f, expect] : disc_resident) {
      auto data = sim.RunUntilComplete(
          olfs.Read(path(f), 0, expect.size()));
      ASSERT_TRUE(data.ok())
          << path(f) << " after recovery: " << data.status().ToString();
      EXPECT_EQ(*data, expect) << path(f) << " after recovery";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(1, 13));

// P5: determinism — same seed, same simulated end time and counters.
TEST(PropertyDeterminism, IdenticalSeedsIdenticalTraces) {
  auto run = [](int seed) {
    sim::Simulator sim;
    RosSystem system(sim, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = 4 * kMiB;
    Olfs olfs(sim, &system, params);
    olfs.burns().burn_start_interval = sim::Seconds(1);
    Rng rng(seed);
    for (int i = 0; i < 20; ++i) {
      auto data = Content(i, 1, 100 + rng.Below(20000));
      ROS_CHECK(sim.RunUntilComplete(
                    olfs.Create("/d/f" + std::to_string(i), data)).ok());
    }
    ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
    return std::tuple{sim.now(), sim.events_processed(),
                      olfs.burns().arrays_burned(),
                      olfs.buckets().buckets_created()};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

}  // namespace
}  // namespace ros::olfs
