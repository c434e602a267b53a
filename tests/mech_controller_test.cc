// Unit tests for the Mechanical Controller's bay/array management.
#include "src/olfs/mech_controller.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/olfs/system.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

class MechControllerTest : public ::testing::Test {
 protected:
  MechControllerTest() {
    SystemConfig config = TestSystemConfig();
    config.drive_sets = 2;
    config.rollers = 1;
    system_ = std::make_unique<RosSystem>(sim_, config);
    params_.disc_capacity_override = 16 * kMiB;
    mc_ = std::make_unique<MechController>(sim_, system_->library(),
                                           system_->drive_sets(),
                                           &system_->discs(), params_);
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  OlfsParams params_;
  std::unique_ptr<MechController> mc_;
};

TEST_F(MechControllerTest, AcquirePrefersEmptyBays) {
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay.ok());
  EXPECT_EQ(mc_->bay_state(*bay), BayState::kBusy);
  auto bay2 = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay2.ok());
  EXPECT_NE(*bay, *bay2);
  // All busy now: non-waiting acquisition fails.
  EXPECT_EQ(sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false))
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST_F(MechControllerTest, AcquirePrefersBayHoldingWantedArray) {
  mech::TrayAddress tray{0, 3, 1};
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(tray, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, *bay)).ok());
  mc_->ReleaseBay(*bay);
  EXPECT_EQ(mc_->bay_state(*bay), BayState::kParked);

  // Asking for that tray again returns the same bay, array still loaded.
  auto again = sim_.RunUntilComplete(mc_->AcquireBay(tray, false));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *bay);
  ASSERT_TRUE(mc_->bay_tray(*again).has_value());
  EXPECT_EQ(*mc_->bay_tray(*again), tray);
  mc_->ReleaseBay(*again);
}

TEST_F(MechControllerTest, WaitingAcquireWakesOnRelease) {
  auto a = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  auto b = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  bool acquired = false;
  sim_.Spawn([](MechController* mc, bool* done) -> sim::Task<void> {
    auto bay = co_await mc->AcquireBay(std::nullopt, true);
    ROS_CHECK(bay.ok());
    *done = true;
    mc->ReleaseBay(*bay);
  }(mc_.get(), &acquired));
  sim_.RunFor(sim::Seconds(1));
  EXPECT_FALSE(acquired);
  mc_->ReleaseBay(*a);
  sim_.Run();
  EXPECT_TRUE(acquired);
}

TEST_F(MechControllerTest, LoadInsertsDiscsIntoDrives) {
  mech::TrayAddress tray{0, 7, 2};
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, *bay)).ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(mc_->drive_set(*bay).drive(i).has_disc());
    EXPECT_EQ(mc_->drive_set(*bay).drive(i).disc()->id(),
              (mech::DiscAddress{tray, i}.ToString()));
  }
  EXPECT_NE(mc_->DriveHolding({tray, 5}), nullptr);
  EXPECT_EQ(mc_->DriveHolding({{0, 8, 2}, 5}), nullptr);

  ASSERT_TRUE(sim_.RunUntilComplete(mc_->UnloadArray(*bay)).ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(mc_->drive_set(*bay).drive(i).has_disc());
  }
  mc_->ReleaseBay(*bay);
  EXPECT_EQ(mc_->bay_state(*bay), BayState::kEmpty);
}

TEST_F(MechControllerTest, DiscIdentityStableAcrossLoads) {
  mech::TrayAddress tray{0, 1, 0};
  drive::Disc* disc = mc_->DiscAt({tray, 4});
  ASSERT_TRUE(
      disc->AppendSession("img", 100, MakeSharedBytes({1, 2, 3}), true).ok());

  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, *bay)).ok());
  // The same physical media (with its burned session) is in the drive.
  EXPECT_TRUE(mc_->drive_set(*bay).drive(4).disc()->FindSession("img").ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->UnloadArray(*bay)).ok());
  mc_->ReleaseBay(*bay);
}

TEST_F(MechControllerTest, BootInventoryFindsParkedArrays) {
  mech::TrayAddress tray{0, 2, 3};
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, *bay)).ok());
  mc_->ReleaseBay(*bay);

  // Controller replacement: physical state is rediscovered.
  MechController fresh(sim_, system_->library(), system_->drive_sets(),
                       &system_->discs(), params_);
  EXPECT_EQ(fresh.bay_state(*bay), BayState::kParked);
  ASSERT_TRUE(fresh.bay_tray(*bay).has_value());
  EXPECT_EQ(*fresh.bay_tray(*bay), tray);
}

TEST_F(MechControllerTest, NonWaitingAcquireOfBusyWantedArrayFails) {
  mech::TrayAddress tray{0, 4, 1};
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(tray, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, *bay)).ok());

  // The wanted array sits in a busy bay. Even though the other bay is
  // free, a non-waiting acquire must not grab it: reloading the same
  // array elsewhere while its discs are in drives would fork the media.
  ASSERT_EQ(mc_->bay_state(1 - *bay), BayState::kEmpty);
  auto blocked = sim_.RunUntilComplete(mc_->AcquireBay(tray, false));
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);

  // A waiting acquire parks until the burnlike owner releases, then gets
  // the bay that already holds the array (§4.8's wait-for-burn shape).
  std::optional<int> woken;
  sim_.Spawn([](MechController* mc, mech::TrayAddress want,
                std::optional<int>* out) -> sim::Task<void> {
    auto got = co_await mc->AcquireBay(want, true);
    ROS_CHECK(got.ok());
    *out = *got;
    mc->ReleaseBay(*got);
  }(mc_.get(), tray, &woken));
  sim_.RunFor(sim::Seconds(5));
  EXPECT_FALSE(woken.has_value());
  mc_->ReleaseBay(*bay);
  sim_.Run();
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(*woken, *bay);
}

TEST_F(MechControllerTest, NonWaitingAcquireWithAllBaysBusyFails) {
  auto a = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  auto b = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto blocked = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  // Releasing one bay makes non-waiting acquisition succeed again.
  mc_->ReleaseBay(*a);
  auto again = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *a);
  mc_->ReleaseBay(*again);
  mc_->ReleaseBay(*b);
}

TEST_F(MechControllerTest, LoadIntoOccupiedBayFails) {
  auto bay = sim_.RunUntilComplete(mc_->AcquireBay(std::nullopt, false));
  ASSERT_TRUE(bay.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mc_->LoadArray({0, 0, 0}, *bay)).ok());
  EXPECT_EQ(sim_.RunUntilComplete(mc_->LoadArray({0, 0, 1}, *bay)).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ros::olfs
