#include "src/olfs/fetch_manager.h"

#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/sim/retry.h"

namespace ros::olfs {

sim::Task<StatusOr<FetchLease>> FetchManager::FetchDisc(
    std::string image_id) {
  return FetchWithRetry(std::move(image_id), &FetchManager::ReadOnce,
                        /*seed_salt=*/0, "fetch");
}

sim::Task<StatusOr<FetchLease>> FetchManager::FetchDiscBackground(
    std::string image_id) {
  return FetchWithRetry(std::move(image_id), &FetchManager::BackgroundOnce,
                        /*seed_salt=*/0xBA5EBA11u, "background fetch");
}

sim::Task<StatusOr<FetchLease>> FetchManager::FetchWithRetry(
    std::string image_id, Attempt attempt, std::uint64_t seed_salt,
    const char* what) {
  sim::Retrier retrier(
      sim_, params_.mech_retry,
      Fnv1a64({reinterpret_cast<const std::uint8_t*>(image_id.data()),
               image_id.size()}) ^
          seed_salt);
  while (true) {
    StatusOr<FetchLease> lease = co_await (this->*attempt)(image_id);
    if (lease.ok()) {
      co_return std::move(lease);
    }
    if (!co_await retrier.AwaitRetry(lease.status())) {
      co_return lease.status();
    }
    ++retries_;
    ROS_LOG(kWarning) << "retrying " << what << " of " << image_id
                      << " (attempt " << retrier.attempts() + 1
                      << "): " << lease.status().ToString();
  }
}

sim::Task<StatusOr<FetchLease>> FetchManager::ReadOnce(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const mech::DiscAddress address,
                          Locate(image_id));
  // Under the interrupt-and-swap policy, a read that finds every bay busy
  // nudges a burn before queueing: the interrupted burn unloads at the
  // next chunk boundary and frees its bay for the scheduler.
  if (params_.busy_drive_policy == BusyDrivePolicy::kInterruptAndSwap) {
    bool any_idle = false;
    for (int bay = 0; bay < mech_->num_bays(); ++bay) {
      if (mech_->bay_state(bay) != BayState::kBusy) {
        any_idle = true;
        break;
      }
    }
    if (!any_idle) {
      burns_->InterruptOneBurn();
    }
  }
  ROS_CO_ASSIGN_OR_RETURN(int bay,
                          co_await scheduler_->AcquireForRead(address));
  co_return LeaseOn(bay, address);
}

sim::Task<StatusOr<FetchLease>> FetchManager::BackgroundOnce(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const mech::DiscAddress address,
                          Locate(image_id));
  ROS_CO_ASSIGN_OR_RETURN(
      int bay, co_await scheduler_->AcquireForBackground(address));
  co_return LeaseOn(bay, address);
}

StatusOr<mech::DiscAddress> FetchManager::Locate(
    const std::string& image_id) const {
  ROS_ASSIGN_OR_RETURN(const ImageRecord* record, images_->Lookup(image_id));
  if (!record->disc.has_value()) {
    return FailedPreconditionError("image " + image_id +
                                   " is not on any disc");
  }
  return *record->disc;
}

FetchLease FetchManager::LeaseOn(int bay, mech::DiscAddress address) {
  return FetchLease(scheduler_, bay,
                    &mech_->drive_set(bay).drive(address.index));
}

}  // namespace ros::olfs
