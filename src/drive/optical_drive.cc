#include "src/drive/optical_drive.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace ros::drive {

Status OpticalDrive::InsertDisc(Disc* disc) {
  if (disc_ != nullptr) {
    return FailedPreconditionError("drive already holds a disc");
  }
  ROS_CHECK(disc != nullptr);
  disc_ = disc;
  state_ = DriveState::kSleeping;
  vfs_mounted_ = false;
  last_read_image_.clear();
  return OkStatus();
}

StatusOr<Disc*> OpticalDrive::EjectDisc() {
  if (disc_ == nullptr) {
    return FailedPreconditionError("drive is empty");
  }
  if (state_ == DriveState::kBurning || state_ == DriveState::kReading) {
    return FailedPreconditionError("drive is busy");
  }
  state_ = DriveState::kEmpty;
  vfs_mounted_ = false;
  Disc* out = disc_;
  disc_ = nullptr;
  return out;
}

void OpticalDrive::Sleep() {
  if (state_ == DriveState::kReady) {
    state_ = DriveState::kSleeping;
    vfs_mounted_ = false;
  }
}

sim::Task<Status> OpticalDrive::EnsureAwake() {
  if (disc_ == nullptr) {
    co_return FailedPreconditionError("no disc in drive");
  }
  if (state_ == DriveState::kSleeping) {
    co_await sim_.Delay(timings_.wake);
    state_ = DriveState::kReady;
  }
  co_return OkStatus();
}

sim::Task<Status> OpticalDrive::MountVfs() {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAwake());
  if (!vfs_mounted_) {
    co_await sim_.Delay(timings_.vfs_mount);
    vfs_mounted_ = true;
    last_read_image_.clear();
  }
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> OpticalDrive::Read(
    std::string image_id, std::uint64_t offset, std::uint64_t length) {
  ROS_CO_ASSIGN_OR_RETURN(const Session* session,
                          co_await TimedRead(std::move(image_id), offset,
                                             length));
  co_return session->Copy(offset, length);
}

sim::Task<Status> OpticalDrive::ChargeRead(std::string image_id,
                                           std::uint64_t offset,
                                           std::uint64_t length) {
  auto session = co_await TimedRead(std::move(image_id), offset, length);
  co_return session.status();
}

sim::Task<StatusOr<const Session*>> OpticalDrive::TimedRead(
    std::string image_id, std::uint64_t offset, std::uint64_t length) {
  ROS_CO_RETURN_IF_ERROR(co_await MountVfs());
  if (state_ != DriveState::kReady) {
    co_return UnavailableError("drive busy");
  }
  state_ = DriveState::kReading;
  sim::TimePoint start = sim_.now();
  if (set_ != nullptr) {
    set_->AddReader();
  }

  // Media aging (§5j): materialize the latent errors this disc accrued
  // since it was last observed, then consult the injector with the
  // age-scaled extra read-fault rate. With aging disabled both calls are
  // byte-identical to the flat-rate path.
  double aging_boost = 0.0;
  if (aging_ != nullptr && aging_->enabled) {
    const int rotted = disc_->AdvanceAging(sim_.now(), *aging_);
    if (rotted > 0 && faults_ != nullptr) {
      faults_->RecordExternal(sim::FaultKind::kLatentSectorError,
                              fault_site_,
                              static_cast<std::uint64_t>(rotted));
    }
    aging_boost =
        aging_->read_boost(disc_->AgeYears(sim_.now()), disc_->type());
  }

  // Latent sector error: the media under this read has silently rotted.
  // Corrupting the disc (rather than failing the call) makes the fault
  // persistent and scrub-discoverable, exactly like real bit rot.
  if (faults_ != nullptr &&
      faults_->ShouldInjectAged(sim::FaultKind::kLatentSectorError,
                                fault_site_, aging_boost)) {
    auto session = disc_->FindSession(image_id);
    if (session.ok()) {
      disc_->CorruptSector(((*session)->start + offset) / kSectorSize);
    }
  }

  // Head movement: sequential continuation of the previous read is free; a
  // different file or a jump costs a seek.
  const bool sequential =
      image_id == last_read_image_ && offset == last_read_end_;
  if (!sequential && !last_read_image_.empty()) {
    co_await sim_.Delay(timings_.seek);
  }

  const double single = ReadSpeedBytesPerSec(disc_->type());
  const double rate =
      set_ != nullptr ? set_->EffectiveReadRate(single) : single;
  co_await sim_.Delay(sim::TransferTime(length, rate));

  if (set_ != nullptr) {
    set_->RemoveReader();
  }
  state_ = DriveState::kReady;
  busy_time_ += sim_.now() - start;

  auto session = disc_->CheckSessionRead(image_id, offset, length);
  if (session.ok()) {
    bytes_read_ += length;
    last_read_image_ = std::move(image_id);
    last_read_end_ = offset + length;
  }
  co_return session;
}

sim::Task<StatusOr<StreamView>> OpticalDrive::ReadImageStream(
    std::string image_id) {
  ROS_CO_RETURN_IF_ERROR(co_await MountVfs());
  std::uint64_t n = 0;
  {
    ROS_CO_ASSIGN_OR_RETURN(const Session* found,
                            disc_->FindSession(image_id));
    n = found->stored_bytes;
  }
  // An empty stream still charges (and integrity-checks) one byte.
  ROS_CO_ASSIGN_OR_RETURN(
      const Session* session,
      co_await TimedRead(std::move(image_id), 0,
                         std::max<std::uint64_t>(1, n)));
  co_return StreamView{session->data(), session->payload};
}

sim::Task<StatusOr<BurnResult>> OpticalDrive::BurnImage(
    std::string image_id, std::uint64_t logical_size,
    SharedBytes payload, BurnOptions options) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAwake());
  if (state_ != DriveState::kReady) {
    co_return UnavailableError("drive busy");
  }
  if (BytesOf(payload).size() > logical_size) {
    co_return InvalidArgumentError("payload exceeds logical size");
  }
  // Injected burn failure: the write strategy aborts and the media must
  // be treated as suspect (kDataLoss => the burn manager re-burns the
  // whole array onto spare media rather than retrying in place).
  if (faults_ != nullptr &&
      faults_->ShouldInject(sim::FaultKind::kBurnFailure, fault_site_)) {
    co_return DataLossError("injected burn failure on " + fault_site_);
  }

  // Resume path: an open session for this image continues where it left
  // off; otherwise this is a fresh session.
  std::uint64_t already_burned = 0;
  bool resuming = false;
  if (!disc_->sessions().empty() && !disc_->sessions().back().closed) {
    const Session& open = disc_->sessions().back();
    if (open.image_id != image_id) {
      co_return FailedPreconditionError(
          "disc has an open session for a different image");
    }
    already_burned = open.logical_size;
    resuming = true;
  }

  state_ = DriveState::kBurning;
  interrupt_requested_ = false;
  sim::TimePoint start_time = sim_.now();

  // Append mode on a blank disc formats the reserved metadata zone first.
  std::uint64_t zone_offset = 0;
  if (options.append_mode) {
    const std::uint64_t zone = MetadataZoneBytes(disc_->capacity());
    zone_offset = zone;
    if (disc_->blank()) {
      co_await sim_.Delay(timings_.format_metadata_zone);
      Status status = disc_->AppendSession("<metadata-zone>", zone, {},
                                           true);
      if (!status.ok()) {
        state_ = DriveState::kReady;
        co_return status;
      }
    }
  } else if (resuming) {
    co_return FailedPreconditionError(
        "open session requires append_mode to resume");
  }

  const BurnSpeedProfile profile =
      BurnSpeedProfile::For(disc_->type(), Fnv1a64({
          reinterpret_cast<const std::uint8_t*>(disc_->id().data()),
          disc_->id().size()}));
  const std::uint64_t capacity = disc_->capacity();
  const std::uint64_t session_start =
      resuming ? disc_->sessions().back().start : disc_->burned_bytes();
  if (!resuming && logical_size > disc_->free_bytes()) {
    state_ = DriveState::kReady;
    co_return ResourceExhaustedError("image does not fit on disc");
  }
  (void)zone_offset;

  // Burn in 128 chunks, re-arbitrating shared bandwidth at each boundary
  // and honoring interrupts between chunks.
  constexpr int kChunks = 128;
  const std::uint64_t chunk = (logical_size + kChunks - 1) / kChunks;
  std::uint64_t burned = already_burned;
  bool interrupted = false;
  while (burned < logical_size) {
    if (interrupt_requested_) {
      interrupted = true;
      break;
    }
    const std::uint64_t n = std::min<std::uint64_t>(chunk,
                                                    logical_size - burned);
    const double progress =
        static_cast<double>(session_start + burned) /
        static_cast<double>(capacity);
    const double desired =
        profile.SpeedAt(progress) * kBluRay1xBytesPerSec;
    desired_burn_rate_ = desired;
    const double rate =
        set_ != nullptr ? set_->EffectiveBurnRate(desired) : desired;
    if (burn_observer) {
      burn_observer(static_cast<double>(burned) /
                        static_cast<double>(logical_size),
                    rate / kBluRay1xBytesPerSec);
    }
    co_await sim_.Delay(sim::TransferTime(n, rate));
    burned += n;
    bytes_burned_ += n;
  }
  desired_burn_rate_ = 0.0;
  state_ = DriveState::kReady;
  busy_time_ += sim_.now() - start_time;

  // Record the (possibly partial) session on the media: the burned prefix
  // of the shared payload, without copying it.
  const std::uint64_t stored =
      std::min<std::uint64_t>(BytesOf(payload).size(), burned);
  const bool close_now = !interrupted && options.close_session;
  Status status =
      resuming ? disc_->ExtendOpenSession(image_id, burned, std::move(payload),
                                          close_now, stored)
               : disc_->AppendSession(image_id, burned, std::move(payload),
                                      close_now, stored);
  if (!status.ok()) {
    co_return status;
  }
  // The aging clock starts at the first successful burn (idempotent).
  disc_->StampBirth(sim_.now());
  // New sessions invalidate the mounted VFS view.
  vfs_mounted_ = false;

  ROS_LOG(kDebug) << "drive " << id_ << (interrupted ? " interrupted " :
                                         " burned ")
                  << image_id << " (" << burned << " bytes)";
  co_return BurnResult{.completed = !interrupted, .bytes_burned = burned};
}

DriveSet::DriveSet(sim::Simulator& sim, int id, DriveTimings timings)
    : sim_(sim), id_(id) {
  for (int i = 0; i < kDrivesPerSet; ++i) {
    drives_.push_back(
        std::make_unique<OpticalDrive>(sim, this, id * kDrivesPerSet + i,
                                       timings));
  }
}

OpticalDrive* DriveSet::FindImage(const std::string& image_id) {
  for (auto& drive : drives_) {
    if (drive->has_disc() && drive->disc()->FindSession(image_id).ok()) {
      return drive.get();
    }
  }
  return nullptr;
}

double DriveSet::EffectiveReadRate(double single_rate) const {
  // active_readers_ includes the caller by the time this is consulted.
  const int others = std::max(0, active_readers_ - 1);
  return single_rate * (1.0 - kReadContentionPerDrive * others);
}

int DriveSet::active_burners() const {
  int n = 0;
  for (const auto& drive : drives_) {
    if (drive->desired_burn_rate_ > 0) {
      ++n;
    }
  }
  return n;
}

double DriveSet::total_desired_burn_rate() const {
  double total = 0;
  for (const auto& drive : drives_) {
    total += drive->desired_burn_rate_;
  }
  return total;
}

double DriveSet::EffectiveBurnRate(double desired) const {
  const double total = total_desired_burn_rate();
  if (total <= kBurnBandwidthCap) {
    return desired;
  }
  // Proportional throttling when the shared write path saturates.
  return desired * kBurnBandwidthCap / total;
}

}  // namespace ros::drive
