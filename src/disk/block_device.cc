#include "src/disk/block_device.h"

#include <algorithm>
#include <cstring>

namespace ros::disk {

void StorageDevice::StoreBytes(std::uint64_t offset,
                               std::span<const std::uint8_t> data) {
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk_index = abs / kChunk;
    const std::uint64_t within = abs % kChunk;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk - within, data.size() - pos);
    auto& chunk = chunks_[chunk_index];
    if (chunk.empty()) {
      chunk.resize(kChunk, 0);
    }
    std::memcpy(chunk.data() + within, data.data() + pos, n);
    pos += n;
  }
}

void StorageDevice::LoadBytes(std::uint64_t offset,
                              std::span<std::uint8_t> out) const {
  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk_index = abs / kChunk;
    const std::uint64_t within = abs % kChunk;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk - within, out.size() - pos);
    auto it = chunks_.find(chunk_index);
    if (it == chunks_.end()) {
      std::memset(out.data() + pos, 0, n);
    } else {
      std::memcpy(out.data() + pos, it->second.data() + within, n);
    }
    pos += n;
  }
}

Status StorageDevice::CheckInjectedFault(bool is_read) {
  if (faults_ == nullptr) {
    return OkStatus();
  }
  if (faults_->ShouldInject(sim::FaultKind::kHddFailure, name_)) {
    failed_ = true;
    return UnavailableError("device " + name_ + " failed (injected)");
  }
  if (is_read &&
      faults_->ShouldInject(sim::FaultKind::kHddReadError, name_)) {
    return DataLossError("injected latent read error on device " + name_);
  }
  return OkStatus();
}

sim::Task<Status> StorageDevice::Write(std::uint64_t offset,
                                       std::vector<std::uint8_t> data) {
  const Extent extent{offset, data.size(), data.data()};
  co_return co_await WriteExtents({&extent, 1});
}

sim::Task<Status> StorageDevice::ChargeWrite(std::uint64_t offset,
                                             std::uint64_t length) {
  const Extent extent{offset, length, nullptr};
  co_return co_await WriteExtents({&extent, 1});
}

sim::Task<Status> StorageDevice::WriteExtents(
    std::span<const Extent> extents) {
  std::uint64_t total = 0;
  for (const Extent& extent : extents) {
    if (extent.offset + extent.length > capacity_) {
      co_return OutOfRangeError("write beyond device " + name_);
    }
    total += extent.length;
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(/*is_read=*/false));
  sim::TimePoint start = sim_.now();
  co_await sim_.Delay(WriteLatency(extents.front().offset) +
                      sim::TransferTime(total, perf_.write_bytes_per_sec));
  if (failed_) {  // failure injected mid-flight
    co_return UnavailableError("device " + name_ + " failed");
  }
  for (const Extent& extent : extents) {
    if (extent.data != nullptr) {
      StoreBytes(extent.offset, {extent.data, extent.length});
    }
  }
  last_write_end_ = extents.back().offset + extents.back().length;
  bytes_written_ += total;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> StorageDevice::Read(
    std::uint64_t offset, std::uint64_t length) {
  if (offset + length > capacity_) {
    co_return OutOfRangeError("read beyond device " + name_);
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(/*is_read=*/true));
  sim::TimePoint start = sim_.now();
  co_await sim_.Delay(ReadLatency(offset) +
                      sim::TransferTime(length, perf_.read_bytes_per_sec));
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  last_read_end_ = offset + length;
  std::vector<std::uint8_t> out(length);
  LoadBytes(offset, out);
  bytes_read_ += length;
  busy_time_ += sim_.now() - start;
  co_return out;
}

sim::Task<Status> StorageDevice::WriteDiscard(std::uint64_t offset,
                                              std::uint64_t length) {
  if (offset + length > capacity_) {
    co_return OutOfRangeError("write beyond device " + name_);
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(/*is_read=*/false));
  sim::TimePoint start = sim_.now();
  co_await sim_.Delay(WriteLatency(offset) +
                      sim::TransferTime(length, perf_.write_bytes_per_sec));
  last_write_end_ = offset + length;
  bytes_written_ += length;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

sim::Task<Status> StorageDevice::ReadDiscard(std::uint64_t offset,
                                             std::uint64_t length) {
  if (offset + length > capacity_) {
    co_return OutOfRangeError("read beyond device " + name_);
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(/*is_read=*/true));
  sim::TimePoint start = sim_.now();
  co_await sim_.Delay(ReadLatency(offset) +
                      sim::TransferTime(length, perf_.read_bytes_per_sec));
  last_read_end_ = offset + length;
  bytes_read_ += length;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

sim::Task<Status> StorageDevice::ReadMulti(std::vector<Segment>* segments) {
  std::uint64_t total = 0;
  for (const Segment& segment : *segments) {
    if (segment.offset + segment.data.size() > capacity_) {
      co_return OutOfRangeError("vectored read beyond device " + name_);
    }
    total += segment.data.size();
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(/*is_read=*/true));
  sim::TimePoint start = sim_.now();
  co_await sim_.Delay(ReadLatency(segments->front().offset) +
                      sim::TransferTime(total, perf_.read_bytes_per_sec));
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  for (Segment& segment : *segments) {
    LoadBytes(segment.offset, segment.data);
  }
  last_read_end_ =
      segments->back().offset + segments->back().data.size();
  bytes_read_ += total;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

void StorageDevice::Replace() {
  failed_ = false;
  chunks_.clear();
}

}  // namespace ros::disk
