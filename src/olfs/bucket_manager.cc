#include "src/olfs/bucket_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/olfs/affinity.h"

namespace ros::olfs {

std::string InternalPath(const std::string& path, int version) {
  if (version <= 1) {
    return path;
  }
  return path + "#v" + std::to_string(version);
}

std::string SplitLinkPath(const std::string& internal_path, int part) {
  return internal_path + "#prev" + std::to_string(part);
}

ParsedInternalPath ParseInternalPath(const std::string& internal) {
  ParsedInternalPath out;
  out.global_path = internal;
  std::size_t pos;
  if ((pos = out.global_path.rfind("#prev")) != std::string::npos) {
    out.part = std::atoi(out.global_path.c_str() + pos + 5);
    out.global_path.resize(pos);
  }
  if ((pos = out.global_path.rfind("#v")) != std::string::npos) {
    out.version = std::atoi(out.global_path.c_str() + pos + 2);
    out.global_path.resize(pos);
  }
  return out;
}

BucketManager::BucketManager(sim::Simulator& sim, const OlfsParams& params,
                             std::vector<disk::Volume*> data_volumes,
                             DiscImageStore* images)
    : sim_(sim), params_(params), data_volumes_(std::move(data_volumes)),
      images_(images), write_mutex_(sim) {
  ROS_CHECK(!data_volumes_.empty());
  ROS_CHECK(images_ != nullptr);
}

std::string BucketManager::NextImageId() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "img-%06d", bucket_counter_++);
  return buf;
}

sim::Task<StatusOr<BucketManager::OpenBucket*>> BucketManager::CurrentBucket() {
  if (current_ != nullptr) {
    co_return current_.get();
  }
  auto bucket = std::make_unique<OpenBucket>();
  const std::string id = NextImageId();
  bucket->image = std::make_shared<udf::Image>(id, params_.bucket_capacity());
  bucket->volume_index = bucket_counter_ % num_volumes();
  disk::Volume* volume = data_volumes_[bucket->volume_index];
  const std::string file = VolumeFileName(id);
  ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
  ROS_CO_RETURN_IF_ERROR(
      images_->RegisterBucket(bucket->image, bucket->volume_index, file));
  current_ = std::move(bucket);
  ROS_LOG(kDebug) << "opened bucket " << id;
  co_return current_.get();
}

sim::Task<Status> BucketManager::CloseBucket(OpenBucket* bucket) {
  ROS_CHECK(bucket == current_.get());
  const std::string id = bucket->image->id();
  // Append the UDF metadata (directory tree, file entries) that the
  // serialized image carries beyond raw payload bytes.
  const std::uint64_t meta_bytes =
      bucket->image->used_bytes() > bucket->payload_bytes
          ? bucket->image->used_bytes() - bucket->payload_bytes
          : 0;
  disk::Volume* volume = data_volumes_[bucket->volume_index];
  if (meta_bytes > 0) {
    ROS_CO_RETURN_IF_ERROR(co_await volume->AppendSparse(
        VolumeFileName(id), {}, meta_bytes));
  }
  ROS_CO_RETURN_IF_ERROR(images_->MarkClosed(id));
  current_.reset();
  ROS_LOG(kDebug) << "closed bucket " << id;
  if (on_image_closed) {
    on_image_closed(id);
  }
  co_return OkStatus();
}

sim::Task<StatusOr<WriteReceipt>> BucketManager::WriteFile(
    std::string path, int version, std::vector<std::uint8_t> data,
    std::uint64_t logical_size, int first_part, std::string prev_image,
    std::uint64_t stream) {
  if (data.size() > logical_size) {
    co_return InvalidArgumentError("payload exceeds logical size");
  }
  sim::Mutex::ScopedLock lock = co_await write_mutex_.Lock();

  const std::string internal = InternalPath(path, version);
  WriteReceipt receipt;
  receipt.total_size = logical_size;
  std::uint64_t written = 0;        // logical bytes placed so far
  int part_number = first_part;
  std::string previous_image = std::move(prev_image);

  while (true) {
    ROS_CO_ASSIGN_OR_RETURN(OpenBucket * bucket, co_await CurrentBucket());
    udf::Image& image = *bucket->image;
    // A continuation cannot reuse the bucket that already holds an earlier
    // (full) part of this file: roll over to a fresh one.
    if (image.Exists(internal)) {
      ROS_CO_RETURN_IF_ERROR(co_await CloseBucket(bucket));
      continue;
    }
    const std::uint64_t remaining = logical_size - written;

    // Cost of this file's entry (plus missing directories and, for
    // continuations, the link file).
    const std::uint64_t link_overhead =
        part_number > 0 ? udf::kEntryOverhead : 0;
    const std::uint64_t full_cost =
        image.CostOf(internal, remaining) + link_overhead;

    std::uint64_t take = remaining;
    if (full_cost > image.free_bytes()) {
      // How much payload fits alongside the entry/directory overhead?
      const std::uint64_t fixed = image.CostOf(internal, 0) + link_overhead;
      if (image.free_bytes() <= fixed + udf::kBlockSize) {
        // Not even one payload block: close and move on. A brand-new
        // bucket that still cannot fit the fixed overhead is a config
        // error (capacity smaller than the path's directory chain).
        if (image.file_count() == 0 && image.used_bytes() ==
                                           udf::kEntryOverhead) {
          co_return ResourceExhaustedError(
              "file path overhead exceeds bucket capacity");
        }
        ROS_CO_RETURN_IF_ERROR(co_await CloseBucket(bucket));
        continue;
      }
      take = ((image.free_bytes() - fixed) / udf::kBlockSize) *
             udf::kBlockSize;
      take = std::min(take, remaining);
    }

    // Split the real payload bytes covering [written, written + take).
    const std::uint64_t real =
        written < data.size()
            ? std::min<std::uint64_t>(take, data.size() - written)
            : 0;
    std::vector<std::uint8_t> piece;
    if (written == 0 && real == data.size()) {
      piece = std::move(data);  // one part holds it all: no copy
    } else if (real > 0) {
      piece.assign(data.begin() + static_cast<std::ptrdiff_t>(written),
                   data.begin() + static_cast<std::ptrdiff_t>(written + real));
    }

    // Continuation images link back to the previous part (§4.5).
    if (part_number > 0) {
      ROS_CO_RETURN_IF_ERROR(
          image.AddLink(SplitLinkPath(internal, part_number),
                        previous_image));
    }
    ROS_CO_RETURN_IF_ERROR(image.AddFile(internal, std::move(piece), take));

    // Refuse user data that would eat into the burn pipeline's headroom
    // (parity generation must always have room to drain the buffer).
    disk::Volume* volume = data_volumes_[bucket->volume_index];
    if (volume->free_bytes() < take + params_.buffer_reserve_bytes()) {
      co_return ResourceExhaustedError(
          "disk buffer full; waiting for the burn pipeline to reclaim "
          "space");
    }
    // The image holds the payload; the buffer volume is only charged for
    // it (its copy is never read back, DESIGN.md §5l).
    ROS_CO_RETURN_IF_ERROR(co_await volume->ChargeAppend(
        VolumeFileName(image.id()), real, take));
    bucket->payload_bytes += take;

    receipt.parts.push_back({image.id(), take});
    if (affinity_ != nullptr && stream != 0) {
      affinity_->RecordWrite(stream, image.id());
    }
    previous_image = image.id();
    written += take;
    ++part_number;

    if (written >= logical_size) {
      // Close the bucket if it can no longer fit a minimal new file plus
      // its directory entry (§4.5's closing rule).
      if (image.free_bytes() < 2 * udf::kEntryOverhead + udf::kBlockSize) {
        ROS_CO_RETURN_IF_ERROR(co_await CloseBucket(bucket));
      }
      co_return receipt;
    }
    // The current bucket is exhausted for this file; close it and continue
    // in a fresh one.
    ROS_CO_RETURN_IF_ERROR(co_await CloseBucket(bucket));
  }
}

sim::Task<Status> BucketManager::AppendToOpenFile(
    std::string path, int version, std::string image_id,
    std::vector<std::uint8_t> data, std::uint64_t logical_grow,
    std::uint64_t stream) {
  sim::Mutex::ScopedLock lock = co_await write_mutex_.Lock();
  if (current_ == nullptr || current_->image->id() != image_id) {
    co_return FailedPreconditionError("bucket " + image_id +
                                      " is no longer open");
  }
  if (affinity_ != nullptr && stream != 0) {
    affinity_->RecordWrite(stream, image_id);
  }
  const std::string internal = InternalPath(path, version);
  const std::uint64_t real = data.size();
  ROS_CO_RETURN_IF_ERROR(current_->image->AppendToFile(
      internal, std::move(data), logical_grow));
  disk::Volume* volume = data_volumes_[current_->volume_index];
  ROS_CO_RETURN_IF_ERROR(co_await volume->ChargeAppend(
      VolumeFileName(image_id), real, logical_grow));
  current_->payload_bytes += logical_grow;
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> BucketManager::ReadBuffered(
    std::string image_id, std::string internal_path,
    std::uint64_t offset, std::uint64_t length) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  if (record->image == nullptr) {
    co_return FailedPreconditionError("image " + image_id +
                                      " has no buffered bytes");
  }
  // Charge buffer-volume read time (approximate placement: same length at
  // the image's file).
  disk::Volume* volume = data_volumes_[record->volume_index];
  auto size = volume->FileSize(record->volume_file);
  if (size.ok() && *size > 0) {
    const std::uint64_t off = std::min(offset, *size - 1);
    const std::uint64_t len = std::min(length, *size - off);
    if (len > 0) {
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->ReadDiscard(record->volume_file, off, len));
    }
  }
  co_return record->image->ReadFile(internal_path, offset, length);
}

sim::Task<StatusOr<std::string>> BucketManager::StageFromDisc(
    std::string image_id, std::string suffix, std::uint64_t bytes) {
  disk::Volume* volume = data_volumes_.at(kRestageVolume);
  std::string file = VolumeFileName(image_id) + suffix;
  ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
  ROS_CO_RETURN_IF_ERROR(co_await volume->AppendSparse(file, {}, bytes));
  co_return file;
}

sim::Task<Status> BucketManager::CloseCurrentBucket() {
  sim::Mutex::ScopedLock lock = co_await write_mutex_.Lock();
  if (current_ == nullptr) {
    co_return OkStatus();
  }
  co_return co_await CloseBucket(current_.get());
}

sim::Task<Status> BucketManager::AdmitImage(
    std::shared_ptr<udf::Image> image) {
  sim::Mutex::ScopedLock lock = co_await write_mutex_.Lock();
  const std::string id = image->id();
  const int volume_index = bucket_counter_ % num_volumes();
  disk::Volume* volume = data_volumes_[volume_index];
  const std::string file = VolumeFileName(id);
  ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
  ROS_CO_RETURN_IF_ERROR(co_await volume->AppendSparse(
      file, {}, image->used_bytes()));
  ROS_CO_RETURN_IF_ERROR(
      images_->RegisterBucket(image, volume_index, file));
  ROS_CO_RETURN_IF_ERROR(images_->MarkClosed(id));
  if (on_image_closed) {
    on_image_closed(id);
  }
  co_return OkStatus();
}

}  // namespace ros::olfs
