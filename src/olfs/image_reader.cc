#include "src/olfs/image_reader.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/olfs/olfs.h"
#include "src/udf/serializer.h"

namespace ros::olfs {

namespace {

// Whole-tray readahead stages at most this many sibling images.
constexpr std::size_t kReadaheadMaxImages = 16;

}  // namespace

ImageReader::ImageReader(sim::Simulator& sim, Olfs* olfs)
    : sim_(sim), olfs_(olfs), file_cache_(olfs->params().file_cache_bytes) {}

sim::Task<StatusOr<std::vector<std::uint8_t>>> ImageReader::Read(
    std::string image_id, std::string internal_path, std::uint64_t offset,
    std::uint64_t length, AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          olfs_->images().Lookup(image_id));
  // Predictive tray prefetch: the stream's tray transition updates the
  // predictor; a confident successor is queued as a background
  // (speculative) load that demand traffic always preempts.
  if (hint.stream != 0 && record->disc.has_value()) {
    const int tray = record->disc->tray.ToIndex();
    const int predicted = olfs_->predictor().Observe(hint.stream, tray);
    if (predicted >= 0 && predicted != tray) {
      olfs_->fetch_scheduler()->EnqueueSpeculative(
          mech::TrayAddress::FromIndex(predicted));
    }
  }
  // File-granular cache (future-work refinement of §4.1).
  if (file_cache_.enabled()) {
    const std::string key = FileCache::Key(image_id, internal_path);
    if (const auto* content = file_cache_.Get(key)) {
      if (offset + length <= content->size()) {
        co_await sim_.Delay(
            sim::Millis(0.5) + sim::TransferTime(length, 1.2e9));
        co_return std::vector<std::uint8_t>(
            content->begin() + static_cast<long>(offset),
            content->begin() + static_cast<long>(offset + length));
      }
    }
  }
  // Not in the read cache by definition of this tier; Touch records
  // the miss (hit/miss accounting lives inside ReadCache).
  (void)olfs_->cache().Touch(image_id);
  auto view = co_await ReadShared(image_id, length);
  if (view.ok() && !view->led) {
    ++shared_image_reads_;
    // Buffer copy out of controller memory, not an optical transfer.
    co_await sim_.Delay(sim::Millis(0.5) + sim::TransferTime(length, 1.2e9));
  }
  StatusOr<std::vector<std::uint8_t>> data =
      view.ok() ? view->image->ReadFile(internal_path, offset, length)
                : StatusOr<std::vector<std::uint8_t>>(view.status());
  if (!data.ok() && (data.status().code() == StatusCode::kDataLoss ||
                     data.status().code() == StatusCode::kUnavailable)) {
    // Degraded read (§4.7): the disc is damaged or unreachable.
    // Reconstruct the whole image from surviving members + parity,
    // serve the requested bytes, and re-stage the image so it burns
    // onto fresh media — the read succeeds, the repair rides behind.
    ++degraded_reads_;
    ROS_LOG(kWarning) << "degraded read of " << internal_path << " ("
                      << image_id << "): " << data.status().ToString();
    auto recovered = co_await olfs_->scrub().RecoverImage(image_id);
    if (recovered.ok()) {
      auto bytes = (*recovered)->ReadFile(internal_path, offset, length);
      Status staged = co_await olfs_->scrub().RepairImage(image_id, *recovered);
      if (!staged.ok()) {
        ROS_LOG(kWarning) << "repair staging of " << image_id
                          << " failed: " << staged.ToString();
      }
      co_return bytes;
    }
  }
  if (data.ok() && file_cache_.enabled()) {
    sim_.Spawn(TrackDetached(PrefetchTask(image_id, internal_path)));
  }
  // Whole-tray readahead: an announced scan stages the tray's sibling
  // images into the read cache while the tray is still loaded, so the
  // rest of the scan avoids re-fetching it after an eviction.
  if (data.ok() && hint.scan && hint.stream != 0 &&
      record->disc.has_value()) {
    const int tray = record->disc->tray.ToIndex();
    if (readahead_trays_.insert(tray).second) {
      sim_.Spawn(TrackDetached(TrayReadaheadTask(image_id, tray)));
    }
  }
  co_return data;
}

sim::Task<StatusOr<ImageReader::SharedView>> ImageReader::ReadShared(
    std::string image_id, std::uint64_t file_bytes) {
  // Image-level single-flight: if another reader is mid-drive-read of this
  // image, wait for it and share the parsed view it produced instead of
  // charging a second optical read of the same sectors.
  while (true) {
    auto inflight = image_reads_.find(image_id);
    if (inflight == image_reads_.end()) {
      break;
    }
    std::shared_ptr<sim::Event> done = inflight->second;
    co_await done->Wait();
    // The view is pinned: the mount entry can be dropped (drive unloaded)
    // while the caller's buffer copy is in flight.
    if (std::shared_ptr<udf::Image> mounted = DiscMount(image_id)) {
      co_return SharedView{std::move(mounted), /*led=*/false};
    }
    // The leader failed; loop and contend for leadership ourselves.
  }
  if (file_bytes == kWholeStream) {
    if (std::shared_ptr<udf::Image> mounted = DiscMount(image_id)) {
      co_return SharedView{std::move(mounted), /*led=*/false};
    }
  }
  auto done = std::make_shared<sim::Event>(sim_);
  image_reads_.emplace(image_id, done);
  auto view = co_await ReadLeader(image_id, file_bytes);
  image_reads_.erase(image_id);
  done->Set();
  if (!view.ok()) {
    co_return view.status();
  }
  co_return SharedView{std::move(*view), /*led=*/true};
}

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> ImageReader::ReadLeader(
    std::string image_id, std::uint64_t file_bytes) {
  ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                          co_await olfs_->fetches().FetchDisc(image_id));
  drive::OpticalDrive* drive = lease.drive();
  // Mount the disc's UDF volume (wake + VFS mount as needed) and parse the
  // image metadata once per mount. The view is pinned: the mount entry can
  // be dropped if the drive is recycled while the transfer below waits.
  ROS_CO_RETURN_IF_ERROR(co_await drive->MountVfs());
  std::shared_ptr<udf::Image> view = DiscMount(image_id);
  if (view == nullptr) {
    ROS_CO_ASSIGN_OR_RETURN(const drive::Session* session,
                            drive->disc()->FindSession(image_id));
    // The physical read of the whole serialized stream validates media
    // integrity (CRC); corrupted sectors surface here as kDataLoss. The
    // optical transfer is charged below, so the stream is parsed in place
    // on the media: the view's files share the session's payload.
    ROS_CO_RETURN_IF_ERROR(drive->disc()
                               ->CheckSessionRead(image_id, 0,
                                                  session->stored_bytes)
                               .status());
    ROS_CO_ASSIGN_OR_RETURN(
        udf::Image image,
        udf::Serializer::Parse(session->data(), session->payload));
    view = std::make_shared<udf::Image>(std::move(image));
    disc_mounts_.emplace(image_id, view);
  }
  if (file_bytes == kWholeStream) {
    auto stream = co_await drive->ReadImageStream(std::move(image_id));
    if (!stream.ok()) {
      co_return stream.status();
    }
    co_return view;
  }
  // Charge the optical transfer (seek + media read) for the file bytes.
  auto session = drive->disc()->FindSession(image_id);
  if (session.ok()) {
    const std::uint64_t n = std::min(file_bytes, (*session)->logical_size);
    if (n > 0) {
      ROS_CO_RETURN_IF_ERROR(co_await drive->ChargeRead(image_id, 0, n));
    }
  }
  co_return view;
}

sim::Task<void> ImageReader::PrefetchTask(std::string image_id,
                                          std::string internal_path) {
  auto lease = co_await olfs_->fetches().FetchDisc(image_id);
  if (!lease.ok()) {
    co_return;
  }
  drive::OpticalDrive* drive = lease->drive();
  Status mounted = co_await drive->MountVfs();
  std::shared_ptr<udf::Image> image = DiscMount(image_id);
  if (!mounted.ok() || image == nullptr) {
    lease->Release();
    co_return;
  }

  // The requested file plus up to prefetch_siblings neighbours from the
  // same directory (spatial locality, §4.1).
  std::vector<std::string> targets{internal_path};
  if (olfs_->params().prefetch_siblings > 0) {
    const std::size_t slash = internal_path.rfind('/');
    const std::string parent =
        slash == 0 ? "/" : internal_path.substr(0, slash);
    const std::string leaf = internal_path.substr(slash + 1);
    auto siblings = image->List(parent);
    if (siblings.ok()) {
      int taken = 0;
      for (const std::string& name : *siblings) {
        if (taken >= olfs_->params().prefetch_siblings || name == leaf) {
          continue;
        }
        const std::string candidate =
            parent == "/" ? "/" + name : parent + "/" + name;
        auto node = image->Lookup(candidate);
        if (node.ok() && (*node)->type == udf::NodeType::kFile) {
          targets.push_back(candidate);
          ++taken;
        }
      }
    }
  }

  for (const std::string& target : targets) {
    const std::string key = FileCache::Key(image_id, target);
    if (file_cache_.Contains(key)) {
      continue;
    }
    auto node = image->Lookup(target);
    if (!node.ok() || (*node)->type != udf::NodeType::kFile) {
      continue;
    }
    const std::uint64_t size = (*node)->logical_size;
    // Charge the optical transfer of the whole file.
    auto session = drive->disc()->FindSession(image_id);
    if (session.ok() && size > 0) {
      Status timed = co_await drive->ChargeRead(
          image_id, 0, std::min(size, (*session)->logical_size));
      if (!timed.ok()) {
        break;
      }
    }
    auto content = image->ReadFile(target, 0, size);
    if (content.ok()) {
      file_cache_.Put(key, std::move(*content));
    }
  }
  lease->Release();
}

sim::Task<void> ImageReader::TrayReadaheadTask(std::string image_id,
                                               int tray_index) {
  // Sibling data images burned in the same disc array that still live only
  // on their discs. Parity members carry no user files; skip them.
  std::vector<std::string> siblings;
  auto record = olfs_->images().Lookup(image_id);
  const std::vector<std::string> members =
      record.ok() ? (*record)->array_members : std::vector<std::string>{};
  for (const std::string& member : members) {
    if (member == image_id) {
      continue;
    }
    auto sibling = olfs_->images().Lookup(member);
    if (!sibling.ok() || (*sibling)->tier != ImageTier::kBurnedOnly ||
        (*sibling)->parity || !(*sibling)->disc.has_value() ||
        (*sibling)->disc->tray.ToIndex() != tray_index) {
      continue;
    }
    siblings.push_back(member);
    if (siblings.size() >= kReadaheadMaxImages) {
      break;
    }
  }
  for (const std::string& sibling : siblings) {
    Status staged = co_await StageSiblingImage(sibling);
    if (!staged.ok()) {
      ROS_LOG(kDebug) << "tray readahead stopped at " << sibling << ": "
                      << staged.ToString();
      break;
    }
  }
  readahead_trays_.erase(tray_index);
}

sim::Task<Status> ImageReader::StageSiblingImage(std::string image_id) {
  {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                            olfs_->images().Lookup(image_id));
    if (record->tier != ImageTier::kBurnedOnly) {
      co_return OkStatus();  // already buffered; nothing to stage
    }
  }
  auto view = co_await ReadShared(image_id, kWholeStream);
  // The fetch yields to demand traffic; the image may have been repaired
  // or re-staged by a degraded read in the meantime.
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          olfs_->images().Lookup(image_id));
  if (record->tier != ImageTier::kBurnedOnly) {
    co_return OkStatus();
  }
  if (!view.ok()) {
    co_return view.status();
  }
  // Stage into the disk buffer (sparse: the parsed image carries the
  // bytes) without eating the burn pipeline's headroom.
  std::shared_ptr<udf::Image> image = std::move(view->image);
  const std::uint64_t bytes = image->used_bytes();
  if (olfs_->buckets().volume(BucketManager::kRestageVolume)->free_bytes() <
      bytes + olfs_->params().buffer_reserve_bytes()) {
    co_return ResourceExhaustedError(
        "no buffer headroom for tray readahead");
  }
  const std::string suffix = "#ra" + std::to_string(readahead_generation_++);
  ROS_CO_ASSIGN_OR_RETURN(
      std::string file,
      co_await olfs_->buckets().StageFromDisc(image_id, suffix, bytes));
  ROS_CO_RETURN_IF_ERROR(olfs_->images().RestoreToBuffer(
      image_id, std::move(image), BucketManager::kRestageVolume, file));
  // Probationary admission (the SLRU's scan resistance keeps readahead
  // from churning the protected working set); capacity is enforced by the
  // same eviction pass burns use.
  olfs_->cache().Admit(image_id, record->logical_bytes);
  ++readahead_images_;
  readahead_bytes_ += record->logical_bytes;
  co_return co_await olfs_->burns().EvictCacheOverflow();
}

sim::Task<void> ImageReader::TrackDetached(sim::Task<void> task) {
  ++detached_tasks_;
  co_await std::move(task);
  --detached_tasks_;
}

}  // namespace ros::olfs
