#include "src/olfs/olfs.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ros::olfs {

Olfs::Olfs(sim::Simulator& sim, RosSystem* system, OlfsParams params)
    : sim_(sim), system_(system), params_(params) {
  ROS_CHECK(system != nullptr);
  mv_ = std::make_unique<MetadataVolume>(
      sim_, system->mv_volume(),
      MetadataVolume::Options{.log_structured = true});
  images_ = std::make_unique<DiscImageStore>();
  affinity_ = std::make_unique<AffinityTracker>();
  predictor_ = std::make_unique<TrayPredictor>();
  buckets_ = std::make_unique<BucketManager>(sim_, params_,
                                             system->data_volumes(),
                                             images_.get());
  buckets_->set_affinity_tracker(affinity_.get());
  parity_ = std::make_unique<ParityBuilder>(sim_, params_, images_.get());
  da_ = std::make_unique<DaIndex>(system->config().rollers);
  cache_ = std::make_unique<ReadCache>(params_.read_cache_bytes);
  mech_ = std::make_unique<MechController>(sim_, system->library(),
                                           system->drive_sets(),
                                           &system->discs(), params_);
  scheduler_ = std::make_unique<FetchScheduler>(sim_, params_, mech_.get());
  // Burns and recovery scans pick unload victims through AcquireBay;
  // the oracle keeps them away from arrays that readers are queued for.
  mech_->SetDemandOracle([scheduler = scheduler_.get()](
                             mech::TrayAddress tray) {
    return scheduler->HasDemand(tray);
  });
  burns_ = std::make_unique<BurnManager>(sim_, params_, buckets_.get(),
                                         images_.get(), parity_.get(),
                                         mech_.get(), da_.get(), cache_.get(),
                                         mv_.get());
  burns_->set_affinity_tracker(affinity_.get());
  fetcher_ = std::make_unique<FetchManager>(sim_, params_, images_.get(),
                                            mech_.get(), burns_.get(),
                                            scheduler_.get());
  buckets_->on_image_closed = [this](const std::string& id) {
    burns_->NotifyImageClosed(id);
  };
  audit_ = std::make_unique<AuditRegistry>(params_, mv_.get(), images_.get(),
                                           parity_.get());
  burns_->set_audit(audit_.get());
  scrub_ = std::make_unique<ScrubManager>(sim_, this);
  reader_ = std::make_unique<ImageReader>(sim_, this);
  // Media aging hooks on every optical drive. The params object lives in
  // this facade, so the pointer stays valid for the system's lifetime;
  // with aging disabled (the default) the hook is byte-identical to none.
  system->InstallAgingModel(&params_.media_aging);
}

sim::Task<void> Olfs::ChargeOp(const char* name, bool first) {
  if (first) {
    op_trace_.clear();
  }
  sim::Duration cost = params_.internal_op_cost;
  if (!first) {
    cost += params_.mode_switch_cost;
  }
  op_trace_.emplace_back(name);
  co_await sim_.Delay(cost);
}

sim::Task<sim::Mutex::ScopedLock> Olfs::LockPath(std::string path) {
  auto it = path_locks_.find(path);
  if (it == path_locks_.end()) {
    it = path_locks_
             .emplace(path, std::make_unique<sim::Mutex>(sim_))
             .first;
  }
  co_return co_await it->second->Lock();
}

sim::Task<Status> Olfs::EnsureAncestors(std::string path) {
  ROS_CO_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                          udf::SplitPath(path));
  std::string prefix;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    prefix += "/" + parts[i];
    if (!mv_->Exists(prefix)) {
      ROS_CO_RETURN_IF_ERROR(
          co_await mv_->Put(IndexFile(prefix, EntryType::kDirectory)));
    }
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Writes

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size, AccessHint hint) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (mv_->Exists(path)) {
    auto existing = co_await mv_->GetRef(path);
    if (existing.ok() && (*existing)->Latest().ok()) {
      co_return AlreadyExistsError(path + " exists");
    }
  }
  co_await ChargeOp("mknod");
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
  // Re-creating a tombstoned file must keep its index (and version
  // history); only a genuinely new path gets a fresh index file.
  if (!mv_->Exists(path)) {
    ROS_CO_RETURN_IF_ERROR(
        co_await mv_->Put(IndexFile(path, EntryType::kFile)));
  }
  co_await ChargeOp("stat");
  co_await ChargeOp("write");
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(data), logical_size,
                            /*create=*/true, hint));
  co_await ChargeOp("close");
  co_return OkStatus();
}

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data) {
  const std::uint64_t n = data.size();
  co_return co_await Create(path, std::move(data), n);
}

sim::Task<Status> Olfs::Update(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (!mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  co_await ChargeOp("write");
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(data), logical_size,
                            /*create=*/false));
  co_await ChargeOp("close");
  co_return OkStatus();
}

sim::Task<Status> Olfs::WriteVersion(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_size,
                                     bool create, AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
  if (index.type() != EntryType::kFile) {
    co_return InvalidArgumentError(path + " is a directory");
  }
  const int version = index.latest_version() + 1;
  ROS_CHECK(create ? version >= 1 : version >= 2);

  // Forepart capture (§4.8) before the payload moves into the bucket.
  std::vector<std::uint8_t> forepart;
  if (params_.forepart_enabled) {
    const std::uint64_t n =
        std::min<std::uint64_t>(params_.forepart_bytes, data.size());
    forepart.assign(data.begin(), data.begin() + static_cast<long>(n));
  }

  ROS_CO_ASSIGN_OR_RETURN(
      WriteReceipt receipt,
      co_await buckets_->WriteFile(path, version, std::move(data),
                                   logical_size, /*first_part=*/0,
                                   /*prev_image=*/"", hint.stream));
  VersionEntry entry;
  entry.location = LocationKind::kBucket;
  entry.total_size = receipt.total_size;
  entry.parts = receipt.parts;
  index.AddVersion(std::move(entry), kMaxVersionEntries);
  if (params_.forepart_enabled) {
    index.set_forepart(std::move(forepart));
  }
  ++namespace_writes_;
  last_write_time_ = sim_.now();
  co_return co_await mv_->Put(index);
}

sim::Task<Status> Olfs::Append(std::string path,
                               std::vector<std::uint8_t> data) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (!mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
  auto latest = index.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  const VersionEntry& entry = **latest;

  co_await ChargeOp("write");
  // In-place append only when the whole version sits in one open bucket.
  if (entry.parts.size() == 1) {
    auto record = images_->Lookup(entry.parts[0].image_id);
    if (record.ok() && (*record)->tier == ImageTier::kOpenBucket) {
      Status appended = co_await buckets_->AppendToOpenFile(
          path, entry.version, entry.parts[0].image_id, data, data.size());
      if (appended.ok()) {
        VersionEntry updated = entry;
        updated.total_size += data.size();
        updated.parts[0].size += data.size();
        ROS_CO_RETURN_IF_ERROR(index.UpdateLatest(updated));
        ROS_CO_RETURN_IF_ERROR(co_await mv_->Put(index));
        co_await ChargeOp("close");
        co_return OkStatus();
      }
    }
  }
  // Regenerating update: old content + appended bytes as a new version.
  ROS_CO_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> old_data,
      co_await ReadEntry(path, entry, 0, entry.total_size));
  old_data.insert(old_data.end(), data.begin(), data.end());
  const std::uint64_t total = old_data.size();
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(old_data), total,
                            /*create=*/false));
  co_await ChargeOp("close");
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Streaming handles

sim::Task<Status> Olfs::AppendStream(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_grow,
                                     AccessHint hint) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    // Implicit open(): load the index once.
    co_await ChargeOp("open", /*first=*/true);
    ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
    handle = stream_handles_.emplace(path, std::move(index)).first;
  }
  op_trace_.assign({"write"});
  co_await sim_.Delay(params_.stream_op_cost);
  // Re-acquire after the suspension: a concurrent CloseStream may have
  // erased the handle while this coroutine was parked.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return FailedPreconditionError("stream closed during append: " +
                                      path);
  }
  IndexFile& index = handle->second;
  auto latest = index.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  VersionEntry entry = **latest;
  if (entry.parts.empty()) {
    // Freshly created empty file: write the first part.
    ROS_CO_ASSIGN_OR_RETURN(
        WriteReceipt receipt,
        co_await buckets_->WriteFile(path, entry.version, std::move(data),
                                     logical_grow, /*first_part=*/0,
                                     /*prev_image=*/"", hint.stream));
    entry.parts = receipt.parts;
    entry.total_size = receipt.total_size;
    co_return index.UpdateLatest(entry);
  }

  const std::string last_image = entry.parts.back().image_id;
  Status appended = co_await buckets_->AppendToOpenFile(
      path, entry.version, last_image, data, logical_grow, hint.stream);
  if (appended.ok()) {
    entry.parts.back().size += logical_grow;
    entry.total_size += logical_grow;
    co_return index.UpdateLatest(entry);
  }
  if (appended.code() != StatusCode::kFailedPrecondition &&
      appended.code() != StatusCode::kResourceExhausted) {
    co_return appended;
  }
  // The part's bucket closed or filled: continue in fresh buckets as a
  // split-file continuation (§4.5).
  ROS_CO_ASSIGN_OR_RETURN(
      WriteReceipt receipt,
      co_await buckets_->WriteFile(path, entry.version, std::move(data),
                                   logical_grow,
                                   static_cast<int>(entry.parts.size()),
                                   last_image, hint.stream));
  for (const FilePart& part : receipt.parts) {
    entry.parts.push_back(part);
  }
  entry.total_size += logical_grow;
  co_return index.UpdateLatest(entry);
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadStream(
    std::string path, std::uint64_t offset, std::uint64_t length,
    AccessHint hint) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_await ChargeOp("open", /*first=*/true);
    auto index = co_await mv_->Get(path);
    if (!index.ok()) {
      co_return index.status();
    }
    handle = stream_handles_.emplace(path, std::move(*index)).first;
  }
  op_trace_.assign({"read"});
  // Per-request software cost plus OLFS's extra user-space copy of the
  // returned data (the read-side marginal in Fig 6).
  co_await sim_.Delay(params_.stream_op_cost +
                      sim::TransferTime(length, 2.5e9));
  // Re-acquire after the suspension: a concurrent CloseStream may have
  // erased the handle while this coroutine was parked.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return FailedPreconditionError("stream closed during read: " + path);
  }
  auto latest = handle->second.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  co_return co_await ReadEntry(path, **latest, offset, length, hint);
}

sim::Task<Status> Olfs::CloseStream(std::string path) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return OkStatus();
  }
  co_await ChargeOp("close", /*first=*/true);
  // Re-acquire after the suspension, then detach the index from the map
  // BEFORE the MV write suspends: nothing may hold a handle iterator (or
  // a reference into the map) across mv_->Put.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return OkStatus();  // closed concurrently
  }
  IndexFile index = std::move(handle->second);
  stream_handles_.erase(handle);
  co_return co_await mv_->Put(std::move(index));
}

// ---------------------------------------------------------------------------
// Reads

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::Read(
    std::string path, std::uint64_t offset, std::uint64_t length,
    AccessHint hint) {
  co_await ChargeOp("stat", /*first=*/true);
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  auto latest = (*index)->Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  co_await ChargeOp("read");
  auto result = co_await ReadEntry(path, **latest, offset, length, hint);
  co_await ChargeOp("close");
  co_return result;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadVersion(
    std::string path, int version, std::uint64_t offset,
    std::uint64_t length) {
  co_await ChargeOp("stat", /*first=*/true);
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  auto entry = (*index)->Version(version);
  if (!entry.ok()) {
    co_return entry.status();
  }
  co_await ChargeOp("read");
  auto result = co_await ReadEntry(path, **entry, offset, length);
  co_await ChargeOp("close");
  co_return result;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadForepart(
    std::string path) {
  if (!params_.forepart_enabled) {
    co_return FailedPreconditionError("forepart mechanism disabled");
  }
  // Served straight from MV: one SSD index read, ~2 ms total (§4.8).
  co_await sim_.Delay(sim::Millis(1));
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  co_return (*index)->forepart();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadEntry(
    std::string path, VersionEntry entry, std::uint64_t offset,
    std::uint64_t length, AccessHint hint) {
  if (entry.tombstone) {
    co_return NotFoundError(path + " is deleted");
  }
  if (offset + length > entry.total_size) {
    co_return OutOfRangeError("read beyond end of " + path);
  }

  // Forepart fast path (§4.8): when the request fits inside the forepart
  // kept in MV and the payload would otherwise need a mechanical fetch,
  // answer from the index file instead of touching the roller.
  if (params_.forepart_enabled && offset + length <= params_.forepart_bytes) {
    bool needs_fetch = false;
    for (const FilePart& part : entry.parts) {
      auto record = images_->Lookup(part.image_id);
      needs_fetch |=
          record.ok() && (*record)->tier == ImageTier::kBurnedOnly;
    }
    if (needs_fetch) {
      auto index = co_await mv_->GetRef(path);
      if (index.ok() && (*index)->Latest().ok() &&
          (*(*index)->Latest())->version == entry.version &&
          offset + length <= (*index)->forepart().size()) {
        const auto& forepart = (*index)->forepart();
        co_return std::vector<std::uint8_t>(
            forepart.begin() + static_cast<long>(offset),
            forepart.begin() + static_cast<long>(offset + length));
      }
    }
  }
  const std::string internal = InternalPath(path, entry.version);

  std::vector<std::uint8_t> out;
  std::uint64_t part_start = 0;
  for (const FilePart& part : entry.parts) {
    const std::uint64_t part_end = part_start + part.size;
    const std::uint64_t from = std::max(offset, part_start);
    const std::uint64_t to = std::min(offset + length, part_end);
    if (from < to) {
      ROS_CO_ASSIGN_OR_RETURN(
          std::vector<std::uint8_t> piece,
          co_await ReadPart(internal, part, from - part_start, to - from,
                            hint));
      if (piece.size() == length) {
        out = std::move(piece);  // one part covers the range: no copy
      } else {
        out.reserve(length);
        out.insert(out.end(), piece.begin(), piece.end());
      }
    }
    part_start = part_end;
    if (part_start >= offset + length) {
      break;
    }
  }
  co_return out;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadPart(
    std::string internal_path, FilePart part,
    std::uint64_t offset, std::uint64_t length, AccessHint hint) {
  auto record = images_->Lookup(part.image_id);
  if (record.ok()) {
    // Cross-layer hint channel: tagged reads feed the co-access map (read
    // affinity influences placement of images not yet burned) regardless
    // of the image's current tier. Untagged requests (stream == 0) are
    // inert.
    if (hint.stream != 0) {
      affinity_->RecordRead(hint.stream, part.image_id);
    }
    if ((*record)->tier == ImageTier::kBurnedOnly) {
      return reader_->Read(std::move(part.image_id), std::move(internal_path),
                           offset, length, hint);
    }
    (void)cache_->Touch(part.image_id);
  }
  // Open bucket, buffered or burned-and-cached; an unknown image fails
  // there with the same lookup status.
  return buckets_->ReadBuffered(std::move(part.image_id),
                                std::move(internal_path), offset, length);
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Task<StatusOr<FileInfo>> Olfs::Stat(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (path == "/") {
    FileInfo root;
    root.is_directory = true;
    co_return root;
  }
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  FileInfo info;
  info.is_directory = (*index)->type() == EntryType::kDirectory;
  if (!info.is_directory) {
    auto latest = (*index)->Latest();
    if (!latest.ok()) {
      co_return latest.status();
    }
    info.size = (*latest)->total_size;
    info.version = (*latest)->version;
    info.location = (*latest)->location;
    // Refine the location through DIM (B -> I -> D promotions happen
    // without rewriting the index file).
    if (!(*latest)->parts.empty()) {
      const ImageRecord* record =
          images_->Lookup((*latest)->parts[0].image_id).value_or(nullptr);
      if (record != nullptr) {
        switch (record->tier) {
          case ImageTier::kOpenBucket:
            info.location = LocationKind::kBucket;
            break;
          case ImageTier::kBuffered:
          case ImageTier::kBurnedCached:
            info.location = LocationKind::kImage;
            break;
          case ImageTier::kBurnedOnly:
            info.location = LocationKind::kDisc;
            break;
        }
      }
    }
  }
  co_return info;
}

sim::Task<Status> Olfs::Mkdir(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (mv_->Exists(path)) {
    co_return AlreadyExistsError(path + " exists");
  }
  co_await ChargeOp("mknod");
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
  co_return co_await mv_->Put(IndexFile(path, EntryType::kDirectory));
}

sim::Task<StatusOr<std::vector<std::string>>> Olfs::ReadDir(
    std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (path != "/" && !mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  co_await ChargeOp("readdir");
  // An unlinked file keeps its index (a tombstone version) so a re-create
  // continues its history, but it is no longer listed. Telling the two
  // apart reads each child's index, as a stat of every entry would.
  const std::vector<std::string> children = mv_->ListChildren(path);
  const std::string prefix = path == "/" ? path : path + "/";
  std::vector<std::string> names;
  for (std::size_t i = 0; i < children.size(); ++i) {
    auto index = co_await mv_->GetRef(prefix + children[i]);
    if (!index.ok()) {
      if (index.status().code() == StatusCode::kNotFound) {
        continue;  // removed while this listing ran
      }
      co_return index.status();
    }
    if ((*index)->type() == EntryType::kDirectory ||
        (*index)->Latest().ok()) {
      names.push_back(children[i]);
    }
  }
  co_return names;
}

sim::Task<Status> Olfs::Unlink(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  auto index = co_await mv_->Get(path);
  if (!index.ok()) {
    co_return index.status();
  }
  if (index->type() == EntryType::kDirectory) {
    if (mv_->HasChildren(path)) {
      co_return FailedPreconditionError(path + " is not empty");
    }
    co_await ChargeOp("unlink");
    co_return co_await mv_->Remove(path);
  }
  co_await ChargeOp("unlink");
  VersionEntry tombstone;
  tombstone.tombstone = true;
  index->AddVersion(std::move(tombstone), kMaxVersionEntries);
  co_return co_await mv_->Put(*index);
}

// ---------------------------------------------------------------------------
// Control plane

sim::Task<Status> Olfs::FlushAndDrain() {
  ROS_CO_RETURN_IF_ERROR(co_await buckets_->CloseCurrentBucket());
  ROS_CO_RETURN_IF_ERROR(co_await burns_->FlushPartialArray());
  co_return co_await burns_->DrainAll();
}

sim::Task<Status> Olfs::BurnMvSnapshot() {
  const std::string id =
      "mv-snap-" + std::to_string(mv_snapshot_counter_++);
  auto snapshot =
      co_await mv_->BuildSnapshotImage(id, params_.bucket_capacity());
  if (!snapshot.ok()) {
    co_return snapshot.status();
  }
  co_return co_await buckets_->AdmitImage(
      std::make_shared<udf::Image>(std::move(*snapshot)));
}

Olfs::~Olfs() { *bg_alive_ = false; }

sim::Task<void> Olfs::Quiesce() {
  *bg_alive_ = false;
  // Poll in sim time until every frame that borrows this facade has run
  // to completion: loop bodies mid-pass, detached prefetch/readahead
  // tasks, the burn pipeline, and the fetch scheduler's queues/loads.
  // (Frames parked on never-signaled condition variables — e.g. the
  // scheduler's dispatcher waiting for bay changes — hold no locks and
  // never resume, so they are safe to leave suspended; the chaos
  // controller-replacement path relies on the same property.)
  while (bg_passes_ > 0 || !reader_->Idle() ||
         burns_->active_burns() > 0 ||
         !scheduler_->Idle()) {
    co_await sim_.Delay(sim::Millis(100));
  }
}

void Olfs::StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                                   sim::Duration auto_flush_interval,
                                   sim::Duration scrub_interval) {
  const std::pair<Policy, sim::Duration> policies[] = {
      {Policy::kMvSnapshot, mv_snapshot_interval},
      {Policy::kAutoFlush, auto_flush_interval},
      {Policy::kScrub, scrub_interval}};
  for (const auto& [policy, interval] : policies) {
    if (interval > 0) {
      sim_.Spawn(PolicyLoop(policy, interval, bg_alive_));
    }
  }
}

sim::Task<void> Olfs::PolicyLoop(Policy policy, sim::Duration interval,
                                 std::shared_ptr<const bool> alive) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the facade is gone; touch nothing
    }
    ++bg_passes_;
    co_await PolicyPass(policy, interval);
    --bg_passes_;
    if (!*alive) {
      co_return;
    }
  }
}

sim::Task<void> Olfs::PolicyPass(Policy policy, sim::Duration interval) {
  switch (policy) {
    case Policy::kMvSnapshot: {
      if (namespace_writes_ == last_snapshot_writes_) {
        co_return;  // nothing changed since the last snapshot
      }
      last_snapshot_writes_ = namespace_writes_;
      Status status = co_await BurnMvSnapshot();
      if (!status.ok()) {
        ROS_LOG(kWarning) << "periodic MV snapshot failed: "
                          << status.ToString();
      }
      co_return;
    }
    case Policy::kAutoFlush: {
      // Flush when buffered data has been sitting idle for a full interval
      // (don't interrupt an active ingest burst mid-bucket).
      const bool idle = sim_.now() - last_write_time_ >= interval;
      const bool dirty = !images_->UnburnedClosed().empty() ||
                         buckets_->HasOpenBucketWithData();
      if (!idle || !dirty) {
        co_return;
      }
      Status status = co_await buckets_->CloseCurrentBucket();
      if (status.ok()) {
        status = co_await burns_->FlushPartialArray();
      }
      if (!status.ok()) {
        ROS_LOG(kWarning) << "auto-flush failed: " << status.ToString();
      }
      co_return;
    }
    case Policy::kScrub: {
      // Idle check: skip the pass while burns are running or clients are
      // actively writing ("scheduled at idle times", §4.7).
      if (burns_->active_burns() > 0 ||
          sim_.now() - last_write_time_ < interval / 2) {
        co_return;
      }
      // Deep scrub (DESIGN.md §5j): walk every burned array at read speed
      // through the scheduler's background class, repair damage from
      // parity, refresh rotting arrays onto fresh media.
      auto pass = co_await scrub_->RunPass();
      if (!pass.ok()) {
        ROS_LOG(kWarning) << "scheduled scrub failed: "
                          << pass.status().ToString();
      } else if (pass->repairs > 0 || pass->arrays_refreshed > 0) {
        ROS_LOG(kInfo) << "scheduled scrub repaired " << pass->repairs
                       << " image(s), refreshed " << pass->arrays_refreshed
                       << " array(s)";
      }
      co_return;
    }
  }
}

}  // namespace ros::olfs
