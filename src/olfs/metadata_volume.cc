#include "src/olfs/metadata_volume.h"

#include <utility>

#include "src/olfs/mv_file_store.h"
#include "src/olfs/mv_log_store.h"

namespace ros::olfs {

// --- decoded-index cache -----------------------------------------------

const MvDecodeCache::Entry* MvDecodeCache::Lookup(std::string_view path) {
  if (capacity_ == 0) {
    return nullptr;
  }
  auto it = map_.find(path);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return &lru_.front();
}

void MvDecodeCache::Insert(const std::string& path, IndexPtr index,
                           MvPlacement placement) {
  if (capacity_ == 0) {
    return;
  }
  auto it = map_.find(std::string_view(path));
  if (it != map_.end()) {
    it->second->index = std::move(index);
    it->second->placement = std::move(placement);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{path, std::move(index), std::move(placement)});
  map_.emplace(lru_.front().path, lru_.begin());
  if (map_.size() > capacity_) {
    map_.erase(std::string_view(lru_.back().path));
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void MvDecodeCache::Erase(std::string_view path) {
  auto it = map_.find(path);
  if (it == map_.end()) {
    return;
  }
  lru_.erase(it->second);
  map_.erase(it);
}

void MvDecodeCache::EraseSource(std::uint64_t source) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->placement.source == source) {
      map_.erase(std::string_view(it->path));
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void MvDecodeCache::Clear() {
  lru_.clear();
  map_.clear();
}

// --- construction / destruction ---------------------------------------

MetadataVolume::MetadataVolume(sim::Simulator& sim, disk::Volume* volume,
                               Options options)
    : volume_(volume), cache_(options.cache_capacity) {
  if (options.log_structured) {
    store_ = std::make_unique<LogMvStore>(
        sim, volume, &cache_, options.memtable_flush_bytes,
        options.compact_min_segments, options.compact_fan_in);
  } else {
    store_ = std::make_unique<FileMvStore>(volume, &cache_);
  }
  volume_->SetMutationObserver(
      [this](const std::string& name, disk::Volume::MutationKind kind) {
        OnVolumeMutation(name, kind);
      });
}

MetadataVolume::~MetadataVolume() { volume_->SetMutationObserver(nullptr); }

void MetadataVolume::OnVolumeMutation(const std::string& name,
                                      disk::Volume::MutationKind kind) {
  store_->OnVolumeMutation(name, kind);
  if (kind == disk::Volume::MutationKind::kFormatted) {
    cache_.Clear();  // everything changed
  }
}

// --- index files -------------------------------------------------------

bool MetadataVolume::Exists(const std::string& path) const {
  return store_->NextPath(path) == path;
}

sim::Task<Status> MetadataVolume::Put(IndexFile index) {
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  std::string path = index.path();
  std::string doc = index.ToJson();
  IndexPtr decoded = std::make_shared<const IndexFile>(std::move(index));
  // Write-through: the store publishes the decode once it is current. A
  // named local, not a temporary in the co_await expression: GCC
  // miscompiles the lambda-to-function temporary there.
  MvStore::Publish publish = [this, path, decoded](MvPlacement placement) {
    cache_.Insert(path, decoded, std::move(placement));
  };
  co_return co_await store_->PutIndex(path, std::move(doc),
                                      std::move(publish));
}

sim::Task<StatusOr<MetadataVolume::IndexPtr>> MetadataVolume::GetRef(
    std::string path) const {
  // A present entry is current by construction — every mutation (even one
  // that bypasses this class) synchronously dropped what it touched — so a
  // hit is one hash probe, no stat.
  if (const MvDecodeCache::Entry* hit = cache_.Lookup(path)) {
    // Share the decoded object (eviction during the device wait can't
    // invalidate it); only the segment list must be copied onto the frame
    // before suspending. Replaying the mapping issues exactly the requests
    // the miss that filled the entry did.
    IndexPtr shared = hit->index;
    const disk::Volume::ByteSegments& segments = hit->placement.segments;
    if (segments.size() == 1) {
      const auto [dev_offset, n] = segments.front();
      ROS_CO_RETURN_IF_ERROR(
          co_await volume_->ReadDiscardSegment(dev_offset, n));
    } else if (!segments.empty()) {
      disk::Volume::ByteSegments copy = segments;
      ROS_CO_RETURN_IF_ERROR(
          co_await volume_->ReadDiscardSegments(std::move(copy)));
    }
    co_return std::move(shared);
  }
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  auto value = co_await store_->ReadIndex(path);
  if (!value.ok()) {
    co_return value.status();
  }
  auto decoded = IndexFile::FromJson(value->bytes);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  auto shared = std::make_shared<const IndexFile>(std::move(*decoded));
  if (value->placement.has_value()) {
    cache_.Insert(path, shared, std::move(*value->placement));
  }
  co_return std::move(shared);
}

sim::Task<StatusOr<IndexFile>> MetadataVolume::Get(std::string path) const {
  auto ref = co_await GetRef(std::move(path));
  if (!ref.ok()) {
    co_return ref.status();
  }
  co_return IndexFile(**ref);
}

sim::Task<Status> MetadataVolume::Remove(std::string path) {
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  cache_.Erase(path);
  co_return co_await store_->RemoveIndex(std::move(path));
}

std::vector<std::string> MetadataVolume::ListChildren(
    const std::string& path) const {
  const std::string prefix = path == "/" ? path : path + "/";
  std::vector<std::string> children;
  std::optional<std::string> next = store_->NextPath(prefix);
  while (next.has_value() && next->starts_with(prefix)) {
    const std::string_view rest = std::string_view(*next).substr(prefix.size());
    const std::size_t cut = rest.find('/');
    std::string from;
    if (cut == std::string_view::npos) {
      if (!rest.empty()) {  // empty: the root's own index
        children.emplace_back(rest);
      }
      from = *next + '\0';
    } else {
      // A grandchild: seek past the child's whole subtree at once instead
      // of walking it entry by entry.
      from = prefix;
      from.append(rest.substr(0, cut));
      from.push_back(static_cast<char>('/' + 1));
    }
    next = store_->NextPath(from);
  }
  return children;  // path order is lexicographic; already sorted
}

bool MetadataVolume::HasChildren(const std::string& path) const {
  const std::string prefix = path == "/" ? path : path + "/";
  // `prefix + '\0'` steps past the root's own index, the one path equal
  // to its prefix.
  const std::optional<std::string> next = store_->NextPath(prefix + '\0');
  return next.has_value() && next->starts_with(prefix);
}

std::vector<std::string> MetadataVolume::AllPaths() const {
  std::vector<std::string> paths;
  paths.reserve(index_count());
  for (std::optional<std::string> next = store_->NextPath("");
       next.has_value(); next = store_->NextPath(*next + '\0')) {
    paths.push_back(*next);
  }
  return paths;
}

// --- system running state ----------------------------------------------

sim::Task<Status> MetadataVolume::PutState(std::string key, json::Value v) {
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  co_return co_await store_->PutState(std::move(key), v.Dump());
}

sim::Task<StatusOr<json::Value>> MetadataVolume::GetState(
    std::string key) const {
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  auto value = co_await store_->ReadState(std::move(key));
  if (!value.ok()) {
    co_return value.status();
  }
  co_return json::Parse(value->bytes);
}

// --- snapshots ---------------------------------------------------------

sim::Task<StatusOr<udf::Image>> MetadataVolume::BuildSnapshotImage(
    std::string image_id, std::uint64_t capacity) const {
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  udf::Image image(image_id, capacity);
  // One entry in flight at a time; the walk re-seeks after every read's
  // suspension instead of holding an iterator across it.
  for (std::optional<std::string> path = store_->NextPath("");
       path.has_value(); path = store_->NextPath(*path + '\0')) {
    auto value = co_await store_->ReadIndex(*path);
    if (!value.ok()) {
      if (value.status().code() == StatusCode::kNotFound) {
        continue;  // removed while we streamed past it
      }
      co_return value.status();
    }
    // "/a/b" -> "/.mv/a/b#idx" (the suffix keeps directory index files
    // from colliding with their children's paths).
    ROS_CO_RETURN_IF_ERROR(image.AddFile(
        std::string(kSnapshotDir) + *path + "#idx",
        std::vector<std::uint8_t>(value->bytes.begin(), value->bytes.end())));
  }
  co_return image;
}

// ros-lint: allow(coro-ref-param): udf::Image is non-copyable; callers
// keep the snapshot alive for the duration of the restore.
sim::Task<Status> MetadataVolume::RestoreFromSnapshot(
    const udf::Image& snapshot) {
  cache_.Clear();
  std::vector<std::pair<std::string, std::string>> entries;
  snapshot.Walk([&](const std::string& path, const udf::Node& node) {
    if (node.type != udf::NodeType::kFile ||
        !path.starts_with(std::string(kSnapshotDir) + "/")) {
      return;
    }
    std::string global_path = path.substr(kSnapshotDir.size());
    constexpr std::string_view kSuffix = "#idx";
    if (global_path.size() > kSuffix.size() &&
        global_path.ends_with(kSuffix)) {
      global_path.resize(global_path.size() - kSuffix.size());
    }
    // Raw bytes, no validation: a corrupt snapshot entry restores fine
    // and fails at first decode.
    const std::span<const std::uint8_t> bytes = node.bytes();
    entries.emplace_back(std::move(global_path),
                         std::string(bytes.begin(), bytes.end()));
  });
  ROS_CO_RETURN_IF_ERROR(co_await store_->Open());
  // Every entry the store can write is restored; a single bad entry (or a
  // transient volume error) does not abandon the rest of the namespace.
  const std::vector<Status> results =
      co_await store_->RestoreIndexes(std::move(entries));
  Status first_error = OkStatus();
  std::uint64_t failed = 0;
  for (const Status& status : results) {
    if (!status.ok()) {
      ++failed;
      if (first_error.ok()) {
        first_error = status;
      }
    }
  }
  if (failed > 1) {
    co_return Status(first_error.code(),
                     std::string(first_error.message()) + " (and " +
                         std::to_string(failed - 1) +
                         " more restore failures)");
  }
  co_return first_error;
}

void MetadataVolume::WipeAll() {
  cache_.Clear();
  store_->Wipe();
  volume_->FormatQuick();
}

}  // namespace ros::olfs
