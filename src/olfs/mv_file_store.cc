#include "src/olfs/mv_file_store.h"

#include <string_view>

namespace ros::olfs {

namespace {

constexpr std::string_view kIndexPrefix = "/idx/";

std::string StateName(const std::string& key) { return "/state/" + key; }

}  // namespace

FileMvStore::FileMvStore(disk::Volume* volume, MvDecodeCache* cache)
    : volume_(volume), cache_(cache),
      index_count_(volume->CountPrefix(std::string(kIndexPrefix))) {}

sim::Task<Status> FileMvStore::WriteFile(std::string name, std::string doc) {
  if (!volume_->Exists(name)) {
    ROS_CO_RETURN_IF_ERROR(co_await volume_->Create(name));
  }
  co_return co_await volume_->WriteAll(
      name, std::vector<std::uint8_t>(doc.begin(), doc.end()));
}

sim::Task<StatusOr<MvStore::Value>> FileMvStore::ReadIndex(
    std::string path) {
  const std::string name = IndexName(path);
  const auto stat = volume_->StatFile(name);
  if (!stat.ok()) {
    co_return stat.status();
  }
  auto data = co_await volume_->ReadAll(name);
  if (!data.ok()) {
    co_return data.status();
  }
  Value value{std::string(data->begin(), data->end()), std::nullopt};
  // Publishable only if the file kept its generation across the read,
  // which pins the bytes (and their device mapping) to exactly this read.
  const auto stat_after = volume_->StatFile(name);
  if (stat_after.ok() && stat_after->write_gen == stat->write_gen) {
    auto segments = volume_->MapFileRange(name, 0, stat->size);
    if (segments.ok()) {
      value.placement = MvPlacement{std::move(*segments)};
    }
  }
  co_return value;
}

sim::Task<Status> FileMvStore::PutIndex(std::string path, std::string doc,
                                        Publish publish) {
  const std::string name = IndexName(path);
  if (!volume_->Exists(name)) {
    ROS_CO_RETURN_IF_ERROR(co_await volume_->Create(name));
  }
  const auto before = volume_->StatFile(name);
  ROS_CO_RETURN_IF_ERROR(co_await volume_->WriteAll(
      name, std::vector<std::uint8_t>(doc.begin(), doc.end())));
  // Publish only when our write was the sole mutation in the window — one
  // generation step on the file. Any interleaved writer (to this or
  // another file) advances the volume-wide counter further and the insert
  // is skipped; the next read re-decodes.
  const auto after = volume_->StatFile(name);
  if (before.ok() && after.ok() &&
      after->write_gen == before->write_gen + 1) {
    auto segments = volume_->MapFileRange(name, 0, after->size);
    if (segments.ok()) {
      publish(MvPlacement{std::move(*segments)});
    }
  }
  co_return OkStatus();
}

sim::Task<std::vector<Status>> FileMvStore::RestoreIndexes(
    std::vector<std::pair<std::string, std::string>> entries) {
  // One file at a time: the paper's per-entry Create + WriteAll.
  std::vector<Status> results;
  results.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Status status = co_await WriteFile(IndexName(entries[i].first),
                                       std::move(entries[i].second));
    results.push_back(std::move(status));
  }
  co_return results;
}

sim::Task<StatusOr<MvStore::Value>> FileMvStore::ReadState(
    std::string key) {
  auto data = co_await volume_->ReadAll(StateName(key));
  if (!data.ok()) {
    co_return data.status();
  }
  co_return Value{std::string(data->begin(), data->end()), std::nullopt};
}

sim::Task<Status> FileMvStore::PutState(std::string key, std::string doc) {
  co_return co_await WriteFile(StateName(key), std::move(doc));
}

std::optional<std::string> FileMvStore::NextPath(
    const std::string& from) const {
  auto name = volume_->FirstWithPrefix(std::string(kIndexPrefix),
                                       IndexName(from));
  if (!name.has_value()) {
    return std::nullopt;
  }
  return name->substr(4);  // strip "/idx"
}

void FileMvStore::OnVolumeMutation(const std::string& name,
                                   disk::Volume::MutationKind kind) {
  using Kind = disk::Volume::MutationKind;
  const bool index_file = name.starts_with(kIndexPrefix);
  switch (kind) {
    case Kind::kFormatted:
      index_count_ = 0;
      break;
    case Kind::kCreated:
      index_count_ += index_file ? 1 : 0;
      break;
    case Kind::kDeleted:
      index_count_ -= index_file ? 1 : 0;
      break;
    case Kind::kModified:
      break;  // bytes changed, existence didn't
  }
  // Only "/idx..." files back cached entries; the cache is keyed by path,
  // which is the name minus that prefix (a view — no allocation here, and
  // this runs on every volume write).
  std::string_view view(name);
  if (view.substr(0, 4) == "/idx") {
    cache_->Erase(view.substr(4));
  }
}

}  // namespace ros::olfs
