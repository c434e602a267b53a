// The paper's Metadata Volume layout (§4.2): one JSON file per namespace
// entry ("/idx" + path) and one per running-state key ("/state/" + key).
// Simple, but every put pays per-file inode churn and a whole-file
// rewrite. The cluster head's routing store, and the differential
// reference the log-structured store is checked against.
#ifndef ROS_SRC_OLFS_MV_FILE_STORE_H_
#define ROS_SRC_OLFS_MV_FILE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/olfs/mv_store.h"

namespace ros::olfs {

class FileMvStore final : public MvStore {
 public:
  FileMvStore(disk::Volume* volume, MvDecodeCache* cache);

  // Index file name of a namespace path (exposed for tests that poke the
  // volume directly).
  static std::string IndexName(const std::string& path) {
    return "/idx" + path;
  }

  sim::Task<Status> Open() override { co_return OkStatus(); }
  sim::Task<StatusOr<Value>> ReadIndex(std::string path) override;
  sim::Task<Status> PutIndex(std::string path, std::string doc,
                             Publish publish) override;
  sim::Task<Status> RemoveIndex(std::string path) override {
    return volume_->Delete(IndexName(path));
  }
  sim::Task<std::vector<Status>> RestoreIndexes(
      std::vector<std::pair<std::string, std::string>> entries) override;
  sim::Task<StatusOr<Value>> ReadState(std::string key) override;
  sim::Task<Status> PutState(std::string key, std::string doc) override;

  std::uint64_t IndexCount() const override { return index_count_; }
  std::optional<std::string> NextPath(
      const std::string& from) const override;

  void Wipe() override {}  // the volume format is the whole wipe
  void OnVolumeMutation(const std::string& name,
                        disk::Volume::MutationKind kind) override;
  MvStoreStats Stats() const override { return {}; }

 private:
  // Creates the file if needed and rewrites it whole.
  sim::Task<Status> WriteFile(std::string name, std::string doc);

  disk::Volume* volume_;
  MvDecodeCache* cache_;
  // O(1) IndexCount: seeded from one CountPrefix walk, then kept current
  // by OnVolumeMutation on every create, delete and format.
  std::uint64_t index_count_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MV_FILE_STORE_H_
