// Hardware assembly of a ROS rack (§5.1 prototype by default).
//
// RosSystem wires up the physical substrate: SSDs in RAID-1 for the MV,
// HDDs in one or more RAID-5 data volumes for the disk buffer, rollers +
// robotic arms behind the PLC, and 12-drive sets per bay. Olfs (olfs.h)
// builds the software stack on top.
#ifndef ROS_SRC_OLFS_SYSTEM_H_
#define ROS_SRC_OLFS_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/raid.h"
#include "src/disk/volume.h"
#include "src/drive/optical_drive.h"
#include "src/mech/library.h"
#include "src/olfs/disc_inventory.h"
#include "src/olfs/params.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"

namespace ros::olfs {

struct SystemConfig {
  int rollers = 2;
  int drive_sets = 2;        // 24 drives, the prototype's complement
  int data_volumes = 2;      // two independent RAID-5 arrays (§4.7)
  int hdds_per_volume = 7;
  std::uint64_t hdd_capacity = 4 * kTB;
  std::uint64_t ssd_capacity = 240 * kGB;
  // Rack identity within a multi-rack cluster (DESIGN.md §5k). When set,
  // it qualifies every physical id minted by this rack — disc names,
  // chaos telemetry, audit manifests — so aggregating state from N racks
  // never collides. Empty (the single-rack default) mints bare ids:
  // per-disc seeded draws (aging, burn-speed profiles) key off the id
  // string, so a standalone rack stays byte-identical to the pre-cluster
  // behavior. olfs::Cluster assigns each rack a unique name.
  std::string rack_name;
  mech::LibraryConfig MechConfig() const {
    mech::LibraryConfig config;
    config.rollers = rollers;
    config.drive_sets = drive_sets;
    return config;
  }
};

// A small rig for unit tests: 1 roller, 1 drive set, modest disks.
inline SystemConfig TestSystemConfig() {
  SystemConfig config;
  config.rollers = 1;
  config.drive_sets = 1;
  config.data_volumes = 2;
  config.hdds_per_volume = 3;
  config.hdd_capacity = 2 * kGiB;
  config.ssd_capacity = 256 * kMiB;
  return config;
}

class RosSystem {
 public:
  RosSystem(sim::Simulator& sim, const SystemConfig& config)
      : config_(config) {
    discs_.set_rack(config_.rack_name);
    for (int i = 0; i < 2; ++i) {
      ssds_.push_back(std::make_unique<disk::StorageDevice>(
          sim, "ssd" + std::to_string(i), config.ssd_capacity,
          disk::SsdPerf()));
    }
    mv_raid_ = std::make_unique<disk::RaidVolume>(
        sim, disk::RaidLevel::kRaid1,
        std::vector<disk::StorageDevice*>{ssds_[0].get(), ssds_[1].get()});
    mv_volume_ = std::make_unique<disk::Volume>(
        sim, mv_raid_.get(), disk::MetadataVolumeParams());

    for (int v = 0; v < config.data_volumes; ++v) {
      std::vector<disk::StorageDevice*> members;
      for (int i = 0; i < config.hdds_per_volume; ++i) {
        hdds_.push_back(std::make_unique<disk::StorageDevice>(
            sim, "hdd" + std::to_string(v) + "_" + std::to_string(i),
            config.hdd_capacity, disk::HddPerf()));
        members.push_back(hdds_.back().get());
      }
      data_raids_.push_back(std::make_unique<disk::RaidVolume>(
          sim, disk::RaidLevel::kRaid5, members));
      data_volumes_.push_back(std::make_unique<disk::Volume>(
          sim, data_raids_.back().get(),
          disk::VolumeParams{.journal_metadata = false}));
    }

    library_ = std::make_unique<mech::Library>(sim, config.MechConfig());
    for (int i = 0; i < config.drive_sets; ++i) {
      drive_sets_.push_back(std::make_unique<drive::DriveSet>(sim, i));
    }

    // Built once: these are hot-path accessors (every Olfs construction
    // and several per-op paths walk them), so they hand out a stable
    // const& instead of materializing a fresh vector per call.
    for (auto& v : data_volumes_) {
      data_volume_ptrs_.push_back(v.get());
    }
    for (auto& s : drive_sets_) {
      drive_set_ptrs_.push_back(s.get());
    }
  }

  disk::Volume* mv_volume() { return mv_volume_.get(); }
  const std::vector<disk::Volume*>& data_volumes() const {
    return data_volume_ptrs_;
  }
  disk::RaidVolume* data_raid(int i) { return data_raids_.at(i).get(); }
  // The disk buffer's member HDDs, volume by volume.
  int hdd_count() const { return static_cast<int>(hdds_.size()); }
  const disk::StorageDevice& hdd(int i) const { return *hdds_.at(i); }
  disk::RaidVolume* mv_raid() { return mv_raid_.get(); }
  mech::Library* library() { return library_.get(); }
  const std::vector<drive::DriveSet*>& drive_sets() const {
    return drive_set_ptrs_;
  }
  const SystemConfig& config() const { return config_; }
  const std::string& rack_name() const { return config_.rack_name; }
  DiscInventory& discs() { return discs_; }

  // Installs a fault injector on every fault hook in the rack: all SSDs
  // and HDDs, every optical drive, and the PLC. Pass nullptr to detach.
  void InstallFaultInjector(sim::FaultInjector* injector) {
    fault_injector_ = injector;
    for (auto& ssd : ssds_) {
      ssd->set_fault_injector(injector);
    }
    for (auto& hdd : hdds_) {
      hdd->set_fault_injector(injector);
    }
    for (auto& set : drive_sets_) {
      for (int i = 0; i < set->size(); ++i) {
        set->drive(i).set_fault_injector(injector);
      }
    }
    library_->plc().set_fault_injector(injector);
  }
  sim::FaultInjector* fault_injector() { return fault_injector_; }

  // Installs the media-aging model on every optical drive (DESIGN.md
  // §5j). Not owned; the params must outlive the drives. Pass nullptr to
  // detach — and a params object with enabled=false is byte-identical to
  // no model at all.
  void InstallAgingModel(const drive::MediaAgingParams* aging) {
    for (auto& set : drive_sets_) {
      for (int i = 0; i < set->size(); ++i) {
        set->drive(i).set_aging_model(aging);
      }
    }
  }

 private:
  SystemConfig config_;
  std::vector<disk::Volume*> data_volume_ptrs_;
  std::vector<drive::DriveSet*> drive_set_ptrs_;
  std::vector<std::unique_ptr<disk::StorageDevice>> ssds_;
  std::vector<std::unique_ptr<disk::StorageDevice>> hdds_;
  std::unique_ptr<disk::RaidVolume> mv_raid_;
  std::vector<std::unique_ptr<disk::RaidVolume>> data_raids_;
  std::unique_ptr<disk::Volume> mv_volume_;
  std::vector<std::unique_ptr<disk::Volume>> data_volumes_;
  std::unique_ptr<mech::Library> library_;
  std::vector<std::unique_ptr<drive::DriveSet>> drive_sets_;
  DiscInventory discs_;
  sim::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_SYSTEM_H_
