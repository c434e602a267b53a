// Multi-rack cluster: namespace/placement service over N ROS racks
// (DESIGN.md §5k, ROADMAP item 1).
//
// One rack's aggregate throughput is capped by its 24 drives and one
// FetchScheduler no matter how many clients arrive. Cluster is the thin
// routing layer that breaks that wall — the shape CERN EOS uses (an MGM
// namespace head over self-contained FST stores) and the one long-lived
// archives converge on: each rack stays a complete, independently
// recoverable ROS system; the cluster owns only the bucket -> rack
// routing table and the placement policy.
//
//   - Writes route by capacity- and affinity-aware placement (placement.h);
//     reads fan out across racks, so independent clients stop serializing
//     on one mechanical queue.
//   - A replicated bucket class writes synchronously to a primary and a
//     mirror on a different rack: the rack is the failure domain, and
//     every acked replicated write survives a whole-rack loss.
//   - The routing table persists in the cluster's own mirrored MV; after
//     a namespace-head restart ReloadRouting() recovers it, and a killed
//     rack rebuilds its namespace from its discs (RebuildNamespace) using
//     the burned-tray manifest the cluster persisted for it.
//   - A background rebalancer migrates the coldest bucket off the hottest
//     rack when the op-rate spread crosses a threshold.
//
// Every inter-node message crosses a deterministic sim-time channel that
// folds (op, rack, seq) into the sim::EventHasher, so the divergence
// oracle covers cluster scheduling exactly like PLC actuations.
#ifndef ROS_SRC_OLFS_CLUSTER_H_
#define ROS_SRC_OLFS_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/disk/block_device.h"
#include "src/disk/raid.h"
#include "src/disk/volume.h"
#include "src/olfs/hints.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/olfs/params.h"
#include "src/olfs/placement.h"
#include "src/olfs/system.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

struct ClusterParams {
  int racks = 2;
  // Template for every rack; rack_name is overridden per rack ("rack<i>")
  // so physical ids stay cluster-unique.
  SystemConfig rack_config = TestSystemConfig();
  OlfsParams rack_params;
  // The namespace head's own mirrored-SSD metadata volume (routes,
  // burned-tray manifests).
  std::uint64_t mv_ssd_capacity = 64 * kMiB;
  // One inter-node message hop (MGM <-> FST, intra-datacenter).
  sim::Duration hop_latency = sim::Micros(50);
  // A stream's favourite rack wins placement while within this many bytes
  // of the least-loaded rack.
  std::uint64_t affinity_headroom_bytes = 256 * kMiB;
  // Rebalancer (0 disables): every interval, if the hottest alive rack
  // saw at least `rebalance_min_ops` more ops than the coldest in the
  // window, its coldest bucket migrates to the least-loaded rack.
  sim::Duration rebalance_interval = 0;
  std::uint64_t rebalance_min_ops = 64;
};

struct ClusterStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t replicated_puts = 0;
  std::uint64_t mirror_reads = 0;  // primary dead, served by the mirror
  std::uint64_t messages = 0;      // channel hops
  std::uint64_t buckets_migrated = 0;
  std::uint64_t objects_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t routes_recovered = 0;  // loaded by ReloadRouting
  std::uint64_t rack_kills = 0;
  std::uint64_t rack_recoveries = 0;
};

class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterParams params);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int racks() const { return static_cast<int>(nodes_.size()); }
  // Null while the rack is killed.
  Olfs* rack(int i) { return nodes_.at(i)->olfs.get(); }
  RosSystem* rack_system(int i) { return nodes_.at(i)->system.get(); }
  bool rack_alive(int i) const { return nodes_.at(i)->alive; }

  // ------------------------------------------------------------------
  // Namespace operations (bucket/key). Keys may contain '/' (nested
  // directories on the rack); escaping is the frontend's business
  // (frontend::ClusterStore).
  // ------------------------------------------------------------------

  sim::Task<Status> CreateBucket(std::string bucket,
                                 BucketClass cls = BucketClass::kStandard,
                                 std::uint64_t stream = 0);
  sim::Task<Status> Put(std::string bucket, std::string key,
                        std::vector<std::uint8_t> data, AccessHint hint = {});
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Get(std::string bucket,
                                                     std::string key,
                                                     AccessHint hint = {});
  sim::Task<StatusOr<FileInfo>> Stat(std::string bucket, std::string key);
  sim::Task<StatusOr<std::vector<std::string>>> List(std::string bucket);
  sim::Task<Status> Delete(std::string bucket, std::string key);

  // ------------------------------------------------------------------
  // Control plane (fan-out across alive racks)
  // ------------------------------------------------------------------

  // Flushes and drains every alive rack's burn pipeline in parallel.
  sim::Task<Status> FlushAndDrain();

  // Starts each alive rack's background policies, plus the cluster's own
  // rebalancer when rebalance_interval > 0.
  void StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                               sim::Duration auto_flush_interval,
                               sim::Duration scrub_interval = 0);

  // Scrub passes on every alive rack concurrently; sums repaired images.
  sim::Task<StatusOr<int>> ScrubAndRepair();

  // Persists cluster state into the cluster MV: every routing shard and,
  // per alive rack, the manifest of burned tray indices (what
  // RecoverRack feeds to RebuildNamespace).
  sim::Task<Status> SyncRackState();

  // ------------------------------------------------------------------
  // Failure domains
  // ------------------------------------------------------------------

  // Kills rack `i`'s controller: stops routing to it, waits out in-flight
  // ops, quiesces and destroys the Olfs facade. The RosSystem — media,
  // burned bytes — survives, as does anything acked to a replicated
  // bucket (served by the mirror while the rack is down). Unburned
  // buffered data on the rack is lost, exactly like a real controller
  // loss.
  sim::Task<Status> KillRack(int i);

  // Rebuilds rack `i`: a fresh Olfs over the surviving hardware, then
  // RebuildNamespace from the burned-tray manifest persisted by
  // SyncRackState. The rack rejoins placement afterwards.
  sim::Task<StatusOr<RecoveryReport>> RecoverRack(int i);

  // Drops the in-memory routing table and reloads it from the cluster
  // MV (namespace-head restart). Counts recovered routes in stats().
  sim::Task<Status> ReloadRouting();

  // One rebalance pass (also what the background loop runs): migrate the
  // coldest bucket off the hottest rack when the spread crosses
  // rebalance_min_ops. Returns true if a bucket moved.
  sim::Task<StatusOr<bool>> RebalanceOnce();

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  const RoutingTable& routes() const { return routes_; }
  PlacementPolicy& placement() { return placement_; }
  const ClusterStats& stats() const { return stats_; }
  MetadataVolume& cluster_mv() { return *mv_; }
  const ClusterParams& params() const { return params_; }

  // Rack path of one object ("/b/<bucket>/<key>").
  static std::string RackPath(const std::string& bucket,
                              const std::string& key);

 private:
  struct RackNode {
    std::unique_ptr<RosSystem> system;
    std::unique_ptr<Olfs> olfs;
    bool alive = true;
    int inflight = 0;          // cluster-routed ops currently on this rack
    std::uint64_t window_ops = 0;  // ops since the last rebalance window
  };

  // One deterministic message hop to rack `rack`; folds (op, rack, seq)
  // into the sim's EventHasher and charges the channel latency.
  sim::Task<void> Hop(int rack, const char* op);

  // Route lookup + liveness. Creates a standard-class route on first Put
  // to an unknown bucket.
  sim::Task<StatusOr<BucketRoute>> ResolveRoute(std::string bucket,
                                                std::uint64_t stream,
                                                bool create_if_missing);

  // Per-bucket gate: ops hold the bucket open; migration freezes it and
  // waits for in-flight ops to drain so the route flip is atomic.
  sim::Task<void> EnterBucket(std::string bucket);
  void LeaveBucket(const std::string& bucket);

  // Single-rack legs of the fan-out operations. Each charges one Hop and
  // tracks the rack's in-flight count (KillRack waits it out).
  sim::Task<Status> MkdirOnRack(int rack, std::string bucket);
  sim::Task<Status> PutOnRack(int rack, std::string path,
                              std::vector<std::uint8_t> data,
                              AccessHint hint);
  sim::Task<Status> UnlinkOnRack(int rack, std::string path);
  sim::Task<Status> FlushRack(int rack);
  sim::Task<Status> ScrubRack(int rack, std::shared_ptr<int> repaired);

  // Persists one routing shard to the cluster MV.
  sim::Task<Status> PersistShard(int shard);

  // Moves one bucket's objects from its current primary to `target` and
  // flips the route.
  sim::Task<Status> MigrateBucket(std::string bucket, int target);

  sim::Task<void> RebalanceLoop(sim::Duration interval,
                                std::shared_ptr<const bool> alive);

  sim::Simulator& sim_;
  ClusterParams params_;

  // The namespace head's own metadata store: two SSDs in RAID-1 under a
  // volume, same shape as a rack MV.
  std::vector<std::unique_ptr<disk::StorageDevice>> mv_ssds_;
  std::unique_ptr<disk::RaidVolume> mv_raid_;
  std::unique_ptr<disk::Volume> mv_volume_;
  std::unique_ptr<MetadataVolume> mv_;

  std::vector<std::unique_ptr<RackNode>> nodes_;
  RoutingTable routes_;
  PlacementPolicy placement_;
  ClusterStats stats_;

  // Bucket gate state (ordered: deterministic; point lookups only).
  std::map<std::string, int> bucket_inflight_;
  std::set<std::string> frozen_buckets_;
  sim::ConditionVariable bucket_cv_;

  std::shared_ptr<bool> bg_alive_ = std::make_shared<bool>(true);
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_CLUSTER_H_
