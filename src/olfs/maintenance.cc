#include "src/olfs/maintenance.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/olfs/parity.h"
#include "src/udf/serializer.h"

namespace ros::olfs {

namespace {

const char* TierName(ImageTier tier) {
  switch (tier) {
    case ImageTier::kOpenBucket: return "open-bucket";
    case ImageTier::kBuffered: return "buffered";
    case ImageTier::kBurnedCached: return "burned+cached";
    case ImageTier::kBurnedOnly: return "burned";
  }
  return "?";
}

}  // namespace

json::Value Maintenance::StatusReport() const {
  json::Object report;

  json::Object arrays;
  arrays["empty"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kEmpty));
  arrays["used"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kUsed));
  arrays["failed"] = json::Value(
      olfs_->da_index().CountState(ArrayState::kFailed));
  report["disc_arrays"] = json::Value(std::move(arrays));

  json::Object pipeline;
  pipeline["buckets_created"] =
      json::Value(olfs_->buckets().buckets_created());
  pipeline["arrays_burned"] = json::Value(olfs_->burns().arrays_burned());
  pipeline["active_burns"] = json::Value(olfs_->burns().active_burns());
  pipeline["pending_images"] =
      json::Value(olfs_->images().UnburnedClosed().size());
  pipeline["fetches"] = json::Value(olfs_->fetches().fetches());
  report["pipeline"] = json::Value(std::move(pipeline));

  // Fetch scheduler observability: queue shape, batching effectiveness,
  // and the mechanical work the batching avoided.
  const FetchScheduler* scheduler = olfs_->fetch_scheduler();
  const FetchSchedulerStats& stats = scheduler->stats();
  json::Object sched;
  sched["queue_depth"] = json::Value(scheduler->queue_depth());
  sched["max_queue_depth"] = json::Value(stats.max_queue_depth);
  sched["requests"] = json::Value(stats.requests);
  sched["loads"] = json::Value(stats.loads);
  sched["unloads"] = json::Value(stats.unloads);
  sched["parked_hits"] = json::Value(stats.parked_hits);
  sched["handoffs"] = json::Value(stats.handoffs);
  sched["loads_avoided"] = json::Value(stats.loads_avoided());
  sched["aged_dispatches"] = json::Value(stats.aged_dispatches);
  sched["failed_batches"] = json::Value(stats.failed_batches);
  sched["max_batch"] = json::Value(stats.max_batch);
  sched["mean_queue_delay_s"] =
      json::Value(sim::ToSeconds(stats.mean_queue_delay()));
  sched["max_queue_delay_s"] =
      json::Value(sim::ToSeconds(stats.max_queue_delay));
  sched["est_positioning_s"] =
      json::Value(sim::ToSeconds(stats.est_positioning));
  // Background (speculative) prefetch class: queued, dispatched, and how
  // predictions paid off. speculative_demand_evictions is a runtime
  // self-check and must stay 0.
  sched["speculative_enqueued"] = json::Value(stats.speculative_enqueued);
  sched["speculative_loads"] = json::Value(stats.speculative_loads);
  sched["speculative_canceled"] = json::Value(stats.speculative_canceled);
  sched["speculative_useful"] = json::Value(stats.speculative_useful);
  sched["speculative_wasted"] = json::Value(stats.speculative_wasted);
  sched["speculative_demand_evictions"] =
      json::Value(stats.speculative_demand_evictions);
  json::Array hist;
  for (int i = 0; i < FetchSchedulerStats::kDelayBuckets; ++i) {
    json::Object bucket;
    bucket["upper_s"] =
        json::Value(FetchSchedulerStats::kDelayBucketUpperS[i]);
    bucket["count"] = json::Value(stats.delay_hist[i]);
    hist.emplace_back(std::move(bucket));
  }
  sched["queue_delay_histogram"] = json::Value(std::move(hist));
  report["fetch_scheduler"] = json::Value(std::move(sched));

  json::Object cache;
  cache["image_cache_bytes"] = json::Value(olfs_->cache().used_bytes());
  cache["image_hits"] = json::Value(olfs_->cache().hits());
  cache["image_misses"] = json::Value(olfs_->cache().misses());
  cache["image_ghost_hits"] = json::Value(olfs_->cache().ghost_hits());
  cache["image_ghost_entries"] = json::Value(olfs_->cache().ghost_entries());
  cache["image_protected_bytes"] =
      json::Value(olfs_->cache().protected_bytes());
  cache["image_probationary_bytes"] =
      json::Value(olfs_->cache().probationary_bytes());
  cache["shared_image_reads"] =
      json::Value(olfs_->reader().shared_image_reads());
  cache["readahead_images"] = json::Value(olfs_->reader().readahead_images());
  cache["readahead_bytes"] = json::Value(olfs_->reader().readahead_bytes());
  cache["file_cache_bytes"] =
      json::Value(olfs_->reader().file_cache().used_bytes());
  const auto& index_stats = olfs_->mv().cache_stats();
  cache["index_hits"] = json::Value(index_stats.hits);
  cache["index_misses"] = json::Value(index_stats.misses);
  cache["index_evictions"] = json::Value(index_stats.evictions);
  report["caches"] = json::Value(std::move(cache));

  // Namespace store internals (log-structured backend only; the block
  // reports zeros under the legacy layout).
  const auto store = olfs_->mv().store_stats();
  json::Object mv_store;
  mv_store["log_structured"] = json::Value(store.log_structured);
  mv_store["wal_records_appended"] = json::Value(store.wal.records_appended);
  mv_store["wal_batches_committed"] = json::Value(store.wal.batches_committed);
  mv_store["wal_bytes_committed"] = json::Value(store.wal.bytes_committed);
  mv_store["wal_commit_failures"] = json::Value(store.wal.commit_failures);
  mv_store["memtable_entries"] = json::Value(store.memtable_entries);
  mv_store["memtable_bytes"] = json::Value(store.memtable_bytes);
  mv_store["segment_count"] = json::Value(store.segment_count);
  mv_store["segment_bytes"] = json::Value(store.segment_bytes);
  mv_store["segment_records_live"] = json::Value(store.segment_records_live);
  mv_store["segment_records_total"] = json::Value(store.segment_records_total);
  mv_store["memtable_flushes"] = json::Value(store.memtable_flushes);
  mv_store["compactions"] = json::Value(store.compactions);
  mv_store["segments_deleted"] = json::Value(store.segments_deleted);
  report["mv_store"] = json::Value(std::move(mv_store));

  // Self-healing: the fault/retry/repair pipeline (§4.7), plus raw
  // injector telemetry when a chaos plan is installed.
  json::Object resilience;
  resilience["degraded_reads"] = json::Value(olfs_->reader().degraded_reads());
  resilience["reconstructions"] = json::Value(olfs_->scrub().reconstructions());
  resilience["images_repaired"] = json::Value(olfs_->scrub().images_repaired());
  resilience["burn_retries"] = json::Value(olfs_->burns().burn_retries());
  resilience["arrays_reallocated"] =
      json::Value(olfs_->burns().arrays_reallocated());
  resilience["fetch_retries"] = json::Value(olfs_->fetches().retries());
  resilience["mech_recoveries"] = json::Value(
      olfs_->system().library()->fault_recoveries());
  resilience["mech_reseat_failures"] =
      json::Value(olfs_->system().library()->reseat_failures());
  if (sim::FaultInjector* injector = olfs_->system().fault_injector()) {
    json::Object injected;
    for (int k = 0; k < sim::kNumFaultKinds; ++k) {
      const auto kind = static_cast<sim::FaultKind>(k);
      json::Object counts;
      counts["ops_seen"] = json::Value(injector->ops_seen(kind));
      counts["injected"] = json::Value(injector->injected(kind));
      injected[std::string(sim::FaultKindName(kind))] =
          json::Value(std::move(counts));
    }
    resilience["injected_faults"] = json::Value(std::move(injected));
  }
  report["resilience"] = json::Value(std::move(resilience));

  // Decades-scale preservation (DESIGN.md §5j): scrub / refresh-migration
  // progress and the audit manifests' verification economics.
  json::Object preservation;
  preservation["scrub_passes"] = json::Value(olfs_->scrub().passes());
  preservation["scrubbed_bytes"] = json::Value(olfs_->scrub().scrubbed_bytes());
  preservation["scrub_repairs"] = json::Value(olfs_->scrub().scrub_repairs());
  preservation["refresh_burns"] = json::Value(olfs_->scrub().refresh_burns());
  preservation["arrays_refreshed"] =
      json::Value(olfs_->scrub().arrays_refreshed());
  preservation["audit_roots_built"] = json::Value(olfs_->audit().roots_built());
  preservation["audit_manifests"] =
      json::Value(olfs_->audit().manifests_live());
  preservation["audit_leaves_sampled"] =
      json::Value(olfs_->scrub().audit_leaves_sampled());
  preservation["audit_bytes_read"] =
      json::Value(olfs_->scrub().audit_bytes_read());
  preservation["audit_mismatches"] =
      json::Value(olfs_->scrub().audit_mismatches());
  report["preservation"] = json::Value(std::move(preservation));

  json::Object namespace_info;
  namespace_info["entries"] = json::Value(olfs_->mv().index_count());
  namespace_info["images"] = json::Value(olfs_->images().image_count());
  report["namespace"] = json::Value(std::move(namespace_info));

  json::Array tiers;
  for (const ImageRecord* record : olfs_->images().AllRecords()) {
    json::Object entry;
    entry["id"] = json::Value(record->id);
    entry["tier"] = json::Value(std::string(TierName(record->tier)));
    if (record->disc.has_value()) {
      entry["disc"] = json::Value(record->disc->ToString());
    }
    tiers.emplace_back(std::move(entry));
  }
  report["images"] = json::Value(std::move(tiers));
  return json::Value(std::move(report));
}

sim::Task<Status> Maintenance::Checkpoint() {
  json::Object state;

  // DAindex.
  json::Array used;
  json::Array failed;
  for (int t = 0;
       t < olfs_->da_index().rollers() * mech::kTraysPerRoller; ++t) {
    switch (olfs_->da_index().state(mech::TrayAddress::FromIndex(t))) {
      case ArrayState::kUsed: used.emplace_back(t); break;
      case ArrayState::kFailed: failed.emplace_back(t); break;
      case ArrayState::kEmpty: break;
    }
  }
  state["da_used"] = json::Value(std::move(used));
  state["da_failed"] = json::Value(std::move(failed));
  state["bucket_counter"] =
      json::Value(olfs_->buckets().buckets_created());

  // Image registry + buffered structures flushed to the disk buffer.
  json::Array images;
  for (const ImageRecord* record : olfs_->images().AllRecords()) {
    json::Object entry;
    entry["id"] = json::Value(record->id);
    entry["parity"] = json::Value(record->parity);
    entry["tier"] = json::Value(static_cast<int>(record->tier));
    entry["bytes"] = json::Value(record->logical_bytes);
    entry["vol"] = json::Value(record->volume_index);
    entry["file"] = json::Value(record->volume_file);
    if (record->disc.has_value()) {
      entry["disc"] = json::Value(record->disc->ToIndex());
    }
    json::Array members;
    for (const std::string& member : record->array_members) {
      members.emplace_back(member);
    }
    entry["members"] = json::Value(std::move(members));
    images.emplace_back(std::move(entry));

    // Persist the serialized structure of every image whose bytes live
    // only in controller memory + buffer (open buckets included: the
    // checkpoint closes over their current content). Closed images reuse
    // their cached stream; only open buckets are serialized here.
    if (record->image != nullptr && !record->parity) {
      std::vector<std::uint8_t> stream;
      if (record->tier == ImageTier::kOpenBucket) {
        stream = udf::Serializer::Serialize(*record->image);
      } else {
        ROS_CO_ASSIGN_OR_RETURN(SharedBytes cached,
                                olfs_->images().Stream(record->id));
        stream = *cached;
      }
      disk::Volume* volume = olfs_->buckets().volume(record->volume_index);
      const std::string name = CheckpointFileName(record->id);
      if (!volume->Exists(name)) {
        ROS_CO_RETURN_IF_ERROR(co_await volume->Create(name));
      }
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->WriteAll(name, std::move(stream)));
    }
  }
  state["images"] = json::Value(std::move(images));
  co_return co_await olfs_->mv().PutState(kCheckpointKey,
                                          json::Value(std::move(state)));
}

sim::Task<Status> Maintenance::RestoreFromCheckpoint() {
  ROS_CO_ASSIGN_OR_RETURN(json::Value state,
                          co_await olfs_->mv().GetState(kCheckpointKey));
  for (const json::Value& t : state["da_used"].as_array()) {
    olfs_->da_index().set_state(
        mech::TrayAddress::FromIndex(static_cast<int>(t.as_int())),
        ArrayState::kUsed);
  }
  for (const json::Value& t : state["da_failed"].as_array()) {
    olfs_->da_index().set_state(
        mech::TrayAddress::FromIndex(static_cast<int>(t.as_int())),
        ArrayState::kFailed);
  }
  olfs_->buckets().RestoreCounter(
      static_cast<int>(state["bucket_counter"].as_int()));

  for (const json::Value& entry : state["images"].as_array()) {
    ImageRecord record;
    record.id = entry["id"].as_string();
    record.parity = entry["parity"].as_bool();
    record.logical_bytes =
        static_cast<std::uint64_t>(entry["bytes"].as_int());
    record.volume_index = static_cast<int>(entry["vol"].as_int());
    record.volume_file = entry["file"].as_string();
    if (entry.contains("disc")) {
      record.disc = mech::DiscAddress::FromIndex(
          static_cast<int>(entry["disc"].as_int()));
    }
    for (const json::Value& member : entry["members"].as_array()) {
      record.array_members.push_back(member.as_string());
    }
    const auto tier = static_cast<ImageTier>(entry["tier"].as_int());
    // Open buckets are closed by the crash; their checkpointed content
    // survives as a buffered image awaiting burn.
    record.tier = tier == ImageTier::kOpenBucket ? ImageTier::kBuffered
                                                 : tier;

    // Reload the serialized structure for buffer-resident data images.
    if ((record.tier == ImageTier::kBuffered ||
         record.tier == ImageTier::kBurnedCached) &&
        !record.parity) {
      disk::Volume* volume = olfs_->buckets().volume(record.volume_index);
      const std::string name = CheckpointFileName(record.id);
      auto bytes = co_await volume->ReadAll(name);
      if (bytes.ok()) {
        auto image =
            udf::Serializer::Parse(MakeSharedBytes(std::move(*bytes)));
        if (image.ok()) {
          record.image =
              std::make_shared<udf::Image>(std::move(*image));
          record.logical_bytes = record.image->used_bytes();
        }
      }
      if (record.image == nullptr) {
        if (!record.disc.has_value()) {
          co_return DataLossError("image " + record.id +
                                  " lost: no checkpoint copy and not on "
                                  "any disc");
        }
        record.tier = ImageTier::kBurnedOnly;  // still safe on its disc
      }
    }
    // Parity images in the buffer cannot be reloaded (their bytes are
    // derived); regenerate by re-burning if needed, or keep disc copies.
    if (record.parity && !record.disc.has_value()) {
      continue;  // will be regenerated with its array's next burn
    }
    ROS_CO_RETURN_IF_ERROR(
        olfs_->images().RestoreRecord(std::move(record)));
  }
  co_return OkStatus();
}

sim::Task<StatusOr<RecoveryReport>> Maintenance::RebuildNamespace(
    std::vector<mech::TrayAddress> trays) {
  RecoveryReport report;
  MetadataVolume& mv = olfs_->mv();
  MechController& mech = olfs_->mech();
  DiscImageStore& images = olfs_->images();
  mv.WipeAll();
  olfs_->reader().DropDiscMounts();

  struct PartInfo {
    std::string image_id;
    std::uint64_t size = 0;
    int part = 0;
  };
  // (global path, version) -> parts.
  std::map<std::pair<std::string, int>, std::vector<PartInfo>> files;
  std::set<std::string> directories;

  for (const mech::TrayAddress& tray : trays) {
    olfs_->da_index().set_state(tray, ArrayState::kUsed);
    // ros-lint: allow(acquire-bay): namespace rebuild is a sequential
    // full-rack scan with no concurrent readers to batch against.
    auto bay = co_await mech.AcquireBay(tray, /*wait=*/true);
    if (!bay.ok()) {
      co_return bay.status();
    }
    if (mech.bay_tray(*bay).has_value() &&
        *mech.bay_tray(*bay) != tray) {
      Status status = co_await mech.UnloadArray(*bay);
      if (!status.ok()) {
        mech.ReleaseBay(*bay);
        co_return status;
      }
    }
    if (!mech.bay_tray(*bay).has_value()) {
      Status status = co_await mech.LoadArray(tray, *bay);
      if (!status.ok()) {
        mech.ReleaseBay(*bay);
        co_return status;
      }
    }

    for (int i = 0; i < mech::kDiscsPerTray; ++i) {
      ++report.discs_scanned;
      drive::OpticalDrive& drive = mech.drive_set(*bay).drive(i);
      if (!drive.has_disc() || drive.disc()->blank()) {
        continue;
      }
      Status mounted = co_await drive.MountVfs();
      if (!mounted.ok()) {
        ++report.unreadable_discs;
        continue;
      }
      for (const drive::Session& session : drive.disc()->sessions()) {
        if (session.image_id == "<metadata-zone>" || !session.closed) {
          continue;
        }
        auto stream = co_await drive.ReadImageStream(session.image_id);
        if (!stream.ok()) {
          ++report.unreadable_discs;
          continue;
        }
        // Parity discs carry raw parity of the serialized streams, not a
        // UDF volume (§4.7); register them without parsing.
        if (ParityIndexOf(session.image_id) >= 0) {
          (void)images.RegisterRecovered(session.image_id, true,
                                           mech::DiscAddress{tray, i},
                                           session.logical_size);
          continue;
        }
        // Parsed in place: the walk reads the disc session's bytes.
        auto parsed = udf::Serializer::Parse(stream->bytes, stream->owner);
        if (!parsed.ok()) {
          ++report.unreadable_discs;
          continue;
        }
        ++report.images_parsed;

        // Re-register the image with DIM as burned-only.
        (void)images.RegisterRecovered(session.image_id, false,
                                         mech::DiscAddress{tray, i},
                                         session.logical_size);
        parsed->Walk([&](const std::string& node_path,
                         const udf::Node& node) {
          ParsedInternalPath info = ParseInternalPath(node_path);
          if (info.global_path.rfind(std::string(
                  MetadataVolume::kSnapshotDir), 0) == 0) {
            return;  // MV snapshot content, not user namespace
          }
          switch (node.type) {
            case udf::NodeType::kDirectory:
              directories.insert(info.global_path);
              break;
            case udf::NodeType::kFile:
              files[{info.global_path, info.version}].push_back(
                  {session.image_id, node.logical_size, 0});
              break;
            case udf::NodeType::kLink:
              // "#prevK" link: the data node for part K sits in this
              // image; annotate it below by part number.
              for (auto& part : files[{info.global_path, info.version}]) {
                if (part.image_id == session.image_id) {
                  part.part = info.part;
                }
              }
              break;
          }
        });
      }
    }
    mech.ReleaseBay(*bay);
  }

  // Rebuild MV index files.
  for (const std::string& dir : directories) {
    ROS_CO_RETURN_IF_ERROR(
        co_await mv.Put(IndexFile(dir, EntryType::kDirectory)));
  }
  // Group versions per path and emit entries. `files` is ordered by
  // (path, version), so each path's versions arrive in ascending order.
  std::map<std::string, std::vector<std::pair<int, std::vector<PartInfo>>>>
      by_path;
  for (auto& [key, parts] : files) {
    std::sort(parts.begin(), parts.end(),
              [](const PartInfo& a, const PartInfo& b) {
                return a.part < b.part;
              });
    by_path[key.first].emplace_back(key.second, parts);
  }
  for (auto& [path, versions] : by_path) {
    IndexFile index(path, EntryType::kFile);
    for (int v = 1; v <= versions.back().first; ++v) {
      // Reconstruct missing intermediate versions as empty rings; only
      // versions found on discs become entries.
      auto it = std::find_if(versions.begin(), versions.end(),
                             [v](const auto& pair) {
                               return pair.first == v;
                             });
      VersionEntry entry;
      if (it != versions.end()) {
        entry.location = LocationKind::kDisc;
        for (const PartInfo& part : it->second) {
          entry.parts.push_back({part.image_id, part.size});
          entry.total_size += part.size;
        }
      } else {
        entry.tombstone = true;  // placeholder for a lost version
      }
      index.AddVersion(std::move(entry), kMaxVersionEntries);
      report.files_recovered += (it != versions.end()) ? 1 : 0;
    }
    ROS_CO_RETURN_IF_ERROR(co_await mv.Put(index));
  }
  co_return report;
}

}  // namespace ros::olfs
