#include "src/olfs/scrub.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/udf/serializer.h"

namespace ros::olfs {

sim::Task<StatusOr<drive::StreamView>> ScrubManager::ReadBack(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(
      FetchLease lease,
      co_await olfs_->fetches().FetchDiscBackground(image_id));
  // The full-stream optical read is also what advances the media aging
  // clock on the disc (OpticalDrive::Read).
  co_return co_await lease.drive()->ReadImageStream(std::move(image_id));
}

sim::Task<StatusOr<ScrubPassReport>> ScrubManager::RunPass() {
  ScrubPassReport report;
  // Snapshot the burned population grouped by tray; arrays burned while
  // the pass runs (including our own refresh burns) wait for the next one.
  std::map<int, std::vector<std::string>> by_tray;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    auto record = olfs_->images().Lookup(id);
    if (!record.ok() || !(*record)->disc.has_value()) {
      continue;
    }
    const mech::TrayAddress tray = (*record)->disc->tray;
    // Retired arrays (WORM media already refreshed elsewhere) keep stale
    // records around; they are dead weight, not scrub targets.
    if (olfs_->da_index().state(tray) == ArrayState::kFailed) {
      continue;
    }
    by_tray[tray.ToIndex()].push_back(id);
  }
  const std::vector<std::pair<int, std::vector<std::string>>> arrays(
      by_tray.begin(), by_tray.end());

  bool staged = false;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const int tray_index = arrays[a].first;
    const std::vector<std::string> members = arrays[a].second;
    ++report.arrays;
    std::vector<std::string> damaged;
    double max_age_years = 0.0;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::string id = members[k];
      auto record = olfs_->images().Lookup(id);
      if (record.ok() && (*record)->disc.has_value()) {
        max_age_years = std::max(
            max_age_years,
            olfs_->mech().DiscAt(*(*record)->disc)->AgeYears(sim_.now()));
      }
      auto scanned = co_await ReadBack(id);
      ++report.images;
      if (scanned.ok()) {
        report.bytes += scanned->bytes.size();
        scrubbed_bytes_ += scanned->bytes.size();
      } else if (scanned.status().code() == StatusCode::kDataLoss) {
        damaged.push_back(id);
      } else {
        ROS_LOG(kWarning) << "scrub could not reach " << id << ": "
                          << scanned.status().ToString();
      }
    }

    const OlfsParams& params = olfs_->params();
    const bool age_refresh = params.refresh_age_years > 0 &&
                             max_age_years >= params.refresh_age_years;
    const bool damage_refresh =
        !damaged.empty() && params.scrub_refresh_enabled;
    if (damage_refresh || age_refresh) {
      Status status =
          co_await RefreshArray(tray_index, members, damaged, &report);
      if (status.ok()) {
        staged = true;
      } else {
        ROS_LOG(kWarning) << "refresh of tray " << tray_index
                          << " failed: " << status.ToString();
      }
    } else if (!damaged.empty()) {
      // Repair-only mode (scrub_refresh_enabled=false): rebuild damaged
      // data members from parity; the rest of the array stays put.
      for (std::size_t k = 0; k < damaged.size(); ++k) {
        const std::string id = damaged[k];
        auto record = olfs_->images().Lookup(id);
        if (!record.ok() || (*record)->parity) {
          continue;  // lone parity damage is healed by the next refresh
        }
        Status status = co_await RecoverAndRepairImage(id);
        if (status.ok()) {
          ++scrub_repairs_;
          ++report.repairs;
          staged = true;
        } else {
          ROS_LOG(kWarning) << "scrub repair of " << id
                            << " failed: " << status.ToString();
        }
      }
    }
  }

  if (staged) {
    // Push every re-staged image through the burn pipeline so the pass
    // ends with the rack fully burned (and fresh audit manifests built).
    ROS_CO_RETURN_IF_ERROR(co_await olfs_->FlushAndDrain());
  }
  ++passes_;
  co_return report;
}

sim::Task<Status> ScrubManager::RefreshArray(
    int tray_index, std::vector<std::string> member_ids,
    std::vector<std::string> damaged, ScrubPassReport* report) {
  const OlfsParams& params = olfs_->params();
  if (params.generation_migration_enabled && !migrated_) {
    migrated_ = true;
    olfs_->mech().set_media_type(params.migration_disc_type);
    ROS_LOG(kInfo) << "generation migration: refresh burns now land on "
                      "the next media generation";
  }
  for (std::size_t k = 0; k < member_ids.size(); ++k) {
    const std::string id = member_ids[k];
    auto record = olfs_->images().Lookup(id);
    if (!record.ok() || (*record)->parity) {
      continue;  // parity is regenerated when the new array burns
    }
    const bool is_damaged =
        std::find(damaged.begin(), damaged.end(), id) != damaged.end();
    Status status;
    if (is_damaged) {
      status = co_await RecoverAndRepairImage(id);
    } else {
      status = co_await RefreshImage(id);
    }
    if (!status.ok()) {
      if (status.code() == StatusCode::kDataLoss) {
        // Unrecoverable member: acked loss the survival accounting will
        // surface. The rest of the array still migrates.
        ROS_LOG(kWarning) << "member " << id << " of tray " << tray_index
                          << " is unrecoverable: " << status.ToString();
        continue;
      }
      co_return status;
    }
    ++refresh_burns_;
    ++report->refresh_burns;
    if (is_damaged) {
      ++scrub_repairs_;
      ++report->repairs;
    }
  }
  const mech::TrayAddress tray = mech::TrayAddress::FromIndex(tray_index);
  Status retired = co_await olfs_->audit().RetireTray(tray);
  if (!retired.ok()) {
    ROS_LOG(kWarning) << "retiring audit manifest of tray " << tray_index
                      << " failed: " << retired.ToString();
  }
  // WORM media cannot be reused; mark the old array failed so the
  // allocator never hands it out again.
  olfs_->da_index().set_state(tray, ArrayState::kFailed);
  ++arrays_refreshed_;
  ++report->arrays_refreshed;
  co_return OkStatus();
}

sim::Task<StatusOr<int>> ScrubManager::ScrubAndRepair() {
  int repaired = 0;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    auto record = olfs_->images().Lookup(id);
    if (!record.ok() || !(*record)->disc.has_value() || (*record)->parity) {
      continue;
    }
    drive::Disc* disc = olfs_->mech().DiscAt(*(*record)->disc);
    if (disc->ScrubForErrors().empty()) {
      continue;
    }
    ROS_LOG(kInfo) << "scrub found sector errors on "
                   << (*record)->disc->ToString() << "; repairing " << id;
    ROS_CO_RETURN_IF_ERROR(co_await RecoverAndRepairImage(id));
    ++repaired;
  }
  co_return repaired;
}

sim::Task<Status> ScrubManager::RecoverAndRepairImage(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(std::shared_ptr<udf::Image> image,
                          co_await RecoverImage(image_id));
  co_return co_await RepairImage(std::move(image_id), std::move(image));
}

sim::Task<Status> ScrubManager::RefreshImage(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          olfs_->images().Lookup(image_id));
  if (record->parity) {
    co_return InvalidArgumentError(
        "parity images are regenerated at burn time, not refreshed");
  }
  if (record->tier != ImageTier::kBurnedCached &&
      record->tier != ImageTier::kBurnedOnly) {
    co_return FailedPreconditionError("image " + image_id +
                                      " is not burned; nothing to refresh");
  }
  // Fast path: a still-cached (or still-mounted) image needs no optical
  // read — the refresh burn re-stages the in-memory copy.
  std::shared_ptr<udf::Image> image = record->image;
  if (image == nullptr) {
    image = olfs_->reader().DiscMount(image_id);
  }
  if (image == nullptr) {
    // Disc-to-disc path: read the stream off the old media through the
    // scheduler's background class and parse it in place, falling back to
    // parity reconstruction when the old media is already too rotten to
    // read.
    auto stream = co_await ReadBack(image_id);
    if (stream.ok()) {
      auto parsed = udf::Serializer::Parse(stream->bytes, stream->owner);
      if (!parsed.ok()) {
        co_return DataLossError("refresh read of " + image_id +
                                " failed CRC");
      }
      image = std::make_shared<udf::Image>(std::move(*parsed));
    }
  }
  if (image == nullptr) {
    ROS_CO_ASSIGN_OR_RETURN(image, co_await RecoverImage(image_id));
  }
  co_return co_await RepairImage(std::move(image_id), std::move(image));
}

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> ScrubManager::RecoverImage(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> recovered,
                          co_await ReconstructFromParity(image_id));
  auto image = udf::Serializer::Parse(MakeSharedBytes(std::move(recovered)));
  if (!image.ok()) {
    co_return DataLossError("parity recovery failed CRC for " + image_id);
  }
  ++reconstructions_;
  co_return std::make_shared<udf::Image>(std::move(*image));
}

sim::Task<StatusOr<std::vector<std::uint8_t>>>
ScrubManager::ReconstructFromParity(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          olfs_->images().Lookup(image_id));
  // Gather surviving member streams + the parity stream(s). A member
  // whose own media turns out damaged (kDataLoss) is added to the missing
  // set rather than failing the recovery: under the RAID-6 schema a
  // second data loss degrades to the double-erasure solve, and a damaged
  // parity stream just drops out of the available set (§4.7).
  const std::vector<std::string> members = record->array_members;
  if (members.empty()) {
    co_return DataLossError("no parity membership recorded for " + image_id);
  }
  // Data members keep their order as data-stream indices; the parity
  // members (appended last) fill the P and Q slots. Each view borrows its
  // disc session's bytes and keeps them alive, so the solve below copies
  // no surviving stream.
  std::vector<drive::StreamView> views(members.size());
  std::vector<ByteSpan> data_streams;
  ByteSpan parity_streams[2];            // P, Q
  bool have_parity[2] = {false, false};
  std::vector<int> missing_data;         // data-stream indices of lost members
  int requested_data_index = -1;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const std::string member = members[k];
    const int parity = ParityIndexOf(member);
    const int data_index = static_cast<int>(data_streams.size());
    if (parity < 0) {
      data_streams.emplace_back();
      if (member == image_id) {
        requested_data_index = data_index;
      }
    }
    bool readable = false;
    auto lookup = olfs_->images().Lookup(member);
    if (member != image_id && lookup.ok() && (*lookup)->disc.has_value()) {
      ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                              co_await olfs_->fetches().FetchDisc(member));
      auto stream = co_await lease.drive()->ReadImageStream(member);
      lease.Release();
      if (stream.ok()) {
        views[k] = std::move(*stream);
        readable = true;
      } else if (stream.status().code() != StatusCode::kNotFound &&
                 stream.status().code() != StatusCode::kDataLoss) {
        co_return stream.status();  // mech trouble, not media rot
      }
    }
    if (parity >= 0) {
      parity_streams[parity] = views[k].bytes;
      have_parity[parity] = readable;
    } else if (readable) {
      data_streams[static_cast<std::size_t>(data_index)] = views[k].bytes;
    } else {
      missing_data.push_back(data_index);
    }
  }
  if (requested_data_index < 0) {
    co_return InternalError("corrupted image not in its own array");
  }
  if (missing_data.size() == 1) {
    if (have_parity[0]) {
      co_return ParityBuilder::Recover(data_streams, parity_streams[0],
                                       missing_data[0]);
    }
    if (have_parity[1]) {
      // P rotted along with the data member; the Reed-Solomon parity
      // alone still solves a single erasure.
      co_return ParityBuilder::RecoverOneFromQ(
          data_streams, parity_streams[1], missing_data[0]);
    }
    co_return DataLossError("parity of " + image_id + " unreadable");
  }
  if (missing_data.size() == 2 && have_parity[0] && have_parity[1]) {
    ROS_CO_ASSIGN_OR_RETURN(
        auto pair,
        ParityBuilder::RecoverTwo(data_streams, parity_streams[0],
                                  parity_streams[1], missing_data[0],
                                  missing_data[1]));
    co_return requested_data_index == missing_data[0]
                  ? std::move(pair.first)
                  : std::move(pair.second);
  }
  co_return DataLossError(
      "array of " + image_id + " lost " +
      std::to_string(missing_data.size()) +
      " data members; beyond what the available parity can recover");
}

sim::Task<Status> ScrubManager::RepairImage(
    std::string image_id, std::shared_ptr<udf::Image> image) {
  // The recovered data re-enters the write path (staged back into the
  // disk buffer) and will burn onto a fresh disc array (§4.7).
  const std::string suffix =
      "#repair" + std::to_string(repaired_generation_++);
  ROS_CO_ASSIGN_OR_RETURN(
      std::string file,
      co_await olfs_->buckets().StageFromDisc(image_id, suffix,
                                              image->used_bytes()));
  ROS_CO_RETURN_IF_ERROR(olfs_->images().ReopenForRepair(
      image_id, std::move(image), BucketManager::kRestageVolume, file));
  olfs_->reader().DropDiscMount(image_id);
  ++images_repaired_;
  olfs_->burns().NotifyImageClosed(image_id);
  co_return OkStatus();
}

sim::Task<StatusOr<AuditReport>> ScrubManager::RunAudit(
    double sample_fraction, std::uint64_t seed) {
  AuditReport report;
  ROS_CO_ASSIGN_OR_RETURN(std::vector<AuditManifest> manifests,
                          co_await olfs_->audit().LoadManifests());
  for (std::size_t m = 0; m < manifests.size(); ++m) {
    ++report.manifests;
    const std::uint64_t leaf_bytes = manifests[m].leaf_bytes;
    if (leaf_bytes == 0) {
      continue;
    }
    for (std::size_t j = 0; j < manifests[m].members.size(); ++j) {
      const AuditMember member = manifests[m].members[j];
      report.stored_bytes += member.stream_bytes;
      if (member.leaves.empty()) {
        continue;
      }
      auto lookup = olfs_->images().Lookup(member.image_id);
      if (!lookup.ok() || !(*lookup)->disc.has_value()) {
        continue;  // re-staged mid-refresh; its new burn gets a new tree
      }
      ++report.members;
      // Deterministic per-member sample of >=1 leaf.
      const std::uint64_t n = member.leaves.size();
      std::uint64_t want = static_cast<std::uint64_t>(
          sample_fraction * static_cast<double>(n));
      want = std::min(n, std::max<std::uint64_t>(1, want));
      Rng rng(seed ^
              Fnv1a64({reinterpret_cast<const std::uint8_t*>(
                           member.image_id.data()),
                       member.image_id.size()}));
      std::set<std::uint64_t> chosen;
      for (std::uint64_t i = 0; i < want; ++i) {
        chosen.insert(rng.Below(n));
      }
      const std::vector<std::uint64_t> leaves(chosen.begin(), chosen.end());

      auto lease =
          co_await olfs_->fetches().FetchDiscBackground(member.image_id);
      if (!lease.ok()) {
        ROS_LOG(kWarning) << "audit could not fetch " << member.image_id
                          << ": " << lease.status().ToString();
        continue;
      }
      std::uint64_t member_bad = 0;
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        const std::uint64_t leaf = leaves[i];
        const std::uint64_t offset = leaf * leaf_bytes;
        if (offset >= member.stream_bytes) {
          continue;
        }
        const std::uint64_t len =
            std::min(leaf_bytes, member.stream_bytes - offset);
        ++audit_leaves_sampled_;
        ++report.leaves_sampled;
        audit_bytes_read_ += len;
        report.bytes_read += len;
        auto bytes =
            co_await lease->drive()->Read(member.image_id, offset, len);
        if (!bytes.ok()) {
          if (bytes.status().code() == StatusCode::kDataLoss) {
            ++member_bad;  // rotten leaf: provable damage
          } else {
            ROS_LOG(kWarning) << "audit read of " << member.image_id
                              << " failed: " << bytes.status().ToString();
          }
          continue;
        }
        if (AuditHashLeaf(std::span<const std::uint8_t>(
                bytes->data(), bytes->size())) != member.leaves[leaf]) {
          ++member_bad;  // silent corruption: hash chain breaks
        }
      }
      lease->Release();
      if (member_bad > 0) {
        audit_mismatches_ += member_bad;
        report.mismatches += member_bad;
        report.damaged.push_back(member.image_id);
      }
    }
  }
  co_return report;
}

}  // namespace ros::olfs
