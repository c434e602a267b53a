// Delayed parity generation and disc-array redundancy (§4.7).
//
// Parity disc images are generated only once all data images of an array
// are ready (never synchronously with user writes). The parity maker reads
// every data image's stripes from the disk buffer, computes P (XOR) and,
// for the RAID-6 schema, Q (GF(2^8) Reed-Solomon), and writes the parity
// images back — an I/O-intensive process that is one of the four
// concurrent streams §4.7 schedules across independent RAID volumes.
//
// Parity is computed for real over the serialized image byte streams
// (padded to the longest), so a lost disc is reconstructed bit-exactly by
// ParityBuilder::Recover.
#ifndef ROS_SRC_OLFS_PARITY_H_
#define ROS_SRC_OLFS_PARITY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

// Serialized parity payload carried on a parity disc.
struct ParityImage {
  std::string id;
  int index = 0;  // 0 = P, 1 = Q
  SharedBytes bytes;                    // real parity of serialized streams
  std::uint64_t logical_bytes = 0;      // disc footprint (max data image)
  std::vector<std::string> member_ids;  // the protected data images
};

class ParityBuilder {
 public:
  ParityBuilder(sim::Simulator& sim, const OlfsParams& params,
                DiscImageStore* images)
      : sim_(sim), params_(params), images_(images) {}

  // Builds the parity images for `data_ids`. Charges the disk-buffer I/O:
  // reading every data image from its volume and writing the parity images
  // to `parity_volume`. Registers the results with DIM.
  //
  // Single-pass: each member's cached stream (DiscImageStore::Stream, the
  // same bytes the burn and the audit later use) is swept exactly once by
  // the fused P+Q kernel, no matter how many parity images the schema asks
  // for. The returned ParityImages carry metadata only (null `bytes`); the
  // retained payload lives in the builder, is served by Get() and is
  // shared, not copied, with the parity disc's session.
  sim::Task<StatusOr<std::vector<ParityImage>>> Build(
      std::vector<std::string> data_ids,
      std::vector<disk::Volume*> data_volumes, int parity_volume_index);

  // Reconstructs one missing serialized data-image stream from the
  // survivors + parity streams. `missing_index` is the position of the
  // lost member within `member_streams` (which holds empty vectors at the
  // missing slots). Pure computation; the caller charges I/O.
  static StatusOr<std::vector<std::uint8_t>> Recover(
      const std::vector<std::vector<std::uint8_t>>& member_streams,
      const std::vector<std::vector<std::uint8_t>>& parity_streams,
      int missing_index);

  // Single loss with P unreadable: recovers one missing data stream from
  // the survivors plus the Q (Reed-Solomon) parity alone:
  //   D_j = (Q ^ sum_{i != j} g^i D_i) * g^-j.
  static StatusOr<std::vector<std::uint8_t>> RecoverOneFromQ(
      const std::vector<std::vector<std::uint8_t>>& member_streams,
      const std::vector<std::uint8_t>& q_stream, int missing_index);

  // RAID-6 schema (§4.7, 10+2): reconstructs TWO missing data streams
  // from the survivors plus both the P and Q parity streams. Returns the
  // pair in (missing_a, missing_b) order. Uses the standard Reed-Solomon
  // double-erasure solve over GF(2^8):
  //   D_a = (Q' ^ g^b P') / (g^a ^ g^b),  D_b = P' ^ D_a.
  static StatusOr<std::pair<std::vector<std::uint8_t>,
                            std::vector<std::uint8_t>>>
  RecoverTwo(const std::vector<std::vector<std::uint8_t>>& member_streams,
             const std::vector<std::uint8_t>& p_stream,
             const std::vector<std::uint8_t>& q_stream, int missing_a,
             int missing_b);

  // Retrieves the cached parity bytes for an id (kept by the builder until
  // burned; benches use this). O(1) via the id index.
  StatusOr<const ParityImage*> Get(const std::string& id) const;

  // Test hook: number of member-stream kernel sweeps performed by the most
  // recent Build(). Stays equal to the member count even when both P and Q
  // are generated (the fused kernel feeds both in one pass).
  int last_build_stream_passes() const { return last_build_stream_passes_; }

 private:
  sim::Simulator& sim_;
  OlfsParams params_;
  DiscImageStore* images_;
  int generation_ = 0;  // uniquifies parity ids across re-burns
  int last_build_stream_passes_ = 0;
  std::vector<ParityImage> built_;
  // id -> position in built_ (entries are never erased, so indices are
  // stable even as the vector reallocates).
  // ros_analyze: allow(unordered-member): point lookups by image id
  // only; enumeration walks built_ in insertion order.
  std::unordered_map<std::string, std::size_t> built_index_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_PARITY_H_
