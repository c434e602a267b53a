#include "src/olfs/parity.h"

#include <algorithm>

#include "src/common/gf256.h"
#include "src/olfs/bucket_manager.h"

namespace ros::olfs {

namespace {

constexpr const char* kParitySuffix[] = {"-P", "-Q"};

}  // namespace

int ParityIndexOf(const std::string& image_id) {
  for (int p = 0; p < 2; ++p) {
    if (image_id.size() > 2 && image_id.ends_with(kParitySuffix[p])) {
      return p;
    }
  }
  return -1;
}

sim::Task<StatusOr<std::vector<ParityImage>>> ParityBuilder::Build(
    std::vector<std::string> data_ids,
    std::vector<disk::Volume*> data_volumes, int parity_volume_index) {
  if (data_ids.empty()) {
    co_return InvalidArgumentError("no data images");
  }

  // Fetch each member's cached stream and charge the buffer read of its
  // stripes.
  std::vector<SharedBytes> streams;
  streams.reserve(data_ids.size());
  std::uint64_t max_logical = 0;
  std::size_t max_stream = 0;
  for (const std::string& id : data_ids) {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record, images_->Lookup(id));
    if (record->image == nullptr) {
      co_return FailedPreconditionError("image " + id + " not buffered");
    }
    disk::Volume* volume = data_volumes.at(
        static_cast<std::size_t>(record->volume_index));
    auto size = volume->FileSize(record->volume_file);
    if (size.ok() && *size > 0) {
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->ReadDiscard(record->volume_file, 0, *size));
    }
    ROS_CO_ASSIGN_OR_RETURN(SharedBytes stream, images_->Stream(id));
    max_logical = std::max(max_logical, record->image->used_bytes());
    max_stream = std::max(max_stream, stream->size());
    streams.push_back(std::move(stream));
  }

  // Compute all parity images in ONE sweep over the member streams: the
  // fused kernel feeds P and Q simultaneously, so each serialized stream is
  // read exactly once regardless of params_.parity_images. Q uses the
  // Horner recurrence q = 2q ^ d, so members are fed last-to-first to end
  // up with Q = sum g^k d_k.
  const int num_parities = params_.parity_images;
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.emplace_back(max_stream, 0);  // P
  if (num_parities >= 2) {
    payloads.emplace_back(max_stream, 0);  // Q
  }
  last_build_stream_passes_ = 0;
  if (num_parities >= 2) {
    for (std::size_t k = streams.size(); k-- > 0;) {
      gf256::PQAcc(payloads[0], payloads[1], BytesOf(streams[k]));
      ++last_build_stream_passes_;
    }
  } else {
    for (const SharedBytes& stream : streams) {
      gf256::XorAcc(payloads[0], BytesOf(stream));
      ++last_build_stream_passes_;
    }
  }

  const int generation = generation_++;
  std::vector<ParityImage> parities;
  for (int p = 0; p < num_parities; ++p) {
    ParityImage parity;
    parity.index = p;
    parity.id = "par-" + std::to_string(generation) + "-" +
                data_ids.front() + kParitySuffix[p];
    parity.logical_bytes = max_logical;
    parity.member_ids = data_ids;

    // Write the parity image to its (ideally independent) volume.
    disk::Volume* volume = data_volumes.at(
        static_cast<std::size_t>(parity_volume_index) %
        data_volumes.size());
    const std::string file = BucketManager::VolumeFileName(parity.id);
    if (!volume->Exists(file)) {
      ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
    }
    // Real parity bytes are the serialized-stream parity; the disc
    // footprint matches the largest member image. The builder keeps the
    // one copy (served by Get()): the compute buffer moves into it, and
    // the buffer volume is only charged for the write.
    parity.bytes =
        MakeSharedBytes(std::move(payloads[static_cast<std::size_t>(p)]));
    ROS_CO_RETURN_IF_ERROR(co_await volume->ChargeAppend(
        file, parity.bytes->size(),
        std::max<std::uint64_t>(max_logical, parity.bytes->size())));
    ROS_CO_RETURN_IF_ERROR(images_->RegisterParity(
        parity.id, parity_volume_index % static_cast<int>(data_volumes.size()),
        file, parity.logical_bytes));

    // Callers get metadata; the payload stays with the builder.
    ParityImage summary;
    summary.id = parity.id;
    summary.index = parity.index;
    summary.logical_bytes = parity.logical_bytes;
    summary.member_ids = parity.member_ids;
    parities.push_back(std::move(summary));
    built_index_.emplace(parity.id, built_.size());
    built_.push_back(std::move(parity));
  }
  co_return parities;
}

StatusOr<std::vector<std::uint8_t>> ParityBuilder::Recover(
    std::span<const ByteSpan> member_streams, ByteSpan p_stream,
    int missing_index) {
  if (missing_index < 0 ||
      missing_index >= static_cast<int>(member_streams.size())) {
    return InvalidArgumentError("bad missing index");
  }
  // Single loss: P alone suffices.
  std::vector<std::uint8_t> out(p_stream.begin(), p_stream.end());
  for (std::size_t k = 0; k < member_streams.size(); ++k) {
    if (static_cast<int>(k) == missing_index) {
      if (!member_streams[k].empty()) {
        return InvalidArgumentError("missing slot must be empty");
      }
      continue;
    }
    if (member_streams[k].empty()) {
      return FailedPreconditionError(
          "two members missing; use Q-parity recovery per stream pair");
    }
    if (member_streams[k].size() > out.size()) {
      return InvalidArgumentError("member stream longer than parity");
    }
    gf256::XorAcc(out, member_streams[k]);
  }
  // Trim zero padding down to the serialized anchor; the UDF parser
  // validates the CRC, so callers parse the full buffer safely.
  return out;
}

StatusOr<std::vector<std::uint8_t>> ParityBuilder::RecoverOneFromQ(
    std::span<const ByteSpan> member_streams, ByteSpan q_stream,
    int missing_index) {
  const int n = static_cast<int>(member_streams.size());
  if (missing_index < 0 || missing_index >= n) {
    return InvalidArgumentError("bad missing index");
  }
  if (!member_streams[missing_index].empty()) {
    return InvalidArgumentError("missing slot must be empty");
  }
  // Q' = Q ^ sum(g^i D_i) over the survivors leaves g^j D_j.
  std::vector<std::uint8_t> out(q_stream.begin(), q_stream.end());
  for (int k = 0; k < n; ++k) {
    if (k == missing_index) {
      continue;
    }
    if (member_streams[k].empty()) {
      return FailedPreconditionError(
          "two members missing; use the P+Q double-erasure solve");
    }
    if (member_streams[k].size() > out.size()) {
      return InvalidArgumentError("member stream longer than parity");
    }
    gf256::MulAcc(out, gf256::Pow2(static_cast<unsigned>(k)),
                  member_streams[k]);
  }
  gf256::Scale(out, gf256::Inv(gf256::Pow2(
                        static_cast<unsigned>(missing_index))));
  return out;
}

StatusOr<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>>
ParityBuilder::RecoverTwo(std::span<const ByteSpan> member_streams,
                          ByteSpan p_stream, ByteSpan q_stream,
                          int missing_a, int missing_b) {
  const int n = static_cast<int>(member_streams.size());
  if (missing_a < 0 || missing_b < 0 || missing_a >= n || missing_b >= n ||
      missing_a == missing_b) {
    return InvalidArgumentError("bad missing indices");
  }
  if (missing_a > missing_b) {
    std::swap(missing_a, missing_b);
  }
  if (!member_streams[missing_a].empty() ||
      !member_streams[missing_b].empty()) {
    return InvalidArgumentError("missing slots must be empty");
  }
  if (p_stream.size() != q_stream.size()) {
    return InvalidArgumentError("P and Q streams differ in length");
  }
  // P' = P ^ sum(surviving D_i);  Q' = Q ^ sum(g^i D_i).
  std::vector<std::uint8_t> pp(p_stream.begin(), p_stream.end());
  std::vector<std::uint8_t> qp(q_stream.begin(), q_stream.end());
  for (int k = 0; k < n; ++k) {
    if (k == missing_a || k == missing_b) {
      continue;
    }
    if (member_streams[k].empty()) {
      return FailedPreconditionError("more than two members missing");
    }
    if (member_streams[k].size() > pp.size()) {
      return InvalidArgumentError("member stream longer than parity");
    }
    gf256::XorAcc(pp, member_streams[k]);
    gf256::MulAcc(qp, gf256::Pow2(static_cast<unsigned>(k)),
                  member_streams[k]);
  }
  const std::uint8_t ga = gf256::Pow2(static_cast<unsigned>(missing_a));
  const std::uint8_t gb = gf256::Pow2(static_cast<unsigned>(missing_b));
  std::vector<std::uint8_t> da(pp.size());
  std::vector<std::uint8_t> db(pp.size());
  gf256::SolveTwo(da, db, pp, qp, ga, gb);
  return std::pair{std::move(da), std::move(db)};
}

StatusOr<const ParityImage*> ParityBuilder::Get(const std::string& id) const {
  auto it = built_index_.find(id);
  if (it == built_index_.end()) {
    return NotFoundError("no parity image " + id);
  }
  return &built_[it->second];
}

}  // namespace ros::olfs
