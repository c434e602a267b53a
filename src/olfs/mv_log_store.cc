#include "src/olfs/mv_log_store.h"

#include <algorithm>
#include <span>

#include "src/sim/join.h"

namespace ros::olfs {

namespace {

// Key-space mapping. Namespace paths all start with '/', so index keys
// share the "i/" prefix and state keys the disjoint "s/" prefix, keeping
// both in one ordered keydir.
std::string IndexKey(const std::string& path) { return "i" + path; }
std::string StateKey(const std::string& key) { return "s/" + key; }

// Keys in the "i" domain (namespace indexes) count toward IndexCount();
// "s" keys (running state) do not. Replay sees keys from disk, so guard
// against empty/hostile ones.
bool IsIndexKey(const std::string& key) {
  return !key.empty() && key[0] == 'i';
}

// Background work that wakes to find the store reset (Wipe) or destroyed
// bails with this; it is recorded, never surfaced to callers.
Status AbortedErrorForReset() {
  return UnavailableError("mv: store reset during background work");
}

// One restore append that keeps its own status (sim::AllOk reports only
// the first failure of a window).
sim::Task<Status> AppendInto(MvLog* log, mvlog::Record record, Status* out) {
  *out = co_await log->Append(std::move(record));
  co_return OkStatus();
}

}  // namespace

// --- construction / destruction ---------------------------------------

LogMvStore::LogMvStore(sim::Simulator& sim, disk::Volume* volume,
                       MvDecodeCache* cache,
                       std::uint64_t memtable_flush_bytes,
                       std::size_t compact_min_segments,
                       std::size_t compact_fan_in)
    : sim_(sim), volume_(volume), cache_(cache),
      memtable_flush_bytes_(memtable_flush_bytes),
      compact_min_segments_(compact_min_segments),
      compact_fan_in_(compact_fan_in),
      log_(sim, volume),
      opened_(!volume->AnyWithPrefix(std::string(MvLog::kFilePrefix)) &&
              !volume->AnyWithPrefix(std::string(mvseg::kFilePrefix))),
      open_done_(sim), pin_cv_(sim) {}

LogMvStore::~LogMvStore() {
  // Detached flush/compaction frames that resume later see this and
  // return without touching the dead store.
  *alive_ = false;
}

// --- open / recovery ---------------------------------------------------

sim::Task<Status> LogMvStore::Open() {
  while (!opened_) {
    if (opening_) {
      co_await open_done_.Wait();
      continue;  // re-check; retry recovery ourselves if it failed
    }
    opening_ = true;
    Status status = co_await Recover();
    opening_ = false;
    open_done_.Pulse();
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return OkStatus();
}

sim::Task<Status> LogMvStore::Recover() {
  // Restartable: a failed attempt leaves partial replay state behind, so
  // every attempt begins from scratch.
  ResetState();

  // Segments first, in file-name order — "/mvseg.<rank>.<id>" sorts as
  // (rank, id), oldest data first, so newer records shadow older ones as
  // they apply. A damaged segment keeps its cleanly decoded prefix
  // (strictly better than dropping the file) and is counted.
  const std::vector<std::string> seg_names =
      volume_->List(std::string(mvseg::kFilePrefix));
  for (std::size_t i = 0; i < seg_names.size(); ++i) {
    const std::string name = seg_names[i];
    const auto parsed_name = mvseg::ParseSegmentFileName(name);
    if (!parsed_name.has_value()) {
      ++counters_.corrupt_segments;
      continue;
    }
    auto data = co_await volume_->ReadAll(name);
    if (!data.ok()) {
      co_return data.status();  // device-level failure, not media rot
    }
    SegmentPtr info = AddSegment(parsed_name->rank, parsed_name->id, name,
                                 0, data->size());
    segments_.push_back(info);
    Status parsed = mvseg::ParseSegment(
        std::span<const std::uint8_t>(data->data(), data->size()), nullptr,
        [this, &info](mvlog::Record record, std::uint64_t offset,
                      std::uint32_t length) {
          ++info->records_total;
          if (record.type == mvlog::RecordType::kRemove) {
            KeydirErase(record.key);
            return;
          }
          KeydirPut(record.key, KeyRef{info->id, offset, length});
          ++info->records_live;
        });
    if (!parsed.ok()) {
      ++counters_.corrupt_segments;
    }
    ++counters_.recovered_segments;
    next_rank_ = std::max(next_rank_, parsed_name->rank + 1);
    next_seg_id_ = std::max(next_seg_id_, parsed_name->id + 1);
  }

  // Then the WAL tail, oldest file first (names sort by sequence). The
  // first torn frame ends replay: group commit appends strictly FIFO, so
  // nothing beyond that point can be acked data. The torn tail is
  // truncated away and any later files are dropped.
  const std::vector<std::string> wal_names =
      volume_->List(std::string(MvLog::kFilePrefix));
  std::uint64_t max_seq = 0;
  std::uint64_t min_live_seq = 0;
  bool torn = false;
  for (std::size_t i = 0; i < wal_names.size(); ++i) {
    const std::string name = wal_names[i];
    const auto seq = MvLog::SeqOfFileName(name);
    if (!seq.has_value()) {
      continue;  // not a WAL file of ours
    }
    if (torn) {
      ROS_CO_RETURN_IF_ERROR(co_await volume_->Delete(name));
      continue;
    }
    max_seq = std::max(max_seq, *seq);
    if (min_live_seq == 0) {
      min_live_seq = *seq;
    }
    auto data = co_await volume_->ReadAll(name);
    if (!data.ok()) {
      co_return data.status();
    }
    const mvlog::ScanStats scan = mvlog::ScanRecords(
        std::span<const std::uint8_t>(data->data(), data->size()),
        [this](mvlog::Record record) {
          MemtableApply(record.key, std::move(record.value),
                        record.type == mvlog::RecordType::kRemove);
        });
    counters_.replayed_wal_records += scan.records;
    if (scan.torn) {
      torn = true;
      counters_.torn_tail_bytes += data->size() - scan.valid_bytes;
      ROS_CO_RETURN_IF_ERROR(co_await volume_->Truncate(name, scan.valid_bytes));
    }
  }

  // New appends continue in the newest surviving file; min_seq reaches
  // back to the oldest so the next flush's DeleteBelow reclaims them all.
  const std::uint64_t seq = max_seq > 0 ? max_seq : 1;
  log_.Reset(seq, min_live_seq > 0 ? min_live_seq : seq);
  opened_ = true;
  co_return OkStatus();
}

void LogMvStore::ResetState() {
  active_.clear();
  imm_.clear();
  imm_valid_ = false;
  memtable_bytes_ = 0;
  imm_bytes_ = 0;
  keydir_.clear();
  segments_.clear();
  segs_by_id_.clear();
  live_index_count_ = 0;
  next_rank_ = 1;
  next_seg_id_ = 1;
}

void LogMvStore::Wipe() {
  ++epoch_;  // in-flight background work aborts at its next check
  ResetState();
  log_.Reset(1, 1);
  opened_ = true;
  opening_ = false;
  open_done_.Pulse();
}

// --- memtable / keydir internals --------------------------------------

const LogMvStore::MemEntry* LogMvStore::FindMem(
    const std::string& key) const {
  auto it = active_.find(key);
  if (it != active_.end()) {
    return &it->second;
  }
  if (imm_valid_) {
    it = imm_.find(key);
    if (it != imm_.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

LogMvStore::SegmentPtr LogMvStore::AddSegment(std::uint64_t rank,
                                              std::uint64_t id,
                                              std::string file,
                                              std::uint64_t records_total,
                                              std::uint64_t bytes) {
  auto info = std::make_shared<SegmentInfo>(SegmentInfo{
      .rank = rank, .id = id, .file = std::move(file),
      .records_total = records_total, .bytes = bytes});
  segs_by_id_.emplace(id, info);
  return info;
}

void LogMvStore::DecLiveRef(const KeyRef& ref) {
  if (ref.seg_id == 0) {
    return;
  }
  auto it = segs_by_id_.find(ref.seg_id);
  if (it != segs_by_id_.end() && it->second->records_live > 0) {
    --it->second->records_live;
  }
}

void LogMvStore::MemtableApply(const std::string& key, std::string value,
                               bool tombstone) {
  // The key's cached decode (if any) describes the value being replaced.
  if (IsIndexKey(key)) {
    cache_->Erase(std::string_view(key).substr(1));
  }
  auto [it, inserted] = active_.try_emplace(key);
  if (!inserted) {
    memtable_bytes_ -= EntryBytes(key, it->second);
  }
  it->second.value = std::move(value);
  it->second.tombstone = tombstone;
  memtable_bytes_ += EntryBytes(key, it->second);
  if (tombstone) {
    KeydirErase(key);
  } else {
    KeydirPut(key, KeyRef{});
  }
}

void LogMvStore::KeydirPut(const std::string& key, KeyRef ref) {
  auto [it, inserted] = keydir_.try_emplace(key, ref);
  if (inserted) {
    live_index_count_ += IsIndexKey(key) ? 1 : 0;
  } else {
    DecLiveRef(it->second);
    it->second = ref;
  }
}

void LogMvStore::KeydirErase(const std::string& key) {
  auto it = keydir_.find(key);
  if (it == keydir_.end()) {
    return;
  }
  DecLiveRef(it->second);
  live_index_count_ -= IsIndexKey(key) ? 1 : 0;
  keydir_.erase(it);
}

// --- point reads and writes -------------------------------------------

sim::Task<StatusOr<MvStore::Value>> LogMvStore::ReadValue(std::string key) {
  const MemEntry* mem = FindMem(key);
  if (mem != nullptr) {
    if (mem->tombstone) {
      co_return NotFoundError("mv: no entry " + key);
    }
    // RAM-resident: a read charges nothing, and neither may a hit.
    co_return Value{mem->value, MvPlacement{}};
  }
  auto it = keydir_.find(key);
  if (it == keydir_.end()) {
    co_return NotFoundError("mv: no entry " + key);
  }
  const KeyRef ref = it->second;
  ROS_CHECK(ref.seg_id != 0);  // memtable-tier keys are in the memtable
  auto sit = segs_by_id_.find(ref.seg_id);
  ROS_CHECK(sit != segs_by_id_.end());
  SegmentPtr seg = sit->second;
  // Pin: the compactor retires a segment's file only once no point read
  // has it in flight.
  ++seg->pins;
  auto data = co_await volume_->Read(seg->file, ref.offset, ref.length);
  --seg->pins;
  if (seg->pins == 0) {
    pin_cv_.NotifyAll();
  }
  if (!data.ok()) {
    co_return data.status();
  }
  std::size_t frame = 0;
  auto record = mvlog::DecodeRecord(
      std::span<const std::uint8_t>(data->data(), data->size()), &frame);
  if (!record.ok()) {
    co_return record.status();  // bit rot: the record CRC caught it
  }
  Value value{std::move(record->value), std::nullopt};
  // Publishable only if the key still resolves to exactly the bytes we
  // read — no overwrite, flush, or compaction moved it during the wait.
  auto now_it = keydir_.find(key);
  if (now_it != keydir_.end() && now_it->second.seg_id == ref.seg_id &&
      now_it->second.offset == ref.offset && !seg->retired) {
    auto segments = volume_->MapFileRange(seg->file, ref.offset, ref.length);
    if (segments.ok()) {
      value.placement = MvPlacement{std::move(*segments), ref.seg_id};
    }
  }
  co_return value;
}

sim::Task<StatusOr<MvStore::Value>> LogMvStore::ReadIndex(std::string path) {
  return ReadValue(IndexKey(path));
}

sim::Task<Status> LogMvStore::PutIndex(std::string path, std::string doc,
                                       Publish publish) {
  const std::string key = IndexKey(path);
  MemtableApply(key, doc, false);
  // Write-through publish before suspending: the memtable already serves
  // this value, and any later mutation of the key drops the entry again.
  publish(MvPlacement{});
  mvlog::Record record{mvlog::RecordType::kPut, key, std::move(doc)};
  ROS_CO_RETURN_IF_ERROR(co_await log_.Append(std::move(record)));
  MaybeScheduleFlush();
  co_return OkStatus();
}

sim::Task<Status> LogMvStore::RemoveIndex(std::string path) {
  const std::string key = IndexKey(path);
  if (!keydir_.contains(key)) {
    co_return NotFoundError("mv: no entry " + key);
  }
  MemtableApply(key, "", true);
  mvlog::Record record{mvlog::RecordType::kRemove, key, ""};
  Status status = co_await log_.Append(std::move(record));
  MaybeScheduleFlush();
  co_return status;
}

sim::Task<std::vector<Status>> LogMvStore::RestoreIndexes(
    std::vector<std::pair<std::string, std::string>> entries) {
  std::vector<Status> results(entries.size());
  // Windowed WAL barriers: every append in a window joins one group
  // commit, so the restore pays one batched volume write per window
  // instead of a durability barrier per entry.
  std::vector<sim::Task<Status>> window;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string key = IndexKey(entries[i].first);
    MemtableApply(key, entries[i].second, false);
    window.push_back(AppendInto(
        &log_,
        mvlog::Record{mvlog::RecordType::kPut, key,
                      std::move(entries[i].second)},
        &results[i]));
    if (window.size() >= kRestoreWindow || i + 1 == entries.size()) {
      // Always OK: each append has landed its own status in `results`.
      (void)co_await sim::AllOk(sim_, std::move(window));
      window.clear();
      MaybeScheduleFlush();
    }
  }
  co_return results;
}

sim::Task<StatusOr<MvStore::Value>> LogMvStore::ReadState(std::string key) {
  return ReadValue(StateKey(key));
}

sim::Task<Status> LogMvStore::PutState(std::string key, std::string doc) {
  const std::string skey = StateKey(key);
  MemtableApply(skey, doc, false);
  mvlog::Record record{mvlog::RecordType::kPutState, skey, std::move(doc)};
  Status status = co_await log_.Append(std::move(record));
  MaybeScheduleFlush();
  co_return status;
}

// --- namespace views ---------------------------------------------------

std::uint64_t LogMvStore::IndexCount() const {
  // O(1): the keydir maintains the live count through every put, remove,
  // replay, and compaction.
  return opened_ ? live_index_count_ : 0;
}

std::optional<std::string> LogMvStore::NextPath(
    const std::string& from) const {
  if (!opened_) {  // a dirty store reports empty until recovery runs
    return std::nullopt;
  }
  auto it = keydir_.lower_bound(std::max<std::string>("i/", IndexKey(from)));
  if (it == keydir_.end() || !it->first.starts_with("i/")) {
    return std::nullopt;
  }
  return it->first.substr(1);  // strip the "i" domain tag
}

// --- background flush --------------------------------------------------

void LogMvStore::NoteBackgroundError(const Status& status) {
  if (!status.ok() && last_background_error_.ok()) {
    last_background_error_ = status;
  }
}

void LogMvStore::MaybeScheduleFlush() {
  if (flush_running_ || !opened_) {
    return;
  }
  if (memtable_bytes_ < memtable_flush_bytes_ && !imm_valid_) {
    return;
  }
  flush_running_ = true;
  sim_.Spawn(FlushTask(alive_));
}

sim::Task<void> LogMvStore::FlushTask(std::shared_ptr<const bool> alive) {
  Status status = co_await FlushOnce(alive);
  if (!*alive) {
    co_return;
  }
  flush_running_ = false;
  if (!status.ok()) {
    NoteBackgroundError(status);
    co_return;  // retried by the next mutation's MaybeScheduleFlush
  }
  MaybeScheduleFlush();  // the active memtable may already be over budget
  MaybeScheduleCompaction();
}

sim::Task<Status> LogMvStore::FlushOnce(std::shared_ptr<const bool> alive) {
  const std::uint64_t epoch = epoch_;
  if (!imm_valid_) {
    // Freeze: host-atomic swap of the active memtable plus a WAL rotation,
    // so the frozen generation's records stay in their own file(s).
    if (active_.empty()) {
      co_return OkStatus();
    }
    imm_ = std::move(active_);
    active_.clear();
    imm_valid_ = true;
    imm_bytes_ = memtable_bytes_;
    memtable_bytes_ = 0;
    log_.AdvanceSeq();
  }
  // Everything in the frozen generation must be durable in the WAL before
  // the segment claims it; this also keeps a straggling group commit from
  // resurrecting a WAL file that DeleteBelow just reclaimed.
  Status synced = co_await log_.Sync();
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(synced);

  // The frozen entries, in key order. Nothing mutates imm_ but this
  // single-flight flush, so it is stable across the suspensions below.
  const std::uint64_t rank = next_rank_++;
  const std::uint64_t id = next_seg_id_++;
  mvseg::SegmentBuilder builder(rank, id);
  for (const auto& [key, entry] : imm_) {
    builder.Add(mvlog::Record{
        entry.tombstone ? mvlog::RecordType::kRemove
                        : (key[0] == 's' ? mvlog::RecordType::kPutState
                                         : mvlog::RecordType::kPut),
        key, entry.value});
  }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> refs =
      builder.refs();
  const std::string file = mvseg::SegmentFileName(rank, id);
  std::vector<std::uint8_t> bytes = std::move(builder).Finish();
  const std::uint64_t seg_bytes = bytes.size();

  Status created = co_await volume_->Create(file);
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(created);
  std::vector<std::vector<std::uint8_t>> pieces;
  pieces.push_back(std::move(bytes));
  Status written = co_await volume_->AppendBatch(file, std::move(pieces));
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  if (!written.ok()) {
    Status cleanup = co_await volume_->Delete(file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    NoteBackgroundError(cleanup);
    co_return written;  // imm_ stays frozen; the next flush retries
  }

  // Publish (host-atomic): register the segment and repoint every key the
  // active memtable has not overwritten since the freeze.
  SegmentPtr info = AddSegment(rank, id, file, refs.size(), seg_bytes);
  segments_.push_back(info);  // fresh rank: sorts after every older segment
  std::size_t i = 0;
  for (const auto& [key, entry] : imm_) {
    const auto [offset, length] = refs[i++];
    // A tombstone's keydir entry is already gone; a newer write in the
    // active memtable shadows the record: dead on arrival, reclaimed by
    // compaction.
    if (entry.tombstone || active_.contains(key)) {
      continue;
    }
    auto kit = keydir_.find(key);
    if (kit != keydir_.end() && kit->second.seg_id == 0) {
      kit->second = KeyRef{id, offset, length};
      ++info->records_live;
    }
  }
  // Cached decodes of memtable-resident entries now have a segment-backed
  // miss cost; drop them so hit and miss charges stay identical.
  cache_->EraseSource(0);
  imm_.clear();
  imm_valid_ = false;
  imm_bytes_ = 0;
  ++counters_.memtable_flushes;

  // The frozen generation's WAL files are covered by the segment now.
  Status trimmed = co_await log_.DeleteBelow(log_.current_seq());
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  co_return trimmed;
}

// --- background compaction ---------------------------------------------

// A sealed segment is at the size cap with every record still live:
// merging it again cannot shrink anything, so it neither counts toward the
// size trigger nor gets picked as a merge input. (A retained tombstone or
// any overwritten record keeps records_live below records_total, which
// unseals the segment.)
bool LogMvStore::SealedSegment(const SegmentInfo& seg) {
  return seg.bytes >= kMaxSegmentBytes &&
         seg.records_live >= seg.records_total;
}

bool LogMvStore::CompactionNeeded() const {
  std::size_t foldable = 0;
  std::uint64_t total = 0;
  std::uint64_t live = 0;
  for (const SegmentPtr& seg : segments_) {
    foldable += SealedSegment(*seg) ? 0 : 1;
    total += seg->records_total;
    live += seg->records_live;
  }
  return foldable > compact_min_segments_ ||
         static_cast<double>(total - live) >
             kCompactGarbageRatio * static_cast<double>(total);
}

void LogMvStore::MaybeScheduleCompaction() {
  if (compact_running_ || !opened_ || !CompactionNeeded()) {
    return;
  }
  compact_running_ = true;
  sim_.Spawn(CompactTask(alive_));
}

sim::Task<void> LogMvStore::CompactTask(std::shared_ptr<const bool> alive) {
  Status status = co_await CompactOnce(alive);
  if (!*alive) {
    co_return;
  }
  compact_running_ = false;
  if (!status.ok()) {
    NoteBackgroundError(status);
    co_return;  // don't spin on a persistently failing merge
  }
  MaybeScheduleCompaction();  // keep folding until the trigger clears
}

sim::Task<Status> LogMvStore::CompactOnce(std::shared_ptr<const bool> alive) {
  const std::uint64_t epoch = epoch_;
  // Inputs are a CONTIGUOUS run in (rank, id) order, starting at the first
  // segment that merging can still shrink — the sealed prefix (full, fully
  // live) is skipped so a big store doesn't rewrite the same bytes forever.
  // Contiguity is what keeps replay order meaningful for the outputs.
  std::size_t start = 0;
  while (start < segments_.size() && SealedSegment(*segments_[start])) {
    ++start;
  }
  const std::size_t fan_in =
      std::min(compact_fan_in_, segments_.size() - start);
  if (fan_in == 0) {
    co_return OkStatus();
  }
  // Tombstones may be dropped only when the run starts at the oldest
  // segment: then nothing older is left for them to shadow. Otherwise they
  // are rewritten into the outputs (still dead weight, which keeps the
  // output unsealed until a later oldest-prefix run retires them).
  const bool drop_tombstones = start == 0;
  std::vector<SegmentPtr> inputs(segments_.begin() + start,
                                 segments_.begin() + start + fan_in);

  std::vector<std::vector<mvlog::Record>> runs(inputs.size());
  std::vector<std::vector<std::uint64_t>> offsets(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto data = co_await volume_->ReadAll(inputs[i]->file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!data.ok()) {
      co_return data.status();
    }
    Status parsed = mvseg::ParseSegment(
        std::span<const std::uint8_t>(data->data(), data->size()), nullptr,
        [&runs, &offsets, i](mvlog::Record record, std::uint64_t offset,
                             std::uint32_t) {
          runs[i].push_back(std::move(record));
          offsets[i].push_back(offset);
        });
    if (!parsed.ok()) {
      // Corrupted underneath us (external poke). Leave the store alone;
      // point reads surface kDataLoss per record, recovery handles rest.
      co_return parsed;
    }
  }

  // Newest run wins per key; liveness-filter against the keydir so dead
  // records are dropped instead of rewritten.
  struct OutRecord {
    mvlog::Record record;
    std::uint64_t src_seg = 0;
    std::uint64_t src_offset = 0;
  };
  std::vector<OutRecord> merged;
  mvseg::MergeSortedRuns(
      std::move(runs), drop_tombstones,
      [this, &inputs, &offsets, &merged](mvlog::Record record, std::size_t run,
                                         std::size_t index) {
        const std::uint64_t seg = inputs[run]->id;
        const std::uint64_t offset = offsets[run][index];
        // A tombstone surfaces only when the run does not start at the
        // oldest segment: an older one may still hold a record it shadows,
        // so it is kept (the keydir has no entry for it).
        if (record.type != mvlog::RecordType::kRemove) {
          auto kit = keydir_.find(record.key);
          if (kit == keydir_.end() || kit->second.seg_id != seg ||
              kit->second.offset != offset) {
            return;  // dead: overwritten or removed since it was flushed
          }
        }
        merged.push_back(OutRecord{std::move(record), seg, offset});
      });

  // Serialize outputs (split at kMaxSegmentBytes; same rank as the oldest
  // input so recovery replays them in the inputs' position).
  const std::uint64_t out_rank = inputs.front()->rank;
  struct OutSeg {
    std::uint64_t id = 0;
    std::string file;
    std::vector<std::uint8_t> bytes;
    std::uint64_t byte_size = 0;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> refs;
    std::size_t first_record = 0;
    std::size_t record_count = 0;
  };
  std::vector<OutSeg> outs;
  std::size_t at = 0;
  while (at < merged.size()) {
    const std::uint64_t id = next_seg_id_++;
    mvseg::SegmentBuilder builder(out_rank, id);
    const std::size_t first = at;
    while (at < merged.size() &&
           (builder.count() == 0 || builder.bytes() < kMaxSegmentBytes)) {
      builder.Add(merged[at].record);
      ++at;
    }
    OutSeg out;
    out.id = id;
    out.file = mvseg::SegmentFileName(out_rank, id);
    out.refs = builder.refs();
    out.first_record = first;
    out.record_count = at - first;
    out.bytes = std::move(builder).Finish();
    out.byte_size = out.bytes.size();
    outs.push_back(std::move(out));
  }

  // Write every output before touching shared state: readers keep using
  // the inputs, and a crash here just leaves extra files that recovery
  // replays idempotently (same rank, higher id).
  for (std::size_t i = 0; i < outs.size(); ++i) {
    Status created = co_await volume_->Create(outs[i].file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    Status written = created;
    if (created.ok()) {
      std::vector<std::vector<std::uint8_t>> pieces;
      pieces.push_back(std::move(outs[i].bytes));
      written = co_await volume_->AppendBatch(outs[i].file, std::move(pieces));
      if (!*alive || epoch_ != epoch) {
        co_return AbortedErrorForReset();
      }
    }
    if (!written.ok()) {
      // Unwind partial outputs; the inputs remain authoritative.
      for (std::size_t j = 0; j <= i; ++j) {
        Status cleanup = co_await volume_->Delete(outs[j].file);
        if (!*alive || epoch_ != epoch) {
          co_return AbortedErrorForReset();
        }
        NoteBackgroundError(cleanup);
      }
      co_return written;
    }
  }

  // Swap (host-atomic): unlink inputs, link outputs, repoint still-live
  // keys. Records that died while the outputs were being written simply
  // stay dead — the re-check is against the keydir's current refs.
  // Concurrent flushes only ever append newer segments, so the input run
  // is still where it was.
  ROS_CHECK(segments_.size() >= start + inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ROS_CHECK(segments_[start + i].get() == inputs[i].get());
  }
  segments_.erase(segments_.begin() + start,
                  segments_.begin() + start + inputs.size());
  std::vector<SegmentPtr> out_infos;
  out_infos.reserve(outs.size());
  for (const OutSeg& out : outs) {
    out_infos.push_back(AddSegment(out_rank, out.id, out.file,
                                   out.record_count, out.byte_size));
  }
  segments_.insert(segments_.begin(), out_infos.begin(), out_infos.end());
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentPtr& a, const SegmentPtr& b) {
              return a->rank != b->rank ? a->rank < b->rank : a->id < b->id;
            });
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const OutSeg& out = outs[o];
    const SegmentPtr& info = out_infos[o];
    for (std::size_t r = 0; r < out.record_count; ++r) {
      const OutRecord& src = merged[out.first_record + r];
      auto kit = keydir_.find(src.record.key);
      if (kit != keydir_.end() && kit->second.seg_id == src.src_seg &&
          kit->second.offset == src.src_offset) {
        kit->second = KeyRef{out.id, out.refs[r].first, out.refs[r].second};
        ++info->records_live;
      }
    }
  }
  for (const SegmentPtr& input : inputs) {
    input->retired = true;
    cache_->EraseSource(input->id);
    segs_by_id_.erase(input->id);
  }

  // Retire input files once in-flight point reads drain.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    while (inputs[i]->pins > 0) {
      co_await pin_cv_.Wait();
      if (!*alive || epoch_ != epoch) {
        co_return AbortedErrorForReset();
      }
    }
    Status unlink = co_await volume_->Delete(inputs[i]->file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    NoteBackgroundError(unlink);
  }
  ++counters_.compactions;
  counters_.segments_deleted += inputs.size();
  co_return OkStatus();
}

// --- observer and stats ------------------------------------------------

void LogMvStore::OnVolumeMutation(const std::string& name,
                                  disk::Volume::MutationKind) {
  // The store's own WAL/segment writes can't stale a cached decode (the
  // flush/compaction paths invalidate by segment id themselves), but an
  // external poke at a segment file — corruption tests writing through
  // the volume — must drop every decode backed by it.
  if (!name.starts_with(mvseg::kFilePrefix)) {
    return;
  }
  for (const SegmentPtr& seg : segments_) {
    if (seg->file == name) {
      cache_->EraseSource(seg->id);
      return;
    }
  }
}

MvStoreStats LogMvStore::Stats() const {
  MvStoreStats stats = counters_;
  stats.log_structured = true;
  stats.wal = log_.stats();
  stats.memtable_entries = active_.size() + (imm_valid_ ? imm_.size() : 0);
  stats.memtable_bytes = memtable_bytes_ + (imm_valid_ ? imm_bytes_ : 0);
  stats.segment_count = segments_.size();
  for (const SegmentPtr& seg : segments_) {
    stats.segment_records_total += seg->records_total;
    stats.segment_records_live += seg->records_live;
    stats.segment_bytes += seg->bytes;
  }
  return stats;
}

}  // namespace ros::olfs
