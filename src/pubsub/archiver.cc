#include "pubsub/archiver.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace apollo {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegmentSuffix = ".wal";
constexpr const char* kQuarantineSuffix = ".corrupt";

Status IoError(const std::string& what, const std::string& path) {
  return Status(ErrorCode::kIoError, what + ": " + path);
}

// A segment file opened by path for one read. Reads are plain pread(2)
// into the caller's buffer, so nothing is allocated once the buffer has
// grown to a segment (segments are bounded by WalConfig::segment_bytes).
class SegmentFile {
 public:
  explicit SegmentFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~SegmentFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  bool ok() const { return fd_ >= 0; }

  // The file's length in bytes, or -1 when it cannot be read.
  off_t Size() const {
    struct stat st;
    return ::fstat(fd_, &st) == 0 ? st.st_size : -1;
  }

  // Reads bytes [offset, offset + size) into `buf`, which keeps its
  // capacity from read to read.
  bool Read(std::uint64_t offset, std::size_t size,
            std::vector<std::uint8_t>& buf) const {
    buf.resize(size);
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::pread(fd_, buf.data() + got, size - got,
                                static_cast<off_t>(offset + got));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  const int fd_;
};

// Writes all of data[0, size) at `offset`, resuming after a short write.
bool WriteAllAt(int fd, const std::uint8_t* data, std::size_t size,
                std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

Archiver<Sample>::Archiver(std::string path, WalConfig config)
    : path_(std::move(path)), config_(config) {
  // A segment must hold at least one record.
  config_.segment_bytes =
      std::max(config_.segment_bytes, wal::kHeaderSize + kFrameBytes);
  open_status_ = path_.empty() ? Status(ErrorCode::kInvalidArgument,
                                        "archive path is empty")
                               : Open();
  if (!open_status_.ok()) {
    segments_.clear();
    record_count_ = 0;
  }
}

Archiver<Sample>::~Archiver() {
  if (active_fd_ >= 0) ::close(active_fd_);
}

void Archiver<Sample>::set_fault_label(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  label_ = std::move(label);
}

std::string Archiver<Sample>::SegmentPathFor(std::uint64_t seq) const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), ".%06llu",
                static_cast<unsigned long long>(seq));
  return path_ + buf + kSegmentSuffix;
}

Status Archiver<Sample>::Open() {
  TRACE_SPAN("archiver.recover", path_);
  // Discover existing segments of this base path: `<name>.<seq>.wal`. The
  // directory is listed with readdir(3): every archiver in a directory
  // lists it on open, so N topics read it N times, and a path object per
  // entry made that listing most of a 256-topic set-up.
  const fs::path base(path_);
  const std::string prefix = base.filename().string() + ".";
  const fs::path dir =
      base.has_parent_path() ? base.parent_path() : fs::path(".");
  std::vector<std::pair<std::uint64_t, std::string>> found;
  if (DIR* listing = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(listing)) {
      const std::string_view name(entry->d_name);
      if (name.size() <= prefix.size() + 4) continue;
      if (!name.starts_with(prefix) || !name.ends_with(kSegmentSuffix)) {
        continue;
      }
      const std::string seq(
          name.substr(prefix.size(), name.size() - prefix.size() - 4));
      if (seq.find_first_not_of("0123456789") != std::string::npos) continue;
      found.emplace_back(std::strtoull(seq.c_str(), nullptr, 10),
                         (dir / name).string());
    }
    ::closedir(listing);
  }
  std::sort(found.begin(), found.end());

  // Recover each segment: keep the valid prefix, truncate torn/corrupt
  // tails in place, quarantine segments whose header does not parse.
  for (const auto& [seq, path] : found) {
    ++recovery_.segments_scanned;
    wal::ScanResult scan;
    Status status = RecoverFile(path, UINT64_MAX, scan);
    if (!status.ok()) return status;
    if (!scan.header_ok || scan.dropped_bytes > 0) {
      ++recovery_.corrupt_segments;
    }
    recovery_.bytes_truncated += scan.dropped_bytes;
    if (!scan.header_ok) {
      ++recovery_.quarantined_segments;
      continue;
    }
    recovery_.records_recovered += scan.records;
    GlobalTelemetry().archive_recovered_records.Inc(scan.records);
    segments_.push_back(
        Segment{seq, path, scan.records, scan.valid_bytes, nullptr});
    record_count_ += scan.records;
  }

  if (segments_.empty()) {
    segments_.push_back(Segment{1, SegmentPathFor(1), 0, 0, nullptr});
    return OpenActive(/*fresh=*/true);
  }
  return OpenActive(/*fresh=*/false);
}

Status Archiver<Sample>::RecoverFile(const std::string& path,
                                     std::uint64_t max_records,
                                     wal::ScanResult& scan) {
  const SegmentFile file(path);
  if (!file.ok()) return IoError("archive segment open failed", path);
  std::vector<std::uint8_t> buf;
  const off_t size = file.Size();
  if (size < 0 || !file.Read(0, static_cast<std::size_t>(size), buf)) {
    return IoError("archive segment read failed", path);
  }
  std::uint64_t kept = 0;
  std::uint64_t kept_bytes = wal::kHeaderSize;
  scan = wal::ScanBuffer(
      buf.data(), buf.size(),
      [&](const std::uint8_t* payload, std::uint32_t len) {
        if (kept == max_records) return;
        ++kept;
        kept_bytes = static_cast<std::uint64_t>(payload - buf.data()) + len;
      });
  if (scan.records > kept) {  // valid records past the ones counted
    scan.records = kept;
    scan.valid_bytes = kept_bytes;
    scan.dropped_bytes = buf.size() - kept_bytes;
    scan.clean = false;
  }
  TelemetryCounters& telemetry = GlobalTelemetry();
  if (!scan.header_ok) {
    // Unreadable as a WAL segment at all: move it aside so it never
    // poisons reads, but keep the bytes for forensics.
    std::error_code ec;
    fs::rename(path, path + kQuarantineSuffix, ec);
    if (ec) return IoError("archive quarantine failed", path);
    telemetry.archive_corrupt_segments.Inc();
    telemetry.archive_quarantined_segments.Inc();
    telemetry.archive_truncated_bytes.Inc(scan.dropped_bytes);
  } else if (scan.dropped_bytes > 0) {
    std::error_code ec;
    fs::resize_file(path, scan.valid_bytes, ec);
    if (ec) return IoError("archive truncate failed", path);
    telemetry.archive_corrupt_segments.Inc();
    telemetry.archive_truncated_bytes.Inc(scan.dropped_bytes);
  }
  return Status::Ok();
}

Status Archiver<Sample>::OpenActive(bool fresh) {
  Segment& seg = segments_.back();
  // Not O_APPEND: every write is a pwrite(2) at the segment's counted end,
  // which an existing segment's recovery has just cut the file to.
  active_fd_ = ::open(seg.path.c_str(),
                      O_WRONLY | O_CREAT | O_CLOEXEC | (fresh ? O_TRUNC : 0),
                      0666);
  if (active_fd_ < 0) {
    return IoError("archive segment open failed", seg.path);
  }
  if (fresh) {
    std::uint8_t header[wal::kHeaderSize];
    wal::EncodeHeader(header, kRecordBytes);
    if (!WriteAllAt(active_fd_, header, sizeof(header), 0)) {
      GlobalTelemetry().archive_write_errors.Inc();
      ::close(active_fd_);
      active_fd_ = -1;
      return IoError("archive header write failed", seg.path);
    }
    seg.bytes = wal::kHeaderSize;
  }
  return Status::Ok();
}

Status Archiver<Sample>::AppendBatch(const Record* records, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(records, n, retry_.max_attempts);
}

Status Archiver<Sample>::Append(std::uint64_t id, TimeNs timestamp,
                                const Sample& payload) {
  const Record rec = MakeRecord(id, timestamp, payload);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(&rec, 1, /*max_attempts=*/1);
}

Status Archiver<Sample>::AppendWithRetry(std::uint64_t id, TimeNs timestamp,
                                         const Sample& payload) {
  const Record rec = MakeRecord(id, timestamp, payload);
  return AppendBatch(&rec, 1);
}

Status Archiver<Sample>::AppendLocked(const Record* records, std::size_t n,
                                      int max_attempts) {
  if (!open_status_.ok()) {
    RecordFailures(open_status_, n);
    return open_status_;
  }
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  const std::string_view label = label_.empty() ? path_ : label_;
  Status first_error;
  std::size_t fired = n;
  int attempt = 1;
  for (std::size_t i = 0; i < n;) {
    const std::size_t room = std::min(n - i, ChunkRoom());
    std::size_t end = i;
    while (end < i + room && end != fired) {
      if (injector != nullptr) {
        auto action = injector->Evaluate(FaultSite::kArchiveWrite, label);
        if (action.has_value() && action->fails()) {
          fired = end;
          break;
        }
      }
      ++end;
    }
    Status status;
    if (end > i) {
      status = WriteChunk(records + i, end - i);
      if (status.ok()) {
        GlobalTelemetry().archive_writes.Inc(end - i);
        i = end;
        attempt = 1;
        continue;
      }
    } else {
      GlobalTelemetry().archive_write_errors.Inc();
      status = Status(ErrorCode::kIoError,
                      "injected archive write failure: " + path_);
      fired = n;
      end = i + 1;
    }
    // Records [i, end) failed this attempt: retry them, or give up.
    if (RetryableError(status.code()) && attempt < max_attempts) {
      GlobalTelemetry().archive_retries.Inc();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          JitteredBackoffForAttempt(retry_, attempt)));
      ++attempt;
      continue;
    }
    RecordFailures(status, end - i);
    if (first_error.ok()) first_error = status;
    i = end;
    attempt = 1;
  }
  return first_error;
}

void Archiver<Sample>::RecordFailures(const Status& status,
                                      std::size_t records) {
  failures_.fetch_add(records, std::memory_order_acq_rel);
  last_error_ = status;
  GlobalTelemetry().archive_write_failures.Inc(records);
}

Status Archiver<Sample>::Rotate() {
  TRACE_SPAN("archiver.rotate", path_);
  Status status = SyncActive();  // rotation is a durability barrier
  if (!status.ok()) return status;
  ::close(active_fd_);
  active_fd_ = -1;
  const std::uint64_t next_seq = segments_.back().seq + 1;
  segments_.push_back(
      Segment{next_seq, SegmentPathFor(next_seq), 0, 0, nullptr});
  status = OpenActive(/*fresh=*/true);
  if (!status.ok()) {
    // Re-open the previous segment so appends can continue there.
    segments_.pop_back();
    Status reopen = OpenActive(/*fresh=*/false);
    return reopen.ok() ? status : reopen;
  }
  GlobalTelemetry().archive_rotations.Inc();
  return Status::Ok();
}

Status Archiver<Sample>::SyncActive() {
  TRACE_SPAN("archiver.fsync");
  if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
    const std::string_view label = label_.empty() ? path_ : label_;
    if (auto action = injector->Evaluate(FaultSite::kArchiveFsync, label);
        action.has_value() && action->fails()) {
      GlobalTelemetry().archive_fsync_failures.Inc();
      return Status(ErrorCode::kIoError,
                    "injected archive fsync failure: " + path_);
    }
  }
  static obs::Histogram fsync_hist = obs::MetricsRegistry::Global().GetHistogram(
      "apollo_archive_fsync_duration_ns", "Archive segment fsync latency");
  const TimeNs fsync_start = RealClock::Instance().Now();
  if (::fsync(active_fd_) != 0) {
    GlobalTelemetry().archive_fsync_failures.Inc();
    GlobalTelemetry().archive_write_errors.Inc();
    return IoError("archive fsync failed", segments_.back().path);
  }
  fsync_hist.Record(RealClock::Instance().Now() - fsync_start);
  ++fsyncs_;
  GlobalTelemetry().archive_fsyncs.Inc();
  appends_since_sync_ = 0;
  return Status::Ok();
}

void Archiver<Sample>::RollbackActive(std::uint64_t offset) {
  // Cut the segment back to its pre-chunk length so the failed append
  // leaves no torn frame behind and a retry cannot duplicate bytes (the
  // retry writes at the same counted offset).
  (void)::ftruncate(active_fd_, static_cast<off_t>(offset));
}

bool Archiver<Sample>::RotationDue() const {
  const Segment& seg = segments_.back();
  return seg.records > 0 && seg.bytes + kFrameBytes > config_.segment_bytes;
}

std::size_t Archiver<Sample>::ChunkRoom() const {
  // A chunk never spans a rotation: it starts in the segment a per-record
  // append would use (a fresh one if the active segment is full) and ends
  // where the next record would no longer fit. Every segment holds at
  // least one record (see the constructor). Rotation also fsyncs, which
  // restarts the kEveryN count; fsync_every_n = 0 syncs every record.
  const bool rotate = RotationDue();
  const std::uint64_t bytes =
      rotate ? wal::kHeaderSize : segments_.back().bytes;
  std::uint64_t room = (config_.segment_bytes - bytes) / kFrameBytes;
  if (config_.fsync_policy == FsyncPolicy::kEveryN) {
    const std::uint64_t since = rotate ? 0 : appends_since_sync_;
    const std::uint64_t until_sync =
        std::max<std::uint64_t>(config_.fsync_every_n - since, 1);
    room = std::min(room, until_sync);
  }
  return static_cast<std::size_t>(room);
}

Status Archiver<Sample>::WriteChunk(const Record* records, std::size_t n) {
  if (active_fd_ < 0) return IoError("archive not open", path_);
  if (RotationDue()) {
    Status status = Rotate();
    if (!status.ok()) return status;
  }
  Segment& seg = segments_.back();
  const std::uint64_t offset = seg.bytes;
  // The chunk's frames are encoded into this thread's buffer and handed to
  // the OS with one pwrite(2) per buffer's worth, so only a real machine
  // failure (not process death) can lose an acknowledged append. The
  // fsync policy below controls power-loss durability. The buffer is per
  // thread rather than per archive, so its memory is bounded by the
  // writing threads, not by the number of topics.
  thread_local std::vector<std::uint8_t> buf;
  if (buf.empty()) buf.resize(kWriteBufferFrames * kFrameBytes);
  bool written = true;
  for (std::size_t i = 0; i < n && written;) {
    const std::size_t frames = std::min(n - i, kWriteBufferFrames);
    for (std::size_t f = 0; f < frames; ++f) {
      wal::EncodeRecord(buf.data() + f * kFrameBytes, &records[i + f],
                        kRecordBytes);
    }
    written = WriteAllAt(active_fd_, buf.data(), frames * kFrameBytes,
                         offset + i * kFrameBytes);
    i += frames;
  }
  if (!written) {
    GlobalTelemetry().archive_write_errors.Inc();
    RollbackActive(offset);
    return IoError("archive write failed", seg.path);
  }
  ++flushes_;
  const std::uint64_t bytes = n * kFrameBytes;
  seg.bytes += bytes;
  seg.records += n;
  record_count_ += n;
  appends_since_sync_ += n;

  if (config_.fsync_policy == FsyncPolicy::kEveryN &&
      appends_since_sync_ >= config_.fsync_every_n) {
    Status status = SyncActive();
    if (!status.ok()) {
      // The chunk is not durably acknowledged: roll it back so the
      // caller's retry appends it exactly once.
      RollbackActive(offset);
      seg.bytes -= bytes;
      seg.records -= n;
      record_count_ -= n;
      appends_since_sync_ -= n;
      return status;
    }
  }
  return Status::Ok();
}

template <typename Visit>
Status Archiver<Sample>::VisitSegments(std::size_t first, TimeNs from_ts,
                                       TimeNs to_ts, const SummaryOffer& offer,
                                       Visit&& visit, WalVisitStats& stats) {
  if (!open_status_.ok()) return open_status_;
  TelemetryCounters& telemetry = GlobalTelemetry();
  // Every read on this thread reuses one segment buffer. It is per thread
  // rather than per archive, so its memory is bounded by the reading
  // threads, not by the number of topics; no callback may start another
  // archive read.
  thread_local std::vector<std::uint8_t> buf;
  for (std::size_t i = first; i < segments_.size(); ++i) {
    Segment& seg = segments_[i];
    const SegmentFile file(seg.path);
    if (!file.ok()) return IoError("archive segment open failed", seg.path);
    const off_t size = file.Size();
    if (size < 0 || static_cast<std::uint64_t>(size) < seg.bytes) {
      // The file lost bytes since they were counted (external tampering
      // or bit rot): the records past its end are gone.
      return Status(ErrorCode::kIoError,
                    "archive segment lost records on re-read: " + seg.path);
    }
    const std::uint64_t verified =
        seg.summary != nullptr ? seg.summary->rows : 0;
    std::uint64_t from_record = 0;  // the first record read from disk
    if (verified > 0) {
      if (seg.summary->max_ts < from_ts || seg.summary->min_ts > to_ts) {
        ++stats.segments_pruned;
        telemetry.archive_segments_pruned.Inc();
        from_record = verified;
      } else if (offer && offer(seg.summary)) {
        ++stats.segments_summarized;
        telemetry.archive_segments_summarized.Inc();
        from_record = verified;
      }
    }
    if (from_record == seg.records) continue;
    const std::uint64_t offset =
        from_record == 0 ? 0 : wal::kHeaderSize + from_record * kFrameBytes;
    if (!file.Read(offset, seg.bytes - offset, buf)) {
      return IoError("archive segment read failed", seg.path);
    }
    std::size_t frames = 0;  // where the record frames start in `buf`
    if (from_record == 0) {
      std::uint32_t payload_size = 0;
      if (!wal::DecodeHeader(buf.data(), buf.size(), &payload_size) ||
          payload_size != kRecordBytes) {
        return Status(ErrorCode::kIoError,
                      "archive segment header unreadable on re-read: " +
                          seg.path);
      }
      frames = wal::kHeaderSize;
    }
    // The records past the prefix extend its summary.
    std::optional<TierSummaryBuilder> extended;
    if (seg.records > verified) {
      if (seg.summary != nullptr) {
        extended.emplace(*seg.summary);
      } else {
        extended.emplace();
      }
    }
    // `buf` holds exactly the frames of records [from_record, records).
    const std::uint8_t* frame = buf.data() + frames;
    for (std::uint64_t index = from_record; index < seg.records;
         ++index, frame += kFrameBytes) {
      if (wal::CheckFrame(frame, kFrameBytes, kRecordBytes) == 0) {
        // A record changed on disk since it was written or last checked.
        return Status(ErrorCode::kIoError,
                      "archive segment lost records on re-read: " + seg.path);
      }
      ++stats.records_read;
      Record rec;
      std::memcpy(&rec, frame + wal::kFrameOverhead, sizeof(rec));
      // A row has one time: the stored copy of it in the sample is ignored.
      rec.payload.timestamp = rec.timestamp;
      if (index >= verified) extended->Add(rec.id, rec.payload);
      if (rec.timestamp >= from_ts && rec.timestamp <= to_ts) visit(rec);
    }
    if (extended.has_value()) {
      seg.summary = std::make_shared<const TierSummary>(extended->Finish());
    }
  }
  return Status::Ok();
}

Status Archiver<Sample>::VisitRange(TimeNs from_ts, TierCap cap,
                                    const SummaryOffer& offer,
                                    const RecordVisitor& visit,
                                    WalVisitStats* stats) {
  WalVisitStats local;
  std::lock_guard<std::mutex> lock(mu_);
  return VisitSegments(
      0, from_ts, cap.to_ts, offer,
      [&cap, &visit](const Record& rec) {
        if (cap.Keeps(rec.timestamp, rec.id)) visit(rec);
      },
      stats != nullptr ? *stats : local);
}

Status Archiver<Sample>::ReadRange(TimeNs from_ts, TimeNs to_ts,
                                   std::vector<Record>& out) {
  out.clear();
  WalVisitStats stats;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = VisitSegments(
        0, from_ts, to_ts, nullptr,
        [&out](const Record& rec) { out.push_back(rec); }, stats);
  }
  if (!status.ok()) out.clear();
  return status;
}

Expected<std::vector<Archiver<Sample>::Record>> Archiver<Sample>::ReadRange(
    TimeNs from_ts, TimeNs to_ts) {
  std::vector<Record> out;
  Status status = ReadRange(from_ts, to_ts, out);
  if (!status.ok()) return Error(status.code(), status.message());
  return out;
}

Expected<std::vector<Archiver<Sample>::Record>> Archiver<Sample>::TailRecords(
    std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // Start at the first segment that holds one of the newest `n`.
  std::size_t first = segments_.size();
  for (std::uint64_t kept = 0; first > 0 && kept < n;) {
    --first;
    kept += segments_[first].records;
  }
  std::vector<Record> out;
  WalVisitStats stats;
  Status status = VisitSegments(
      first, std::numeric_limits<TimeNs>::min(),
      std::numeric_limits<TimeNs>::max(), nullptr,
      [&out](const Record& rec) { out.push_back(rec); }, stats);
  if (!status.ok()) return Error(status.code(), status.message());
  // Whole leading segments were skipped; trim the in-segment overshoot.
  if (out.size() > n) out.erase(out.begin(), out.end() - n);
  return out;
}

std::uint64_t Archiver<Sample>::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_count_;
}

Status Archiver<Sample>::LastError() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

std::uint64_t Archiver<Sample>::Fsyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

std::uint64_t Archiver<Sample>::Flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

ArchiveRecoveryStats Archiver<Sample>::RecoveryStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_;
}

std::vector<std::string> Archiver<Sample>::SegmentPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(segments_.size());
  for (const Segment& seg : segments_) paths.push_back(seg.path);
  return paths;
}

std::string Archiver<Sample>::ActiveSegmentPath() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.empty() ? std::string() : segments_.back().path;
}

std::vector<Archiver<Sample>::SealedSegment>
Archiver<Sample>::SealedSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SealedSegment> sealed;
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
    sealed.push_back(SealedSegment{segments_[i].seq, segments_[i].path,
                                   segments_[i].records});
  }
  return sealed;
}

Expected<std::uint64_t> Archiver<Sample>::RecoverSealedSegment(
    std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t i = 0;
  while (i + 1 < segments_.size() && segments_[i].seq != seq) ++i;
  if (i + 1 >= segments_.size()) {
    return Error(ErrorCode::kNotFound,
                 "no sealed archive segment " + std::to_string(seq) + ": " +
                     path_);
  }
  Segment& seg = segments_[i];
  const std::string path = seg.path;
  wal::ScanResult scan;
  if (Status status = RecoverFile(path, seg.records, scan); !status.ok()) {
    return Error(status.code(), status.message());
  }
  const std::uint64_t kept = scan.header_ok ? scan.records : 0;
  const std::uint64_t lost = seg.records - kept;
  record_count_ -= lost;
  if (!scan.header_ok) {
    segments_.erase(segments_.begin() + static_cast<std::ptrdiff_t>(i));
  } else {
    seg.records = kept;
    seg.bytes = scan.valid_bytes;
    if (seg.summary != nullptr && seg.summary->rows > kept) {
      seg.summary = nullptr;
    }
  }
  if (lost > 0) {
    failures_.fetch_add(lost, std::memory_order_acq_rel);
    last_error_ = Status(ErrorCode::kIoError,
                         "archive segment lost " + std::to_string(lost) +
                             " records on disk: " + path);
  }
  return kept;
}

std::uint64_t Archiver<Sample>::DropSegmentsThrough(
    std::uint64_t through_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  while (segments_.size() > 1 && segments_.front().seq <= through_seq) {
    const Segment oldest = segments_.front();
    std::error_code ec;
    fs::remove(oldest.path, ec);
    // A missing file is fine — a previous crash may have removed it
    // after the manifest committed; the bookkeeping still advances.
    record_count_ -= oldest.records;
    segments_.erase(segments_.begin());
    ++dropped;
  }
  return dropped;
}

}  // namespace apollo
