// Archiver: crash-safe append-only log for entries evicted from an
// in-memory stream.
//
// Each SCoRe vertex holds a dedicated in-memory queue plus an Archiver that
// persists evicted entries; the Query Executor falls back to the archive for
// historical reads (timestamp ranges older than the in-memory window), and
// ApolloService::Recover() replays the archive tail to rebuild stream
// windows after a restart.
//
// File mode is a WAL (see pubsub/wal_format.h): records are length-prefixed
// and CRC32C-checksummed inside size-rotated segment files
// `<base>.<seq>.wal`, with a configurable fsync policy. Segments stay
// until the cold tier compacts them (DropSegmentsThrough). Opening an
// existing archive is append-safe: segments are scanned, a torn/corrupt
// tail is truncated to the last valid record, and unreadable segments are
// quarantined (renamed `.corrupt`) — every recovered and dropped byte is
// counted. Records are written in chunks — the run of records up to the
// next rotation or kEveryN fsync point — with one fflush per chunk. Chunks
// are atomic: a failed write, flush, or fsync rolls the segment back to the
// chunk's start offset, so retries can never duplicate or interleave a
// record.
//
// Failed writes are never silent: every append surfaces a Status,
// AppendBatch and AppendWithRetry add bounded exponential backoff, and
// every outcome is counted per record both here and in the global
// TelemetryCounters. An attached FaultInjector can force write failures
// (site kArchiveWrite, once per record attempt) and fsync failures
// (kArchiveFsync) for chaos and kill-and-restart tests.
//
// Record payload layout (binary, little-endian, fixed size):
//   u64 id | i64 timestamp | T payload (trivially copyable)
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "pubsub/cold_reader.h"
#include "pubsub/telemetry.h"
#include "pubsub/wal_format.h"

namespace apollo {

// When the archiver calls fsync on its active segment.
enum class FsyncPolicy : std::uint8_t {
  kNever,   // leave durability to the OS (process death still safe)
  kEveryN,  // after every fsync_every_n appended records
};

struct WalConfig {
  // Rotate the active segment once it would exceed this many bytes.
  std::size_t segment_bytes = 4u << 20;
  FsyncPolicy fsync_policy = FsyncPolicy::kNever;
  std::uint64_t fsync_every_n = 64;  // kEveryN
};

// What an append-safe open found: how much of the existing archive
// survived, and how much had to be cut or quarantined.
struct ArchiveRecoveryStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t bytes_truncated = 0;      // torn/corrupt bytes cut from tails
  std::uint64_t corrupt_segments = 0;     // had any truncation or quarantine
  std::uint64_t quarantined_segments = 0; // renamed *.corrupt (bad header)
};

// Non-template WAL engine behind Archiver<T>: segment files, rotation,
// fsync policy, and startup recovery over fixed-size payloads.
// Not internally synchronized — Archiver<T> serializes all calls.
class ArchiveLog {
 public:
  // `base_path` is the logical archive name; segments live at
  // `<base_path>.<seq>.wal`. Call Open() before anything else.
  ArchiveLog(std::string base_path, std::uint32_t payload_size,
             WalConfig config);
  ~ArchiveLog();

  ArchiveLog(const ArchiveLog&) = delete;
  ArchiveLog& operator=(const ArchiveLog&) = delete;

  // Scans existing segments (recovering valid prefixes, truncating torn
  // tails, quarantining unreadable segments) and opens the newest for
  // append. Creates the first segment when none exist.
  Status Open();

  // How many records the next Append may take as one chunk: the records a
  // per-record append would write before it rotated the segment or, under
  // kEveryN, fsynced. At least 1.
  std::size_t ChunkRoom() const;

  // Appends `n` payload_size-byte records laid out back to back, as one
  // chunk: 1 <= n <= ChunkRoom(). Rotates first if the active segment is
  // full, writes each frame into the stdio buffer, issues one fflush, and
  // fsyncs after it when the policy is due. Atomic: on any
  // write/flush/fsync failure the segment is rolled back to the chunk's
  // start and an error is returned, so a retry cannot duplicate a record.
  Status Append(const void* payloads, std::size_t n);

  // Flushes and fsyncs the active segment regardless of policy.
  Status Sync();

  // Visits every record payload across live segments in append order.
  // Stops early (and reports kIoError) if a segment cannot be read back.
  // Segments are read into one reused per-thread buffer, so `fn` must not
  // start another archive read.
  Status ForEach(const std::function<void(const void* payload)>& fn);

  // Like ForEach but only the last `n` records, skipping whole segments
  // that lie entirely before the tail.
  Status ForEachTail(std::uint64_t n,
                     const std::function<void(const void* payload)>& fn);

  std::uint64_t record_count() const { return record_count_; }
  const ArchiveRecoveryStats& recovery() const { return recovery_; }
  const std::string& base_path() const { return base_path_; }
  std::vector<std::string> SegmentPaths() const;
  std::string ActiveSegmentPath() const;
  std::uint64_t rotations() const { return rotations_; }
  std::uint64_t fsyncs() const { return fsyncs_; }
  std::uint64_t flushes() const { return flushes_; }  // one per chunk

  // Sealed (non-active) segments as (seq, path, records), seq-ascending.
  // Sealed files are immutable: the compactor reads them without any lock.
  struct SealedSegment {
    std::uint64_t seq;
    std::string path;
    std::uint64_t records;
  };
  std::vector<SealedSegment> SealedSegments() const;

  // Deletes every sealed segment with seq <= `through_seq` (the active
  // segment is never dropped). Used after those segments' rows are
  // manifest-committed to the cold tier; idempotent across crashes.
  // Returns how many segment files were removed.
  std::uint64_t DropSegmentsThrough(std::uint64_t through_seq);

  // kArchiveFsync faults are evaluated against `label` before each real
  // fsync. Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) { fault_ = injector; }
  void set_fault_label(std::string label) { label_ = std::move(label); }

 private:
  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };

  std::string SegmentPathFor(std::uint64_t seq) const;
  Status OpenActive(bool fresh);
  // True when the next record would overflow the non-empty active segment.
  bool RotationDue() const;
  Status RotateLocked();
  Status SyncLocked();
  // Truncates the active segment back to `offset` after a failed chunk.
  void RollbackActive(std::uint64_t offset);
  Status ScanSegmentFile(const std::string& path,
                         std::vector<std::uint8_t>& buf,
                         wal::ScanResult& result,
                         const std::function<void(const void*)>& fn) const;

  std::string base_path_;
  std::uint32_t payload_size_;
  WalConfig config_;
  std::string label_;
  FaultInjector* fault_ = nullptr;

  std::vector<Segment> segments_;  // seq-ascending; back() is active
  std::FILE* active_ = nullptr;
  std::uint64_t record_count_ = 0;       // live records across segments
  std::uint64_t appends_since_sync_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t flushes_ = 0;
  ArchiveRecoveryStats recovery_;
  std::vector<std::uint8_t> frame_;  // scratch encode buffer, one frame
};

template <typename T>
class Archiver {
  static_assert(std::is_trivially_copyable_v<T>,
                "Archiver requires a trivially copyable payload");

 public:
  struct Record {
    std::uint64_t id;
    TimeNs timestamp;
    T payload;
  };

  // Opens the archive append-safe, recovering any records a previous
  // process left in the segment files (see ArchiveLog). An empty path
  // keeps the archive purely in memory — convenient for tests and sim
  // runs. A path that cannot be opened degrades to in-memory (check
  // OpenStatus()).
  explicit Archiver(std::string path = "", WalConfig config = {})
      : path_(std::move(path)) {
    if (!path_.empty()) {
      auto log = std::make_unique<ArchiveLog>(
          path_, static_cast<std::uint32_t>(sizeof(Record)), config);
      open_status_ = log->Open();
      if (open_status_.ok()) log_ = std::move(log);
    }
  }

  ~Archiver() = default;

  Archiver(const Archiver&) = delete;
  Archiver& operator=(const Archiver&) = delete;

  // Chaos-test hooks: injected faults fire at kArchiveWrite (pre-append)
  // and kArchiveFsync (pre-fsync), filtered by `label` (defaults to the
  // file path). Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ != nullptr) log_->AttachFaultInjector(injector);
  }
  void set_fault_label(std::string label) {
    std::lock_guard<std::mutex> lock(mu_);
    label_ = label;
    if (log_ != nullptr) log_->set_fault_label(std::move(label));
  }
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // The record as persisted. Padding bytes are zeroed so the on-disk CRC
  // is deterministic (Record is trivially copyable; the cast silences
  // -Wclass-memaccess).
  static Record MakeRecord(std::uint64_t id, TimeNs timestamp,
                           const T& payload) {
    Record rec;
    std::memset(static_cast<void*>(&rec), 0, sizeof(rec));
    rec.id = id;
    rec.timestamp = timestamp;
    rec.payload = payload;
    return rec;
  }

  // Appends `n` records in order with the archiver's retry policy, paying
  // one flush per chunk (see ArchiveLog::Append). Each record gets the
  // policy's attempts: a failed chunk is rolled back and retried whole
  // after a backoff (a real sleep, taken under the evicting stream's
  // lock); a record whose kArchiveWrite check fires is retried on its own.
  // Records still failing are dropped and counted in Failures(). Returns
  // the first error.
  Status AppendBatch(const Record* records, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    return AppendLocked(records, n, retry_.max_attempts);
  }

  // Single-record forms of AppendBatch: Append makes one attempt,
  // AppendWithRetry follows the retry policy.
  Status Append(std::uint64_t id, TimeNs timestamp, const T& payload) {
    const Record rec = MakeRecord(id, timestamp, payload);
    std::lock_guard<std::mutex> lock(mu_);
    return AppendLocked(&rec, 1, /*max_attempts=*/1);
  }
  Status AppendWithRetry(std::uint64_t id, TimeNs timestamp,
                         const T& payload) {
    const Record rec = MakeRecord(id, timestamp, payload);
    return AppendBatch(&rec, 1);
  }

  // Reads every archived record with timestamp in [from_ts, to_ts], in
  // append order, into `out` (cleared first, and left empty on error).
  // Sequential scan over all live segments — archives are cold storage,
  // latency is acceptable. Every record re-validates its checksum on the
  // way back in. A caller that keeps `out` across reads allocates nothing
  // once it has grown.
  Status ReadRange(TimeNs from_ts, TimeNs to_ts, std::vector<Record>& out) {
    out.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ == nullptr) {
      for (const Record& rec : memory_) {
        if (rec.timestamp >= from_ts && rec.timestamp <= to_ts) {
          out.push_back(rec);
        }
      }
      return Status::Ok();
    }
    // One captured pointer keeps the callback inside std::function's
    // small buffer, so the read does not allocate for it.
    struct Want {
      std::vector<Record>* out;
      TimeNs from_ts, to_ts;
    } want{&out, from_ts, to_ts};
    Status status = log_->ForEach([&want](const void* payload) {
      Record rec;
      std::memcpy(&rec, payload, sizeof(rec));
      if (rec.timestamp >= want.from_ts && rec.timestamp <= want.to_ts) {
        want.out->push_back(rec);
      }
    });
    if (!status.ok()) out.clear();
    return status;
  }

  // Allocating convenience wrapper.
  Expected<std::vector<Record>> ReadRange(TimeNs from_ts, TimeNs to_ts) {
    std::vector<Record> out;
    Status status = ReadRange(from_ts, to_ts, out);
    if (!status.ok()) return Error(status.code(), status.message());
    return out;
  }

  // The newest `n` archived records in append order — the recovery path
  // uses this to rebuild a stream's in-memory window.
  Expected<std::vector<Record>> TailRecords(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Record> out;
    if (log_ != nullptr) {
      Status status = log_->ForEachTail(n, [&](const void* payload) {
        Record rec;
        std::memcpy(&rec, payload, sizeof(rec));
        out.push_back(rec);
      });
      if (!status.ok()) return Error(status.code(), status.message());
      // ForEachTail skips whole leading segments; trim the in-segment
      // overshoot.
      if (out.size() > n) out.erase(out.begin(), out.end() - n);
      return out;
    }
    const std::size_t take =
        std::min<std::size_t>(memory_.size(), static_cast<std::size_t>(n));
    out.assign(memory_.end() - take, memory_.end());
    return out;
  }

  // Forces the active segment to disk regardless of fsync policy.
  Status Sync() {
    std::lock_guard<std::mutex> lock(mu_);
    if (log_ == nullptr) return Status::Ok();
    return log_->Sync();
  }

  // Records reachable in the archive: recovered history plus this
  // lifetime's appends, minus the segments compaction has dropped.
  std::uint64_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->record_count() : count_;
  }

  // Records that stayed failed after their attempts, and the most recent
  // error.
  std::uint64_t Failures() const {
    return failures_.load(std::memory_order_acquire);
  }
  Status LastError() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }

  // Fsyncs actually issued on the active segment (policy + explicit).
  std::uint64_t Fsyncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->fsyncs() : 0;
  }

  // Chunk flushes issued on the active segment: one per chunk appended.
  std::uint64_t Flushes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->flushes() : 0;
  }

  // What the append-safe open found (file mode; zeroes in memory mode).
  ArchiveRecoveryStats RecoveryStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->recovery() : ArchiveRecoveryStats{};
  }

  std::vector<std::string> SegmentPaths() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->SegmentPaths()
                           : std::vector<std::string>{};
  }
  std::string ActiveSegmentPath() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->ActiveSegmentPath() : std::string();
  }

  const std::string& path() const { return path_; }
  bool InMemory() const { return log_ == nullptr; }
  // Why a file-backed open fell back to memory mode (Ok when healthy).
  Status OpenStatus() const { return open_status_; }

  // ---- cold tier hooks (file mode only; no-ops in memory mode) ----

  // Borrowed pointer to the cold tier that drains this archive. The
  // executor reads it lock-free on every scan; attach happens at deploy
  // time before queries run.
  void AttachColdReader(ColdReaderBase* cold) {
    cold_.store(cold, std::memory_order_release);
  }
  ColdReaderBase* cold_reader() const {
    return cold_.load(std::memory_order_acquire);
  }

  std::vector<ArchiveLog::SealedSegment> SealedSegments() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->SealedSegments()
                           : std::vector<ArchiveLog::SealedSegment>{};
  }

  // Drops manifest-committed sealed segments; see ArchiveLog.
  std::uint64_t DropSegmentsThrough(std::uint64_t through_seq) {
    std::lock_guard<std::mutex> lock(mu_);
    return log_ != nullptr ? log_->DropSegmentsThrough(through_seq) : 0;
  }

 private:
  // The one append path; caller holds mu_. Each pass takes the next chunk:
  // the records from `i` the log can take with one flush, evaluating
  // kArchiveWrite once per record attempt in record order. A record whose
  // check fires ends the chunk before it (`fired` remembers it, so that
  // attempt is not evaluated twice) and then fails on its own.
  Status AppendLocked(const Record* records, std::size_t n, int max_attempts) {
    FaultInjector* injector = fault_.load(std::memory_order_acquire);
    const std::string_view label = label_.empty() ? path_ : label_;
    Status first_error;
    std::size_t fired = n;
    int attempt = 1;
    for (std::size_t i = 0; i < n;) {
      const std::size_t room =
          log_ != nullptr ? std::min(n - i, log_->ChunkRoom()) : n - i;
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
        status = PersistLocked(records + i, end - i);
        if (status.ok()) {
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

  // Writes one chunk to the log (or memory). Caller holds mu_.
  Status PersistLocked(const Record* records, std::size_t n) {
    if (log_ != nullptr) {
      Status status = log_->Append(records, n);
      if (!status.ok()) return status;
    } else {
      memory_.insert(memory_.end(), records, records + n);
      count_ += n;
    }
    GlobalTelemetry().archive_writes.Inc(n);
    return Status::Ok();
  }

  // Caller holds mu_.
  void RecordFailures(const Status& status, std::size_t records) {
    failures_.fetch_add(records, std::memory_order_acq_rel);
    last_error_ = status;
    GlobalTelemetry().archive_write_failures.Inc(records);
  }

  std::string path_;
  std::string label_;
  std::unique_ptr<ArchiveLog> log_;
  Status open_status_;
  std::vector<Record> memory_;
  std::uint64_t count_ = 0;
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<ColdReaderBase*> cold_{nullptr};
  RetryPolicy retry_;
  std::atomic<std::uint64_t> failures_{0};
  Status last_error_;
  mutable std::mutex mu_;
};

}  // namespace apollo
