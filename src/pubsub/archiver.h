// Archiver: the crash-safe write-ahead log for rows evicted from a
// TelemetryStream.
//
// Each SCoRe vertex holds a dedicated in-memory queue plus an Archiver that
// persists evicted entries; the Query Executor falls back to the archive for
// historical reads (timestamp ranges older than the in-memory window), and
// ApolloService::Recover() replays the archive tail to rebuild stream
// windows after a restart. The WAL is the only archive: there is no
// in-memory mode.
//
// Records are length-prefixed and CRC32C-checksummed (see
// pubsub/wal_format.h) inside size-rotated segment files
// `<base>.<seq>.wal`, with a configurable fsync policy. Segments stay until
// the cold tier compacts them (DropSegmentsThrough). Opening an existing
// archive is append-safe: segments are scanned, a torn/corrupt tail is
// truncated to the last valid record, and unreadable segments are
// quarantined (renamed `.corrupt`) — every recovered and dropped byte is
// counted. The active segment is a plain file descriptor. Records are
// written in chunks — the run of records up to the next rotation or kEveryN
// fsync point — encoded into one bounded per-thread buffer and written with
// pwrite(2) at the counted offset: one call for a chunk that fits the
// buffer (kWriteBufferFrames records). Chunks are atomic: a failed write or
// fsync cuts the segment back (ftruncate) to the chunk's start offset, so
// retries can never duplicate or interleave a record. A written chunk is in
// the OS's page cache, so every read sees it without a flush.
//
// Reads go segment by segment (VisitRange). Each segment keeps, in memory,
// a TierSummary of its verified prefix: the records a read has already
// checked against their CRCs. The first read that covers a record checks
// it and folds it into the prefix; appends never touch a summary. A later
// read skips a prefix whose timestamp bounds miss its range, offers
// the prefix's summary to the caller, and reads from disk (pread, from the
// prefix's end unless the caller declined the summary) only the records it
// must, checking each one it reads. Every read compares each segment's file
// length with the records the archiver counts, and fails when the file is
// shorter. A sealed segment damaged on disk after the open is cut under the
// open's rule by RecoverSealedSegment, which the compactor calls.
//
// Failed writes are never silent: every append surfaces a Status,
// AppendBatch and AppendWithRetry add bounded exponential backoff, and
// every outcome is counted per record both here and in the global
// TelemetryCounters. An archive whose open failed holds nothing:
// OpenStatus() says why, every append fails with that error (counted in
// Failures()), and every read returns it. An attached FaultInjector can
// force write failures (site kArchiveWrite, once per record attempt) and
// fsync failures (kArchiveFsync) for chaos and kill-and-restart tests.
//
// Record payload layout (binary, little-endian, fixed size):
//   u64 id | i64 timestamp | Sample
// The Sample's timestamp is a copy, written equal and ignored on read.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/expected.h"
#include "common/fault.h"
#include "pubsub/telemetry.h"
#include "pubsub/tier_summary.h"
#include "pubsub/wal_format.h"

namespace apollo {

namespace coldtier {
class ColdTier;
}

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

// What one VisitRange did with the live segments, surfaced through
// EXPLAIN ANALYZE.
struct WalVisitStats {
  std::uint64_t segments_summarized = 0;  // prefix merged from its summary
  std::uint64_t segments_pruned = 0;      // prefix skipped on its bounds
  std::uint64_t records_read = 0;         // read from disk and checked
};

// Only Archiver<Sample> is defined (below): telemetry rows are the one
// payload the fabric archives.
template <typename T>
class Archiver;

template <>
class Archiver<Sample> {
 public:
  struct Record {
    std::uint64_t id;
    TimeNs timestamp;
    Sample payload;
  };

  // Sealed (non-active) segments as (seq, path, records), seq-ascending.
  // Sealed files are immutable: the compactor reads them without any lock.
  struct SealedSegment {
    std::uint64_t seq;
    std::string path;
    std::uint64_t records;
  };

  // Opens the archive at `path` append-safe, recovering any records a
  // previous process left in its segment files. On failure the archive
  // holds nothing and OpenStatus() says why.
  explicit Archiver(std::string path, WalConfig config = {});
  ~Archiver();

  Archiver(const Archiver&) = delete;
  Archiver& operator=(const Archiver&) = delete;

  // Chaos-test hooks: injected faults fire at kArchiveWrite (pre-append)
  // and kArchiveFsync (pre-fsync), filtered by `label` (defaults to the
  // file path). Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }
  void set_fault_label(std::string label);
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  // The record as persisted, with padding bytes zeroed so the on-disk CRC
  // is deterministic. Inline: every evicted row goes through it.
  static Record MakeRecord(std::uint64_t id, TimeNs timestamp,
                           const Sample& payload) {
    Record rec;
    std::memset(static_cast<void*>(&rec), 0, sizeof(rec));
    rec.id = id;
    rec.timestamp = timestamp;
    rec.payload = payload;
    return rec;
  }

  // Appends `n` records in order with the archiver's retry policy, paying
  // one write per chunk. Each record gets the policy's attempts: a failed
  // chunk is rolled back and retried whole after a backoff (a real sleep,
  // taken under the evicting stream's lock); a record whose kArchiveWrite
  // check fires is retried on its own. Records still failing are dropped
  // and counted in Failures(). Returns the first error.
  Status AppendBatch(const Record* records, std::size_t n);

  // Single-record forms of AppendBatch: Append makes one attempt,
  // AppendWithRetry follows the retry policy.
  Status Append(std::uint64_t id, TimeNs timestamp, const Sample& payload);
  Status AppendWithRetry(std::uint64_t id, TimeNs timestamp,
                         const Sample& payload);

  using SummaryOffer =
      std::function<bool(const std::shared_ptr<const TierSummary>& prefix)>;
  using RecordVisitor = std::function<void(const Record& record)>;

  // Visits the archived records with timestamp at or after from_ts that
  // `cap` keeps (stamped at or before cap.to_ts, id below cap.below_id),
  // segment by segment in append order. For each segment: fail (IoError)
  // when its file is shorter than the records counted in it; skip its
  // verified prefix when the prefix's timestamp bounds miss
  // [from_ts, cap.to_ts] (stats->segments_pruned); otherwise offer the
  // prefix's summary to `offer` (when set), and if it returns true the
  // summary stands for the prefix's records (stats->segments_summarized).
  // Then read the records it must from disk, check each one's CRC, fold
  // those past the prefix into it, and pass those kept to `visit`. A
  // record that fails its check fails the read (IoError); records visited
  // before it stay visited. Neither callback may start another archive
  // read. The archiver lock is held throughout, so appends wait.
  Status VisitRange(TimeNs from_ts, TierCap cap, const SummaryOffer& offer,
                    const RecordVisitor& visit,
                    WalVisitStats* stats = nullptr);

  // VisitRange with no offer: every archived record with timestamp in
  // [from_ts, to_ts], in append order, into `out` (cleared first, and left
  // empty on error). A caller that keeps `out` across reads allocates
  // nothing once it has grown.
  Status ReadRange(TimeNs from_ts, TimeNs to_ts, std::vector<Record>& out);

  // Allocating convenience wrapper.
  Expected<std::vector<Record>> ReadRange(TimeNs from_ts, TimeNs to_ts);

  // The newest `n` archived records in append order — the recovery path
  // uses this to rebuild a stream's in-memory window.
  Expected<std::vector<Record>> TailRecords(std::uint64_t n);

  // Records reachable in the archive: recovered history plus this
  // lifetime's appends, minus the segments compaction has dropped.
  std::uint64_t Count() const;

  // Records that stayed failed after their attempts or were lost from a
  // damaged sealed segment (RecoverSealedSegment), and the most recent
  // error.
  std::uint64_t Failures() const {
    return failures_.load(std::memory_order_acquire);
  }
  Status LastError() const;

  // Fsyncs actually issued on the active segment.
  std::uint64_t Fsyncs() const;
  // Chunk writes issued on the active segment: one per chunk appended.
  std::uint64_t Flushes() const;

  // What the append-safe open found.
  ArchiveRecoveryStats RecoveryStats() const;

  std::vector<std::string> SegmentPaths() const;
  std::string ActiveSegmentPath() const;
  std::vector<SealedSegment> SealedSegments() const;

  // Applies the open's recovery rule to the sealed segment `seq`, for one
  // damaged on disk since: re-reads it, cuts it to its valid prefix (at
  // most the records counted in it), or quarantines it (renamed
  // `.corrupt`, dropped from the archive) when its header does not parse.
  // The records it lost are counted in Failures(), so every later answer
  // over the history says it is missing rows, and a summary covering any
  // of them is dropped. Returns the records kept (0 once quarantined);
  // NotFound when `seq` is not a sealed segment.
  Expected<std::uint64_t> RecoverSealedSegment(std::uint64_t seq);

  // Deletes every sealed segment with seq <= `through_seq` (the active
  // segment is never dropped). Used after those segments' rows are
  // manifest-committed to the cold tier; idempotent across crashes.
  // Returns how many segment files were removed.
  std::uint64_t DropSegmentsThrough(std::uint64_t through_seq);

  const std::string& path() const { return path_; }
  // Ok when the archive opened; otherwise why it holds nothing.
  Status OpenStatus() const { return open_status_; }
  // !OpenStatus().ok(). Kept only because perfbench/ calls it.
  bool InMemory() const { return !open_status_.ok(); }

  // Borrowed pointer to the cold tier that drains this archive. The
  // executor reads it lock-free on every scan; attach happens at deploy
  // time before queries run.
  void AttachColdReader(coldtier::ColdTier* cold) {
    cold_.store(cold, std::memory_order_release);
  }
  coldtier::ColdTier* cold_reader() const {
    return cold_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint32_t kRecordBytes = sizeof(Record);
  static constexpr std::size_t kFrameBytes =
      wal::kFrameOverhead + kRecordBytes;
  // Frames in a writing thread's buffer (64 KiB): a chunk that fits is one
  // pwrite(2). The buffer does not grow with the chunk, the topic count or
  // segment_bytes; a longer chunk takes one write per buffer.
  static constexpr std::size_t kWriteBufferFrames = (64u << 10) / kFrameBytes;

  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    // The records [0, summary->rows) a read has checked; null before the
    // first. Replaced, never changed, so a caller that holds it keeps a
    // consistent summary.
    std::shared_ptr<const TierSummary> summary;
  };

  // Scans existing segments (recovering valid prefixes, truncating torn
  // tails, quarantining unreadable segments) and opens the newest for
  // append. Creates the first segment when none exist.
  Status Open();
  // The recovery rule for one segment file, shared by Open and
  // RecoverSealedSegment: scans it whole, keeps at most `max_records`
  // valid records (cutting the file after them), or quarantines it when
  // its header does not parse (`scan.header_ok` false), counting each in
  // the telemetry. On success `scan` says what it found.
  Status RecoverFile(const std::string& path, std::uint64_t max_records,
                     wal::ScanResult& scan);
  std::string SegmentPathFor(std::uint64_t seq) const;
  Status OpenActive(bool fresh);

  // The one append path; caller holds mu_. Each pass takes the next
  // chunk: the records from `i` the WAL can take with one flush,
  // evaluating kArchiveWrite once per record attempt in record order. A
  // record whose check fires ends the chunk before it (`fired` remembers
  // it, so that attempt is not evaluated twice) and then fails on its own.
  Status AppendLocked(const Record* records, std::size_t n,
                      int max_attempts);
  // How many records the next WriteChunk may take: the records a
  // per-record append would write before it rotated the segment or, under
  // kEveryN, fsynced. At least 1. Caller holds mu_.
  std::size_t ChunkRoom() const;
  // Writes `n` records (1 <= n <= ChunkRoom()) as one chunk: rotates
  // first if the active segment is full, encodes the frames into the
  // thread's write buffer, writes them with pwrite(2) at the segment's
  // counted end (one call per kWriteBufferFrames records), and fsyncs
  // after it when the policy is due. Atomic: on any write/fsync failure
  // the segment is cut back to the chunk's start. Caller holds mu_.
  Status WriteChunk(const Record* records, std::size_t n);
  // True when the next record would overflow the non-empty active segment.
  bool RotationDue() const;
  Status Rotate();
  Status SyncActive();
  // Truncates the active segment back to `offset` after a failed chunk.
  void RollbackActive(std::uint64_t offset);
  void RecordFailures(const Status& status, std::size_t records);
  // VisitRange over segments_[first, end) and [from_ts, to_ts], with `visit`
  // a template parameter so ReadRange's push inlines. Caller holds mu_.
  template <typename Visit>
  Status VisitSegments(std::size_t first, TimeNs from_ts, TimeNs to_ts,
                       const SummaryOffer& offer, Visit&& visit,
                       WalVisitStats& stats);

  const std::string path_;
  WalConfig config_;
  Status open_status_;  // set once, by the constructor
  RetryPolicy retry_;
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<coldtier::ColdTier*> cold_{nullptr};
  std::atomic<std::uint64_t> failures_{0};

  mutable std::mutex mu_;  // guards everything below
  std::string label_;
  std::vector<Segment> segments_;  // seq-ascending; back() is active
  int active_fd_ = -1;  // the active segment, opened for pwrite(2)
  std::uint64_t record_count_ = 0;  // live records across segments
  std::uint64_t appends_since_sync_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t flushes_ = 0;
  ArchiveRecoveryStats recovery_;
  Status last_error_;
};

}  // namespace apollo
