// ColdTier: immutable columnar blocks compacted from sealed WAL segments.
//
// One ColdTier sits beside one Archiver<Sample> (same base path). The
// compactor drains sealed segments oldest-first, one block per segment:
//
//   1. read the sealed segment, decode its records (a segment not read
//      whole fails the pass and stays: its loss is the WAL read's to report)
//   2. write `<base>.<seq>.blk.tmp`, fsync, rename to `<base>.<seq>.blk`
//   3. rewrite `<base>.manifest` atomically with the new entry
//   4. delete the WAL segment
//
// The manifest write (step 3) is the commit point. A crash before it
// leaves the WAL authoritative and at worst an orphan tmp/blk file that
// Reconcile() sweeps; a crash after it leaves the block authoritative and
// Reconcile() finishes step 4 idempotently. Either way every acked row is
// readable from exactly one tier.
//
// Reads are mmap'd: VisitRange prunes blocks on the manifest's zone maps
// (no file IO for a pruned block), decodes survivors into per-thread
// column arrays (BlockColumns), and hands the rows it keeps out of them in
// place, as ColumnSpans. A block that fails its CRC/consistency checks is
// quarantined (renamed `.corrupt`, dropped from the live set, counted) — a
// corrupt block can cost rows, never invent them. The first read in this
// process that decodes and verifies a block also builds its TierSummary
// (pubsub/tier_summary.h: row count, exact value sum, value and timestamp
// bounds, latest row), kept beside the block's manifest entry; compaction
// never builds one, and neither does the manifest alone. An aggregate that
// can use the summary merges it instead of reading the block again. Only
// the columns a block decodes into are reused (one set per thread), never
// decoded rows.
//
// Thread safety: VisitRange/ScanRange, IsCompacted, and the metadata
// accessors are safe against a concurrent CompactOnce/Reconcile. Compaction itself is
// serialized internally, so a background compactor thread and manual
// CompactNow() calls can overlap.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coldtier/block_format.h"
#include "coldtier/manifest.h"
#include "common/expected.h"
#include "common/fault.h"
#include "pubsub/archiver.h"
#include "pubsub/telemetry.h"
#include "pubsub/tier_summary.h"

namespace apollo {

// Per-scan accounting, surfaced through EXPLAIN ANALYZE.
struct ColdScanStats {
  std::uint64_t blocks_total = 0;    // blocks considered
  std::uint64_t blocks_pruned = 0;   // skipped via zone map
  std::uint64_t blocks_scanned = 0;  // decoded and row-filtered
  std::uint64_t blocks_summarized = 0;  // answered by their summary, unread
  std::uint64_t rows_visited = 0;    // rows handed to the visitor
  std::uint64_t blocks_quarantined = 0;  // failed decode, renamed .corrupt
  std::uint64_t read_errors = 0;     // unreadable/injected-fault blocks
};

}  // namespace apollo

namespace apollo::coldtier {

// Crash points inside CompactOnce, in execution order. The kill-restart
// harness arms a hook at one of these and SIGKILLs itself there.
inline constexpr const char* kCrashMidBlockWrite = "mid_block_write";
inline constexpr const char* kCrashPreRename = "pre_rename";
inline constexpr const char* kCrashPostRename = "post_rename";
inline constexpr const char* kCrashPreManifest = "pre_manifest";
inline constexpr const char* kCrashPostManifest = "post_manifest";
inline constexpr const char* kCrashPreWalDelete = "pre_wal_delete";

struct ColdTierConfig {
  // Test-only crash-point instrumentation: called at each named point
  // with the WAL sequence being compacted. Production leaves this empty.
  std::function<void(const char* point, std::uint64_t wal_seq)> crash_hook;
};

struct CompactResult {
  std::size_t segments_compacted = 0;
  std::size_t blocks_written = 0;
  std::uint64_t rows_compacted = 0;
  std::uint64_t raw_bytes = 0;    // WAL segment bytes drained
  std::uint64_t block_bytes = 0;  // block bytes written
};

class ColdTier {
 public:
  // `base_path` matches the archiver's: blocks live at `<base>.<seq>.blk`,
  // the manifest at `<base>.manifest`.
  explicit ColdTier(std::string base_path, ColdTierConfig config = {});

  // Loads the manifest (missing = empty tier). Must be called before
  // anything else; a corrupt manifest is an error, not a guess.
  Status Open();

  // Completes any compaction a crash interrupted: deletes WAL segments
  // the manifest already covers (step 4 above) and sweeps orphan
  // *.blk.tmp / unreferenced *.blk files. Idempotent.
  Status Reconcile(Archiver<Sample>& archiver);

  // Compacts up to `max_segments` sealed WAL segments (oldest first) into
  // one block each, committing the manifest and deleting each segment as
  // it lands. Returns how much was compacted; stops at the first failure
  // with the WAL left authoritative for everything uncommitted.
  Expected<CompactResult> CompactOnce(Archiver<Sample>& archiver,
                                      std::size_t max_segments = SIZE_MAX);

  using SummaryVisitor = std::function<bool(const TierSummary& summary)>;
  // A run of one block's kept rows: ids[i] is the id of rows.At(i).
  using SpanVisitor =
      std::function<void(const std::uint64_t* ids, const ColumnSpan& rows)>;
  using RowVisitor = std::function<void(std::uint64_t id, TimeNs timestamp,
                                        const Sample& sample)>;

  // Visits the cold rows at or after from_ts that `cap` keeps (stamped at or
  // before cap.to_ts, id below cap.below_id), oldest block first, pruning
  // blocks on [from_ts, cap.to_ts]. A block the range reaches
  // that has a summary is first offered to `summary` (when set): if it
  // returns true, the summary stands for the block's rows, the block is
  // not read and no kBlockRead fault is evaluated for it
  // (stats->blocks_summarized). Every other such block is read, verified
  // and decoded, and its kept rows go to `visit` in stored order as spans
  // into the decoded columns, one per run of kept rows (a block whose
  // timestamps go backwards may hold several). Unreadable or corrupt
  // blocks are skipped and counted in `stats`, never fatal. Neither
  // visitor may start another scan on the same thread (blocks decode into
  // reused per-thread columns). Cold rows have lower ids than every WAL
  // row (compaction drains the oldest sealed segments first).
  Status VisitRange(TimeNs from_ts, TierCap cap,
                    const SummaryVisitor& summary, const SpanVisitor& visit,
                    ColdScanStats* stats);
  // VisitRange over [from_ts, to_ts] without summaries, row by row. Kept
  // only because perfbench calls it.
  Status ScanRange(TimeNs from_ts, TimeNs to_ts, const RowVisitor& visit,
                   ColdScanStats* stats) {
    const auto rows = [&visit](const std::uint64_t* ids, const ColumnSpan& s) {
      for (std::size_t i = 0; i < s.size; ++i) visit(ids[i], s.ts[i], s.At(i));
    };
    return VisitRange(from_ts, TierCap::Through(to_ts), nullptr, rows, stats);
  }
  // Total rows committed to the cold tier (from the manifest; no file IO).
  std::uint64_t ColdRowCount() const {
    return total_rows_.load(std::memory_order_acquire);
  }
  // True when `wal_seq` is covered by the committed manifest. Lock-free.
  bool IsCompacted(std::uint64_t wal_seq) const {
    return wal_seq <= last_compacted_seq_.load(std::memory_order_acquire);
  }

  std::uint64_t BlockCount() const;
  std::vector<std::string> BlockPaths() const;
  // Zone-map bounds over the whole tier (0,0 when empty).
  void TsBounds(TimeNs* min_ts, TimeNs* max_ts) const;
  std::uint64_t quarantined_blocks() const {
    return quarantined_blocks_.load(std::memory_order_acquire);
  }

  const std::string& base_path() const { return base_path_; }
  std::string ManifestPath() const;

  // kCompactWrite / kBlockRead faults are evaluated against `label`
  // (defaults to the base path). Not owned; may be null.
  void AttachFaultInjector(FaultInjector* injector) {
    fault_.store(injector, std::memory_order_release);
  }
  void set_fault_label(std::string label) {
    std::lock_guard<std::mutex> lock(mu_);
    label_ = std::move(label);
  }

 private:
  std::string BlockPathFor(std::uint64_t seq) const;
  bool InjectedFault(FaultSite site);
  // Removes `entry` (and its summary) from the live set and renames its
  // file `.corrupt`.
  void QuarantineBlock(const ManifestEntry& entry);
  // Refreshes total_rows_/last_compacted_seq_ from entries_ (mu_ held).
  void RefreshTotalsLocked();

  // A block's summary, set once by the first read that verifies the block.
  // Every copy of the entry list shares the block's slot, so a scan that
  // holds an old list sees the summary too.
  struct SummarySlot {
    std::atomic<const TierSummary*> summary{nullptr};
    ~SummarySlot() { delete summary.load(std::memory_order_acquire); }
  };
  struct LiveBlock {
    ManifestEntry entry;
    std::shared_ptr<SummarySlot> slot = std::make_shared<SummarySlot>();
  };
  using Entries = std::vector<LiveBlock>;

  std::string base_path_;
  std::string block_dir_;  // base path's directory plus '/', or empty
  ColdTierConfig config_;
  std::string label_;
  std::atomic<FaultInjector*> fault_{nullptr};

  mutable std::mutex mu_;        // guards entries_ + label_
  std::mutex compact_mu_;        // serializes CompactOnce/Reconcile
  // The live blocks. Compaction and quarantine publish a new vector; a
  // scan's snapshot copies the pointer, not the entries.
  std::shared_ptr<const Entries> entries_;
  std::atomic<std::uint64_t> total_rows_{0};
  std::atomic<std::uint64_t> last_compacted_seq_{0};
  std::atomic<std::uint64_t> quarantined_blocks_{0};
  bool opened_ = false;
};

}  // namespace apollo::coldtier
