#include "coldtier/cold_tier.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pubsub/wal_format.h"

namespace apollo::coldtier {

namespace fs = std::filesystem;

namespace {

constexpr const char* kBlockSuffix = ".blk";
constexpr const char* kTmpSuffix = ".blk.tmp";
constexpr const char* kManifestSuffix = ".manifest";

Status IoError(const std::string& what, const std::string& path) {
  return Status(ErrorCode::kIoError,
                what + ": " + path + " (" + std::strerror(errno) + ")");
}

struct ColdCounters {
  obs::Counter compactions;
  obs::Counter segments_compacted;
  obs::Counter blocks_written;
  obs::Counter rows_compacted;
  obs::Counter raw_bytes;
  obs::Counter block_bytes;
  obs::Counter compact_failures;
  obs::Counter scans;
  obs::Counter blocks_scanned;
  obs::Counter blocks_summarized;
  obs::Counter blocks_pruned;
  obs::Counter rows_read;
  obs::Counter blocks_quarantined;
  obs::Counter read_errors;
  obs::Histogram compact_ns;
  obs::Histogram scan_ns;
};

ColdCounters& Counters() {
  static ColdCounters counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return ColdCounters{
        reg.GetCounter("apollo_coldtier_compactions_total",
                       "Compaction passes that drained >= 1 segment"),
        reg.GetCounter("apollo_coldtier_segments_compacted_total",
                       "Sealed WAL segments drained into blocks"),
        reg.GetCounter("apollo_coldtier_blocks_written_total",
                       "Columnar blocks committed to the manifest"),
        reg.GetCounter("apollo_coldtier_rows_compacted_total",
                       "Rows moved from the WAL into blocks"),
        reg.GetCounter("apollo_coldtier_raw_bytes_total",
                       "Raw WAL bytes drained by compaction"),
        reg.GetCounter("apollo_coldtier_block_bytes_total",
                       "Compressed block bytes written"),
        reg.GetCounter("apollo_coldtier_compact_failures_total",
                       "Compaction attempts that failed"),
        reg.GetCounter("apollo_coldtier_scans_total",
                       "Cold-tier range scans"),
        reg.GetCounter("apollo_coldtier_blocks_scanned_total",
                       "Blocks decoded by scans"),
        reg.GetCounter("apollo_coldtier_blocks_summarized_total",
                       "Blocks a scan merged from their summary, unread"),
        reg.GetCounter("apollo_coldtier_blocks_pruned_total",
                       "Blocks skipped via zone maps"),
        reg.GetCounter("apollo_coldtier_rows_read_total",
                       "Rows emitted by cold scans"),
        reg.GetCounter("apollo_coldtier_blocks_quarantined_total",
                       "Corrupt blocks renamed .corrupt"),
        reg.GetCounter("apollo_coldtier_read_errors_total",
                       "Unreadable or fault-injected block reads"),
        reg.GetHistogram("apollo_coldtier_compact_duration_ns",
                         "CompactOnce wall time"),
        reg.GetHistogram("apollo_coldtier_scan_duration_ns",
                         "Cold-tier scan wall time"),
    };
  }();
  return counters;
}

// Read-only view of a block file: mmap when possible, buffered read as
// the fallback. Blocks are immutable once renamed into place, so a
// shared mapping never sees concurrent writes.
class MappedFile {
 public:
  ~MappedFile() {
    if (mapped_ != nullptr) ::munmap(mapped_, size_);
  }

  bool Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return false;
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map != MAP_FAILED) {
        mapped_ = map;
      } else {
        fallback_.resize(size_);
        if (::read(fd, fallback_.data(), size_) !=
            static_cast<ssize_t>(size_)) {
          ::close(fd);
          return false;
        }
      }
    }
    ::close(fd);
    return true;
  }

  const std::uint8_t* data() const {
    return mapped_ != nullptr ? static_cast<const std::uint8_t*>(mapped_)
                              : fallback_.data();
  }
  std::size_t size() const { return size_; }

 private:
  void* mapped_ = nullptr;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> fallback_;
};

}  // namespace

ColdTier::ColdTier(std::string base_path, ColdTierConfig config)
    : base_path_(std::move(base_path)),
      config_(std::move(config)),
      entries_(std::make_shared<const Entries>()) {
  const fs::path dir = fs::path(base_path_).parent_path();
  if (!dir.empty()) block_dir_ = dir.string() + "/";
}

std::string ColdTier::ManifestPath() const {
  return base_path_ + kManifestSuffix;
}

std::string ColdTier::BlockPathFor(std::uint64_t seq) const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base_path_ + buf + kBlockSuffix;
}

bool ColdTier::InjectedFault(FaultSite site) {
  FaultInjector* injector = fault_.load(std::memory_order_acquire);
  if (injector == nullptr) return false;
  std::string label;
  {
    std::lock_guard<std::mutex> lock(mu_);
    label = label_.empty() ? base_path_ : label_;
  }
  auto action = injector->Evaluate(site, label);
  return action.has_value() && action->fails();
}

Status ColdTier::Open() {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  auto manifest = ReadManifest(ManifestPath());
  if (!manifest.ok()) {
    return Status(manifest.error().code(), manifest.error().message());
  }
  auto blocks = std::make_shared<Entries>();
  for (ManifestEntry& entry : manifest->entries) {
    blocks->push_back(LiveBlock{std::move(entry)});
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(blocks);
  RefreshTotalsLocked();
  opened_ = true;
  return Status::Ok();
}

void ColdTier::RefreshTotalsLocked() {
  std::uint64_t rows = 0;
  std::uint64_t last_seq = last_compacted_seq_.load(std::memory_order_acquire);
  for (const LiveBlock& block : *entries_) {
    rows += block.entry.row_count;
    last_seq = std::max(last_seq, block.entry.last_wal_seq);
  }
  total_rows_.store(rows, std::memory_order_release);
  // Monotonic: quarantining the newest block must not re-open its WAL
  // sequences for compaction (their segment files are already gone).
  last_compacted_seq_.store(last_seq, std::memory_order_release);
}

Status ColdTier::Reconcile(Archiver<Sample>& archiver) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  if (!opened_) {
    return Status(ErrorCode::kFailedPrecondition, "cold tier not opened");
  }
  // Finish step 4 of any interrupted compaction: every manifest-covered
  // WAL segment is redundant and must go.
  const std::uint64_t last =
      last_compacted_seq_.load(std::memory_order_acquire);
  if (last > 0) archiver.DropSegmentsThrough(last);

  // Sweep orphans: temp files from aborted block writes, block files that
  // never made it into the manifest, and a leftover manifest temp.
  std::vector<std::string> referenced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const LiveBlock& block : *entries_) {
      referenced.push_back(block.entry.block_file);
    }
  }
  const fs::path base(base_path_);
  const std::string prefix = base.filename().string() + ".";
  std::error_code ec;
  const fs::path dir =
      base.has_parent_path() ? base.parent_path() : fs::path(".");
  if (fs::exists(dir, ec)) {
    for (const auto& item : fs::directory_iterator(dir, ec)) {
      const std::string name = item.path().filename().string();
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      const auto ends_with = [&name](const char* suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
      };
      const bool tmp = ends_with(kTmpSuffix) || ends_with(".manifest.tmp");
      const bool orphan_block =
          ends_with(kBlockSuffix) &&
          std::find(referenced.begin(), referenced.end(), name) ==
              referenced.end();
      if (tmp || orphan_block) {
        std::error_code remove_ec;
        fs::remove(item.path(), remove_ec);
      }
    }
  }
  return Status::Ok();
}

Expected<CompactResult> ColdTier::CompactOnce(Archiver<Sample>& archiver,
                                              std::size_t max_segments) {
  TRACE_SPAN("coldtier.compact", base_path_);
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  if (!opened_) {
    return Error(ErrorCode::kFailedPrecondition, "cold tier not opened");
  }
  const TimeNs start = RealClock::Instance().Now();
  CompactResult result;
  const auto hook = [this](const char* point, std::uint64_t seq) {
    if (config_.crash_hook) config_.crash_hook(point, seq);
  };
  using Record = Archiver<Sample>::Record;
  BlockColumns rows;  // each segment's, reusing the last one's arrays

  for (const auto& seg : archiver.SealedSegments()) {
    if (result.segments_compacted >= max_segments) break;
    if (IsCompacted(seg.seq)) continue;  // crash window leftovers

    // Decode the sealed segment. Sealed files are immutable, so this read
    // happens outside every archiver lock.
    std::FILE* f = std::fopen(seg.path.c_str(), "rb");
    if (f == nullptr) {
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kIoError,
                   "compact: segment open failed: " + seg.path);
    }
    std::fseek(f, 0, SEEK_END);
    const long seg_size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> raw(seg_size > 0 ? seg_size : 0);
    const bool read_ok =
        raw.empty() || std::fread(raw.data(), 1, raw.size(), f) == raw.size();
    std::fclose(f);
    if (!read_ok) {
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kIoError,
                   "compact: segment read failed: " + seg.path);
    }
    rows.Resize(0);
    const wal::ScanResult scan = wal::ScanBuffer(
        raw.data(), raw.size(),
        [&rows](const std::uint8_t* payload, std::uint32_t len) {
          if (len != sizeof(Record)) return;
          Record rec;
          std::memcpy(&rec, payload, sizeof(rec));
          rows.Push(rec.id, Sample{rec.timestamp, rec.payload.value,
                                   rec.payload.provenance});
        });
    if (!scan.clean || rows.size() != seg.records) {
      // The segment was damaged on disk since the archiver opened it. The
      // archiver applies its open's rule: it cuts the segment to its valid
      // prefix (or quarantines it) and counts the records lost, so every
      // later answer over the history says it misses rows. What survived
      // is the prefix decoded above; it is compacted like any segment.
      auto kept = archiver.RecoverSealedSegment(seg.seq);
      if (!kept.ok() || *kept > rows.size()) {
        Counters().compact_failures.Inc();
        return Error(ErrorCode::kParseError,
                     "compact: segment unreadable: " + seg.path);
      }
      rows.Resize(*kept);
    }
    if (rows.size() == 0) {
      // An empty sealed segment holds nothing worth a block; drop it.
      archiver.DropSegmentsThrough(seg.seq);
      ++result.segments_compacted;
      continue;
    }

    if (InjectedFault(FaultSite::kCompactWrite)) {
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kIoError,
                   "injected compact write failure: " + base_path_);
    }

    std::vector<std::uint8_t> image;
    if (!EncodeBlock(rows, image)) {
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kInternal,
                   "compact: block encode failed: " + seg.path);
    }

    // Step 2: temp write + fsync + rename.
    const std::string block_path = BlockPathFor(seg.seq);
    const std::string tmp_path = block_path + ".tmp";
    std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
    if (out == nullptr) {
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kIoError,
                   "compact: block temp open failed: " + tmp_path);
    }
    const std::size_t half = image.size() / 2;
    bool write_ok = std::fwrite(image.data(), 1, half, out) == half;
    if (write_ok) std::fflush(out);
    hook(kCrashMidBlockWrite, seg.seq);
    write_ok = write_ok &&
               std::fwrite(image.data() + half, 1, image.size() - half,
                           out) == image.size() - half;
    if (!write_ok || std::fflush(out) != 0 || ::fsync(fileno(out)) != 0) {
      std::fclose(out);
      std::remove(tmp_path.c_str());
      Counters().compact_failures.Inc();
      return Error(ErrorCode::kIoError,
                   "compact: block write failed: " + tmp_path);
    }
    std::fclose(out);
    hook(kCrashPreRename, seg.seq);
    if (std::rename(tmp_path.c_str(), block_path.c_str()) != 0) {
      std::remove(tmp_path.c_str());
      Counters().compact_failures.Inc();
      const Status status = IoError("compact: block rename failed", block_path);
      return Error(status.code(), status.message());
    }
    hook(kCrashPostRename, seg.seq);

    // Step 3: manifest commit — the point of no return for this segment.
    ManifestEntry entry;
    entry.first_wal_seq = seg.seq;
    entry.last_wal_seq = seg.seq;
    entry.row_count = rows.size();
    entry.zone = ComputeZoneMap(rows);
    entry.block_file = fs::path(block_path).filename().string();
    Manifest next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const LiveBlock& block : *entries_) {
        next.entries.push_back(block.entry);
      }
    }
    next.entries.push_back(entry);
    hook(kCrashPreManifest, seg.seq);
    if (Status status = WriteManifestAtomic(ManifestPath(), next);
        !status.ok()) {
      std::remove(block_path.c_str());  // back to old state: WAL still wins
      Counters().compact_failures.Inc();
      return Error(status.code(), status.message());
    }
    hook(kCrashPostManifest, seg.seq);
    {
      // The live list as it is now (a quarantine since the copy above
      // stays in effect) plus the new block, which has no summary until a
      // read verifies it.
      std::lock_guard<std::mutex> lock(mu_);
      auto blocks = std::make_shared<Entries>(*entries_);
      blocks->push_back(LiveBlock{std::move(entry)});
      entries_ = std::move(blocks);
      RefreshTotalsLocked();
    }

    // Step 4: the WAL copy is now redundant.
    hook(kCrashPreWalDelete, seg.seq);
    archiver.DropSegmentsThrough(seg.seq);

    ++result.segments_compacted;
    ++result.blocks_written;
    result.rows_compacted += rows.size();
    result.raw_bytes += raw.size();
    result.block_bytes += image.size();
  }

  ColdCounters& counters = Counters();
  if (result.segments_compacted > 0) {
    counters.compactions.Inc();
    counters.segments_compacted.Inc(result.segments_compacted);
    counters.blocks_written.Inc(result.blocks_written);
    counters.rows_compacted.Inc(result.rows_compacted);
    counters.raw_bytes.Inc(result.raw_bytes);
    counters.block_bytes.Inc(result.block_bytes);
  }
  counters.compact_ns.Record(RealClock::Instance().Now() - start);
  return result;
}

void ColdTier::QuarantineBlock(const ManifestEntry& entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto next = std::make_shared<Entries>();
    for (const LiveBlock& block : *entries_) {
      if (block.entry.block_file != entry.block_file) next->push_back(block);
    }
    if (next->size() == entries_->size()) return;  // a concurrent scan won
    // Counted before the block leaves the live set: a reader whose snapshot
    // lacks the block then sees the count (aqe::HistoryIncomplete).
    quarantined_blocks_.fetch_add(1, std::memory_order_acq_rel);
    entries_ = std::move(next);
    RefreshTotalsLocked();
  }
  Counters().blocks_quarantined.Inc();
  const std::string path = block_dir_ + entry.block_file;
  std::error_code ec;
  fs::rename(path, path + ".corrupt", ec);
}

Status ColdTier::VisitRange(TimeNs from_ts, TierCap cap,
                            const SummaryVisitor& summary,
                            const SpanVisitor& visit, ColdScanStats* stats) {
  TRACE_SPAN("coldtier.scan", base_path_);
  ColdScanStats local;
  if (stats == nullptr) stats = &local;
  const ColdScanStats before = *stats;
  const TimeNs start = RealClock::Instance().Now();
  std::shared_ptr<const Entries> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = entries_;
  }
  // Every block of every scan on this thread decodes into the same
  // columns, and its path into the same string: once they have grown to
  // the largest block, a scan allocates nothing.
  thread_local DecodedBlock block;
  thread_local std::string path;
  ColdCounters& counters = Counters();
  counters.scans.Inc();
  for (const LiveBlock& live : *snapshot) {
    const ManifestEntry& entry = live.entry;
    ++stats->blocks_total;
    if (entry.zone.max_ts < from_ts || entry.zone.min_ts > cap.to_ts) {
      ++stats->blocks_pruned;
      continue;
    }
    const TierSummary* known =
        live.slot->summary.load(std::memory_order_acquire);
    if (known != nullptr && summary && summary(*known)) {
      ++stats->blocks_summarized;
      continue;
    }
    if (InjectedFault(FaultSite::kBlockRead)) {
      ++stats->read_errors;
      counters.read_errors.Inc();
      continue;
    }
    path.assign(block_dir_).append(entry.block_file);
    MappedFile file;
    if (!file.Open(path)) {
      ++stats->read_errors;
      counters.read_errors.Inc();
      continue;
    }
    const BlockColumns& rows = block.columns;
    if (!DecodeBlock(file.data(), file.size(), &block) ||
        rows.size() != entry.row_count || !(block.zone == entry.zone)) {
      // Corrupt, or a different block than the manifest committed: either
      // way its rows cannot be trusted. Quarantine and keep scanning.
      QuarantineBlock(entry);
      ++stats->blocks_quarantined;
      continue;
    }
    const std::size_t n = rows.size();
    if (known == nullptr) {
      // Verified: its rows become its summary, unless a concurrent read
      // got there first.
      const ColumnSpan all = rows.samples.View(0, n);
      TierSummaryBuilder builder;
      for (std::size_t i = 0; i < n; ++i) builder.Add(rows.ids[i], all.At(i));
      auto fresh = std::make_unique<TierSummary>(builder.Finish());
      const TierSummary* expected = nullptr;
      if (live.slot->summary.compare_exchange_strong(
              expected, fresh.get(), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        fresh.release();
      }
    }
    ++stats->blocks_scanned;
    // The kept rows, one span per run of them.
    const TimeNs* ts = rows.samples.ts.data();
    const auto kept = [&](std::size_t i) {
      return ts[i] >= from_ts && cap.Keeps(ts[i], rows.ids[i]);
    };
    for (std::size_t i = 0, end = 0; i < n; i = end) {
      while (i < n && !kept(i)) ++i;
      for (end = i; end < n && kept(end);) ++end;
      if (end == i) continue;
      visit(&rows.ids[i], rows.samples.View(i, end));
      stats->rows_visited += end - i;
    }
  }
  counters.blocks_scanned.Inc(stats->blocks_scanned - before.blocks_scanned);
  counters.blocks_summarized.Inc(stats->blocks_summarized -
                                 before.blocks_summarized);
  counters.blocks_pruned.Inc(stats->blocks_pruned - before.blocks_pruned);
  counters.rows_read.Inc(stats->rows_visited - before.rows_visited);
  counters.scan_ns.Record(RealClock::Instance().Now() - start);
  return Status::Ok();
}

std::uint64_t ColdTier::BlockCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_->size();
}

std::vector<std::string> ColdTier::BlockPaths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(entries_->size());
  for (const LiveBlock& block : *entries_) {
    paths.push_back(block_dir_ + block.entry.block_file);
  }
  return paths;
}

void ColdTier::TsBounds(TimeNs* min_ts, TimeNs* max_ts) const {
  std::lock_guard<std::mutex> lock(mu_);
  *min_ts = 0;
  *max_ts = 0;
  bool first = true;
  for (const LiveBlock& block : *entries_) {
    const ZoneMap& zone = block.entry.zone;
    if (first) {
      *min_ts = zone.min_ts;
      *max_ts = zone.max_ts;
      first = false;
    } else {
      *min_ts = std::min(*min_ts, zone.min_ts);
      *max_ts = std::max(*max_ts, zone.max_ts);
    }
  }
}

}  // namespace apollo::coldtier
