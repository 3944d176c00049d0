// TelemetryStream: in-memory append-only timestamped log of Samples with
// cursor-based consumption — the Redis Streams substitute.
//
// Semantics mirrored from Redis Streams:
//  - entries get monotonically increasing ids on append;
//  - any number of independent consumers read from their own cursor (XREAD);
//  - the in-memory window is bounded (XTRIM ~ maxlen) and evicted entries
//    are handed to an optional Archiver.
//
// Hot-path layout: the window is a power-of-two ring buffer indexed by
// entry id (slot = id & mask), so id lookup is O(1) and eviction is a
// pointer bump — no deque node churn. The ring is three columns
// (timestamp, value, provenance: 17 B a row), each id implied by its
// slot, so a scan reads only the columns it tests (VisitColumns); Entry
// values are assembled as rows are copied out. The ring grows
// geometrically up to the capacity so small streams stay small. Each
// stream also keeps a rolling aggregate index (count/sum/min/max/latest,
// monotonic wedges for min/max) so predicate-free aggregate queries answer
// in O(1).
//
// One mutex guards the window. An append collects the rows it evicts and
// hands them to Archiver::AppendBatch (one pwrite per WAL chunk) before it
// releases that mutex, so a row leaves the ring only once the archive holds
// it (or has counted it in Archiver::Failures()). The cost: a reader of the
// same stream on another thread waits while that write runs, fsync
// included under kEveryN.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/exact_sum.h"
#include "obs/trace.h"
#include "pubsub/archiver.h"
#include "pubsub/telemetry.h"

namespace apollo {

template <typename T>
struct StreamEntry {
  std::uint64_t id = 0;
  TimeNs timestamp = 0;
  T value{};
};

// O(1) snapshot of the rolling aggregates over a stream's in-memory
// window. `sum_value` is the rolling double sum of the finite values (exact
// for integer-valued payloads); NaN and the infinities are counted instead,
// and SUM applies common/exact_sum.h's SumRule to the counts.
struct StreamAggregates {
  std::size_t count = 0;
  double sum_value = 0.0;
  std::uint64_t nan_values = 0;
  std::uint64_t pos_inf_values = 0;
  std::uint64_t neg_inf_values = 0;
  double min_value = 0.0;
  double max_value = 0.0;
  double sum_timestamp = 0.0;
  TimeNs min_timestamp = 0;
  TimeNs max_timestamp = 0;
  std::uint64_t predicted = 0;  // entries with Provenance::kPredicted
  StreamEntry<Sample> latest{};
};

class TelemetryStream {
 public:
  using Entry = StreamEntry<Sample>;
  using Record = Archiver<Sample>::Record;

  // The most rows one ColumnSpan of a bounded range holds (VisitColumns).
  static constexpr std::size_t kSpanRows = 64;

  // `capacity` bounds the in-memory window; `archiver` (optional, not owned)
  // receives evicted entries.
  explicit TelemetryStream(std::size_t capacity = 4096,
                           Archiver<Sample>* archiver = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity), archiver_(archiver) {
    const std::size_t slots =
        std::min<std::size_t>(RoundUpPow2(capacity_), 64);
    entry_ts_.resize(slots);
    values_.resize(slots);
    provenance_.resize(slots);
    mask_ = slots - 1;
  }

  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;

  // Appends one entry; returns its id. Thread-safe (multi-producer). A batch
  // of one: see AppendBatch.
  std::uint64_t Append(TimeNs timestamp, const Sample& value) {
    const Entry entry{0, timestamp, value};
    return AppendBatch(&entry, 1);
  }

  // Appends `n` entries under one lock acquisition. Entry `id` fields in
  // `entries` are ignored, and so are Sample timestamps (a row has one
  // time, the entry's); ids are assigned contiguously and the id of the
  // last appended entry is returned (first is `returned - n + 1`). The
  // entries this evicts go to the archiver in one AppendBatch call before
  // the lock is released. Precondition: n > 0.
  std::uint64_t AppendBatch(const Entry* entries, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < n; ++i) {
      id = next_id_++;
      if (id - first_id_ == capacity_) {
        // Entries below restore_limit_ were restored from a durable copy
        // (see RestoreWindowAt) — re-archiving them would duplicate it.
        if (archiver_ != nullptr && first_id_ >= restore_limit_) {
          // Built in place from the columns, with no Entry or Record
          // copied on the way: zeroed first, padding included, as
          // MakeRecord does, so the WAL's CRCs stay deterministic.
          const auto slot = static_cast<std::size_t>(first_id_ & mask_);
          Record& record = evicted_.emplace_back();
          std::memset(static_cast<void*>(&record), 0, sizeof(record));
          record.id = first_id_;
          record.timestamp = record.payload.timestamp = entry_ts_[slot];
          record.payload.value = values_[slot];
          record.payload.provenance = provenance_[slot];
        }
        IndexEvict(first_id_);
        ++first_id_;
      } else if (id - first_id_ == entry_ts_.size()) {
        Grow();
      }
      Store(id, entries[i].timestamp, entries[i].value);
    }
    if (!evicted_.empty()) {
      // A record that still fails after the archiver's retry policy is
      // dropped and counted in Archiver::Failures() (blocking producers
      // forever on a dead disk would be worse).
      TRACE_SPAN("stream.flush_evictions");
      GlobalTelemetry().stream_evictions.Inc(evicted_.size());
      (void)archiver_->AppendBatch(evicted_.data(), evicted_.size());
      evicted_.clear();  // keeps its capacity for the next append
    }
    return id;
  }

  // Reads up to `max_entries` entries with id >= cursor into `out`
  // (cleared first); advances cursor past the last returned entry.
  // Non-blocking, no allocation once `out` has warmed up.
  std::size_t Read(std::uint64_t& cursor, std::vector<Entry>& out,
                   std::size_t max_entries = SIZE_MAX) const {
    out.clear();
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t id = std::max(cursor, first_id_);
    for (; id < next_id_ && out.size() < max_entries; ++id) {
      out.push_back(EntryAt(id));
    }
    if (!out.empty()) cursor = out.back().id + 1;
    return out.size();
  }

  // Allocating convenience wrapper.
  std::vector<Entry> Read(std::uint64_t& cursor,
                          std::size_t max_entries = SIZE_MAX) const {
    std::vector<Entry> out;
    Read(cursor, out, max_entries);
    return out;
  }

  // Most recent entry, if any.
  std::optional<Entry> Latest() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_id_ == next_id_) return std::nullopt;
    return EntryAt(next_id_ - 1);
  }

  // All in-memory entries with timestamp in [from_ts, to_ts], copied into
  // `out` (cleared first). Entries are appended in non-decreasing timestamp
  // order, so a binary search finds the first; the range ends before the
  // first later entry past `to_ts`.
  void RangeByTime(TimeNs from_ts, TimeNs to_ts,
                   std::vector<Entry>& out) const {
    out.clear();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::uint64_t id = first_id_ + LowerPosByTime(from_ts);
         id < next_id_ && entry_ts_[id & mask_] <= to_ts; ++id) {
      out.push_back(EntryAt(id));
    }
  }

  // Allocating convenience wrapper.
  std::vector<Entry> RangeByTime(TimeNs from_ts, TimeNs to_ts) const {
    std::vector<Entry> out;
    RangeByTime(from_ts, to_ts, out);
    return out;
  }

  // Hands `fn` the rows RangeByTime(from_ts, to_ts) would copy, in place
  // and in id order, as column spans that never cross the ring's wrap. An
  // open range (to_ts the largest TimeNs) comes as one span, or two where
  // it wraps. A bounded one comes kSpanRows rows at a time, each span
  // ending early at the first row past to_ts, so its end is found as the
  // rows are handed over and a stop walks no further. `fn(std::uint64_t
  // first_id, const ColumnSpan& rows)`, where row j has id first_id + j,
  // returns false to skip the rest. Runs under the stream lock: keep `fn`
  // cheap and re-entrancy-free (no calls back into this stream).
  template <typename Fn>
  void VisitColumns(TimeNs from_ts, TimeNs to_ts, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    const bool bounded = to_ts != std::numeric_limits<TimeNs>::max();
    for (std::uint64_t id = first_id_ + LowerPosByTime(from_ts);
         id < next_id_;) {
      const std::size_t slot = static_cast<std::size_t>(id & mask_);
      std::size_t rows = static_cast<std::size_t>(
          std::min<std::uint64_t>(next_id_ - id, entry_ts_.size() - slot));
      std::size_t size = rows;
      if (bounded) {
        rows = std::min(rows, kSpanRows);
        size = 0;
        while (size < rows && entry_ts_[slot + size] <= to_ts) ++size;
      }
      if (size > 0 &&
          !fn(id, ColumnSpan{&entry_ts_[slot], &values_[slot],
                             &provenance_[slot], size})) {
        return;
      }
      if (size < rows) return;  // the first row past to_ts
      id += size;
    }
  }

  // Latest entry at or before `ts` (the "value as of time t" query).
  std::optional<Entry> LatestAtOrBefore(TimeNs ts) const {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t pos = UpperPosByTime(ts);
    if (pos == 0) return std::nullopt;
    return EntryAt(first_id_ + pos - 1);
  }

  // Rolling aggregates over the in-memory window, O(1). Empty window yields
  // nullopt.
  std::optional<StreamAggregates> Aggregates() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_id_ == next_id_) return std::nullopt;
    StreamAggregates agg;
    agg.count = static_cast<std::size_t>(next_id_ - first_id_);
    agg.sum_value = sum_value_;
    agg.nan_values = nan_values_;
    agg.pos_inf_values = pos_inf_values_;
    agg.neg_inf_values = neg_inf_values_;
    // NaN never enters a wedge: an all-NaN window has no min or max.
    agg.min_value = min_wedge_.empty() ? kNan : ValueOf(min_wedge_.front());
    agg.max_value = max_wedge_.empty() ? kNan : ValueOf(max_wedge_.front());
    agg.sum_timestamp = sum_ts_;
    agg.min_timestamp = entry_ts_[first_id_ & mask_];
    agg.max_timestamp = entry_ts_[(next_id_ - 1) & mask_];
    agg.predicted = predicted_;
    agg.latest = EntryAt(next_id_ - 1);
    return agg;
  }

  // Next id that will be assigned; a cursor initialized to this value sees
  // only future entries.
  std::uint64_t NextId() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_;
  }

  // Id of the oldest in-memory entry (== NextId() when empty).
  std::uint64_t FirstId() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_id_;
  }

  std::size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(next_id_ - first_id_);
  }

  std::size_t Capacity() const { return capacity_; }
  Archiver<Sample>* archiver() const { return archiver_; }

  // Degraded-data flag: set by the vertex supervisor when the producer
  // feeding this stream has crashed or stalled, cleared when fresh measured
  // data flows again. Queries answered from a degraded stream carry the
  // flag so consumers know they are reading last-known-good state.
  // Returns the previous value so callers can count transitions exactly.
  bool SetDegraded(bool degraded) {
    return degraded_.exchange(degraded, std::memory_order_acq_rel);
  }
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  // Evicted entries are archived before the append that evicted them
  // returns, so there is never anything left to flush; always Ok. Kept
  // only because perfbench/ calls it, like Executor(Broker&, nullptr_t).
  Status FlushEvictions() { return Status::Ok(); }

  // Seeds an empty stream with a window from a durable copy, oldest first,
  // KEEPING the entries' ids: the archive tail on restart
  // (ApolloService::Recover) or a peer replica's window on cluster resync.
  // Ids that survive mean cursors, CQ resume points and the tier merge's
  // id tiebreak refer to the same rows across a restart, and a resynced
  // node assigns the same ids as its peers. `entries` must be
  // id-contiguous; the window starts at entries.front().id and the next
  // append takes the id after the last one. Restored entries are never
  // re-archived on eviction (the copy they came from holds them). Fails
  // with kFailedPrecondition on a stream that has ever been appended to,
  // and kInvalidArgument when `entries` exceeds the capacity or has gaps.
  Status RestoreWindowAt(const std::vector<Entry>& entries) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_id_ != 0) {
      return Status(ErrorCode::kFailedPrecondition,
                    "RestoreWindowAt requires an empty stream");
    }
    if (entries.size() > capacity_) {
      return Status(ErrorCode::kInvalidArgument,
                    "restore batch exceeds stream capacity");
    }
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].id != entries[i - 1].id + 1) {
        return Status(ErrorCode::kInvalidArgument,
                      "restore batch ids not contiguous");
      }
    }
    while (entry_ts_.size() < entries.size()) Grow();
    if (!entries.empty()) {
      first_id_ = entries.front().id;
      next_id_ = entries.front().id;
    }
    for (const Entry& entry : entries) {
      Store(next_id_++, entry.timestamp, entry.value);
    }
    restore_limit_ = next_id_;
    return Status::Ok();
  }

 private:
  static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  static std::size_t RoundUpPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // The entry with id `id`, assembled from the columns. Caller holds mu_.
  Entry EntryAt(std::uint64_t id) const {
    const std::size_t slot = static_cast<std::size_t>(id & mask_);
    return Entry{id, entry_ts_[slot],
                 Sample{entry_ts_[slot], values_[slot], provenance_[slot]}};
  }

  double ValueOf(std::uint64_t id) const {
    return values_[static_cast<std::size_t>(id & mask_)];
  }

  // Writes entry `id` into its slot and indexes it. Caller holds mu_ and
  // has made room: id is below first_id_ + the ring size.
  void Store(std::uint64_t id, TimeNs timestamp, const Sample& sample) {
    const std::size_t slot = static_cast<std::size_t>(id & mask_);
    entry_ts_[slot] = timestamp;
    values_[slot] = sample.value;
    provenance_[slot] = sample.provenance;
    IndexAppend(id, timestamp, sample);
  }

  // First window position whose timestamp >= ts. Positions are offsets from
  // first_id_; caller holds mu_.
  std::size_t LowerPosByTime(TimeNs ts) const {
    std::size_t lo = 0, hi = static_cast<std::size_t>(next_id_ - first_id_);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entry_ts_[(first_id_ + mid) & mask_] < ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // First window position whose timestamp > ts. Caller holds mu_.
  std::size_t UpperPosByTime(TimeNs ts) const {
    std::size_t lo = 0, hi = static_cast<std::size_t>(next_id_ - first_id_);
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entry_ts_[(first_id_ + mid) & mask_] <= ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Doubles the ring, remapping live entries to their new slots. Caller
  // holds mu_; only reached while the ring is below RoundUpPow2(capacity_).
  void Grow() {
    const std::size_t new_mask = entry_ts_.size() * 2 - 1;
    const auto remap = [&](auto& column) {
      std::remove_reference_t<decltype(column)> bigger(new_mask + 1);
      for (std::uint64_t id = first_id_; id != next_id_; ++id) {
        bigger[id & new_mask] = column[id & mask_];
      }
      column = std::move(bigger);
    };
    remap(entry_ts_);
    remap(values_);
    remap(provenance_);
    mask_ = new_mask;
  }

  // The count a non-finite value goes to: NaN, +inf or -inf.
  std::uint64_t& NonFiniteCount(double v) {
    return std::isnan(v) ? nan_values_ : v > 0 ? pos_inf_values_
                                               : neg_inf_values_;
  }

  void IndexAppend(std::uint64_t id, TimeNs timestamp, const Sample& sample) {
    const double v = sample.value;
    // A non-finite value would poison the rolling sum for good (inf - inf
    // is NaN), so it is counted instead.
    if (std::isfinite(v)) [[likely]] {
      sum_value_ += v;
    } else {
      ++NonFiniteCount(v);
    }
    sum_ts_ += static_cast<double>(timestamp);
    if (sample.provenance == Provenance::kPredicted) ++predicted_;
    // MIN/MAX ignore NaN, as the scan does; a NaN in a wedge would never
    // be popped and would hide every later value. The wedges order -0.0
    // below +0.0 (OrdersBelow), as the scan does, so MIN/MAX do not depend
    // on which zero arrived first.
    if (std::isnan(v)) return;
    while (!max_wedge_.empty() && !OrdersBelow(v, ValueOf(max_wedge_.back()))) {
      max_wedge_.pop_back();
    }
    max_wedge_.push_back(id);
    while (!min_wedge_.empty() && !OrdersBelow(ValueOf(min_wedge_.back()), v)) {
      min_wedge_.pop_back();
    }
    min_wedge_.push_back(id);
  }

  // Takes entry `id`, still in its slot, out of the index.
  void IndexEvict(std::uint64_t id) {
    const std::size_t slot = static_cast<std::size_t>(id & mask_);
    const double v = values_[slot];
    if (std::isfinite(v)) [[likely]] {
      sum_value_ -= v;
    } else {
      --NonFiniteCount(v);
    }
    sum_ts_ -= static_cast<double>(entry_ts_[slot]);
    if (provenance_[slot] == Provenance::kPredicted) --predicted_;
    if (!max_wedge_.empty() && max_wedge_.front() == id) {
      max_wedge_.pop_front();
    }
    if (!min_wedge_.empty() && min_wedge_.front() == id) {
      min_wedge_.pop_front();
    }
  }

  // A monotone wedge: ids of window rows, oldest first, whose values can
  // still become the window's min (or max). A ring that doubles when full
  // and never shrinks: a warm append allocates nothing (a deque would).
  class Wedge {
   public:
    bool empty() const { return head_ == tail_; }
    std::uint64_t front() const { return ids_[head_ & mask_]; }
    std::uint64_t back() const { return ids_[(tail_ - 1) & mask_]; }
    void pop_front() { ++head_; }
    void pop_back() { --tail_; }
    void push_back(std::uint64_t id) {
      if (tail_ - head_ == ids_.size()) {
        std::vector<std::uint64_t> bigger(
            std::max<std::size_t>(8, 2 * ids_.size()));
        for (std::uint64_t at = head_; at != tail_; ++at) {
          bigger[at & (bigger.size() - 1)] = ids_[at & mask_];
        }
        ids_ = std::move(bigger);
        mask_ = ids_.size() - 1;
      }
      ids_[tail_++ & mask_] = id;
    }

   private:
    std::vector<std::uint64_t> ids_;
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0;  // the live ids sit at positions [head_, tail_)
    std::uint64_t tail_ = 0;
  };

  const std::size_t capacity_;
  Archiver<Sample>* archiver_;
  std::atomic<bool> degraded_{false};
  mutable std::mutex mu_;

  // The ring's columns, indexed by id & mask_; live ids are [first_id_,
  // next_id_). Every column has the same power-of-two size.
  std::vector<TimeNs> entry_ts_;
  std::vector<double> values_;
  std::vector<Provenance> provenance_;
  std::size_t mask_ = 0;
  std::uint64_t first_id_ = 0;
  std::uint64_t next_id_ = 0;
  // Ids below this were restored from a durable copy (see RestoreWindowAt)
  // and must not be re-archived on eviction.
  std::uint64_t restore_limit_ = 0;
  std::vector<Record> evicted_;  // this append's evictions (see AppendBatch)

  // Rolling aggregate index (guarded by mu_). The wedges hold ids whose
  // values are in monotone order, so window min/max evict in O(1).
  double sum_value_ = 0.0;  // finite values only
  std::uint64_t nan_values_ = 0;
  std::uint64_t pos_inf_values_ = 0;
  std::uint64_t neg_inf_values_ = 0;
  double sum_ts_ = 0.0;
  std::uint64_t predicted_ = 0;
  Wedge max_wedge_;
  Wedge min_wedge_;
};

}  // namespace apollo
