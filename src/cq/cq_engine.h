// Continuous-query engine: materialized incremental aggregates pushed to
// subscribers, maintained from the stream's O(1) rolling index — never by
// re-executing the query.
//
// A client registers `SUBSCRIBE SELECT ... [EVERY n ms]` under a
// (tenant, name) key. The engine validates that every UNION branch is
// index-answerable (no WHERE / ORDER BY / LIMIT — the same shape the
// executor's "index" strategy serves in O(1)), takes an immediate
// snapshot, and from then on re-derives the materialized rows only when
// a publish lands on one of the query's topics: Broker::PublishObserver
// flips a per-topic dirty bit (publisher thread, two atomics), and the
// daemon's pump timer evaluates dirty queries on the loop thread by
// reading Stream::Aggregates() through aqe::IndexAggregateCell — the
// cells a one-shot query computes from the same index, without parsing,
// planning, or scanning anything. Where the one-shot query would not trust
// the index (aqe::IndexAnswersExactly: rows beyond the ring in the WAL or
// cold tier) the push carries the index's partial answer with
// degraded=true.
//
// Delivery protocol (epoch, seq):
//   - registration starts epoch 1; the initial snapshot is seq 1 and
//     every subsequent changed result increments seq.
//   - updates are full row sets (clients replace, not merge), retained in
//     a bounded per-CQ ring. A reconnecting client echoes its last
//     (epoch, seq); when the ring still covers the gap the engine resumes
//     delivery at seq+1 — no duplicates, no holes. When it cannot (ring
//     overflow, changed SQL, unknown epoch) it bumps the epoch and
//     restarts from a fresh snapshot, so a client can always detect a
//     discontinuity by the epoch alone.
//   - under backpressure the engine coalesces: while the newest update is
//     still undelivered, re-evaluations overwrite it in place instead of
//     growing the queue. The client sees the latest state the moment the
//     connection drains, and seq stays hole-free.
//
// Admission: Pump() evaluates dirty queries in id order and charges each
// evaluation against the tenant's token bucket; an over-quota query stays
// dirty (counted in apollo_cq_throttled_total{tenant}) and retries next
// pump, so one tenant's publish storm cannot starve another tenant's
// pushes.
//
// Threading: Register/Cancel/DetachConn/Pump run on the daemon loop
// thread (a mutex still guards the records so tests and metrics can peek
// from elsewhere). OnPublish is called from publisher threads and only
// touches the shared-lock topic-watch map plus relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aqe/ast.h"
#include "aqe/executor.h"
#include "common/clock.h"
#include "common/expected.h"
#include "cq/admission.h"
#include "obs/metrics.h"
#include "pubsub/broker.h"

namespace apollo::cq {

struct CQOptions {
  // Updates retained per CQ for reconnect resume (ring overflow forces an
  // epoch bump on resume).
  std::size_t update_ring = 64;
  // Registration cap across all tenants.
  std::size_t max_queries = 4096;
  // Token-bucket cost charged per CQ evaluation (one-shot queries charge
  // 1.0; a CQ evaluation is index reads only, so it can be cheaper).
  double eval_cost = 1.0;
};

// One incremental push: the full materialized row set at (epoch, seq).
struct CQUpdate {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  aqe::ResultSet result;
};

// Identity handed to the emit callback alongside each update.
struct CQInfo {
  std::uint64_t cq_id = 0;
  std::uint64_t conn_id = 0;  // owning connection (0 = detached)
  std::string tenant;
  std::string name;
};

class CQEngine : public PublishObserver {
 public:
  CQEngine(Broker& broker, CQOptions options = {});

  // Outcome of Register: resumed=true means delivery continues at
  // seq `last_seq`+1 within `epoch`; otherwise `epoch` is fresh (or
  // bumped) and the first push will be its seq-1 snapshot.
  struct Registration {
    std::uint64_t cq_id = 0;
    std::uint64_t epoch = 0;
    std::uint64_t last_seq = 0;  // last seq the client is assumed to hold
    bool resumed = false;
  };

  // Registers (or re-attaches) the continuous query `sql` under
  // (tenant, name). `resume_epoch`/`resume_seq` echo the client's last
  // received update (0/0 = fresh). Fails with kInvalidArgument when the
  // SQL is not a SUBSCRIBE query or not index-answerable, and
  // kResourceExhausted at max_queries.
  Expected<Registration> Register(std::uint64_t conn_id,
                                  const std::string& tenant,
                                  const std::string& name,
                                  const std::string& sql,
                                  std::uint64_t resume_epoch,
                                  std::uint64_t resume_seq, TimeNs now);

  // Cancels a CQ outright (record and resume history discarded). The
  // caller is expected to own it; kNotFound otherwise.
  Status Cancel(std::uint64_t cq_id, std::uint64_t conn_id);

  // Connection closed: detaches (but keeps) its CQs so the client can
  // reconnect and resume. Returns the detached cq ids.
  std::vector<std::uint64_t> DetachConn(std::uint64_t conn_id);

  // Broker publish hook — publisher threads; flips a dirty bit.
  void OnPublish(const std::string& topic, std::size_t n) override;

  // Returns false to signal backpressure: delivery for that CQ stops and
  // retries next pump (the update is not considered delivered).
  using EmitFn = std::function<bool(const CQInfo&, const CQUpdate&)>;

  // Evaluates dirty queries (id order, admission-gated when `admission`
  // is non-null) and emits undelivered updates for attached connections.
  // Loop thread. Returns the number of updates emitted.
  std::size_t Pump(TimeNs now, AdmissionController* admission,
                   const EmitFn& emit);

  std::size_t ActiveCount() const;

  // Continuous queries currently attached to `conn_id`.
  std::size_t OwnedCount(std::uint64_t conn_id) const;

 private:
  struct Branch {
    std::string topic;
    const aqe::Select* select = nullptr;  // borrowed from record's query
    TelemetryStream* stream = nullptr;    // cached; revalidated by version
    std::uint64_t registry_version = 0;
  };

  struct CQRecord {
    std::uint64_t id = 0;
    std::uint64_t conn_id = 0;  // 0 = detached (resumable)
    std::string tenant;
    std::string name;
    std::string sql;
    aqe::Query query;
    std::vector<Branch> branches;
    std::uint64_t epoch = 1;
    std::uint64_t seq = 0;            // last materialized update
    std::uint64_t delivered_seq = 0;  // last update the client holds
    TimeNs last_eval = 0;
    bool dirty = false;
    std::deque<CQUpdate> ring;  // retained updates, oldest first
    // Previous materialized values per branch row (change detection).
    std::vector<std::vector<double>> last_values;
    bool last_degraded = false;
    bool has_snapshot = false;
  };

  struct TopicWatch {
    std::atomic<bool> dirty{false};
    std::vector<std::uint64_t> cq_ids;  // guarded by watch_mu_
  };

  struct TenantCounters {
    obs::Counter updates;
    obs::Counter evals;
    obs::Counter throttled;
    obs::Counter coalesced;
  };

  // Materializes the current row set; locked(mu_) caller.
  aqe::ResultSet Evaluate(CQRecord& record, TimeNs now);
  // Appends (or coalesces) `result` as the next update when it differs
  // from the record's last values. Returns true when a push was produced.
  bool Materialize(CQRecord& record, aqe::ResultSet result);
  void WatchTopics(const CQRecord& record);
  void UnwatchTopics(const CQRecord& record);
  TenantCounters& CountersFor(const std::string& tenant);
  static Status Validate(const aqe::Query& query);

  Broker& broker_;
  CQOptions options_;

  mutable std::mutex mu_;  // records_, next_id_, tenant_counters_
  std::unordered_map<std::uint64_t, CQRecord> records_;
  std::unordered_map<std::string, TenantCounters> tenant_counters_;
  std::uint64_t next_id_ = 1;

  // Topic-name -> watch; OnPublish takes the shared lock only.
  mutable std::shared_mutex watch_mu_;
  std::unordered_map<std::string, std::unique_ptr<TopicWatch>> watches_;

  obs::Gauge active_;
  obs::Counter registered_total_;
  obs::Counter resumed_total_;
  obs::Counter epoch_bumps_total_;
};

}  // namespace apollo::cq
