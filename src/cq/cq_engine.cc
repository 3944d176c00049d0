#include "cq/cq_engine.h"

#include <algorithm>
#include <utility>

#include "aqe/parser.h"

namespace apollo::cq {

CQEngine::CQEngine(Broker& broker, CQOptions options)
    : broker_(broker), options_(std::move(options)) {
  if (options_.update_ring == 0) options_.update_ring = 1;
  auto& registry = obs::MetricsRegistry::Global();
  active_ = registry.GetGauge("apollo_cq_active",
                              "Continuous queries currently registered");
  registered_total_ = registry.GetCounter("apollo_cq_registered_total",
                                          "CQ registrations accepted");
  resumed_total_ = registry.GetCounter(
      "apollo_cq_resumes_total", "CQ re-registrations resumed without a gap");
  epoch_bumps_total_ = registry.GetCounter(
      "apollo_cq_epoch_bumps_total",
      "CQ re-registrations that could not resume and restarted an epoch");
}

CQEngine::TenantCounters& CQEngine::CountersFor(const std::string& tenant) {
  auto it = tenant_counters_.find(tenant);
  if (it != tenant_counters_.end()) return it->second;
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Labels labels{{"tenant", tenant}};
  TenantCounters counters;
  counters.updates = registry.GetCounter(
      "apollo_cq_updates_total", "CQ incremental updates pushed, by tenant",
      labels);
  counters.evals = registry.GetCounter(
      "apollo_cq_evals_total", "CQ materialization passes, by tenant", labels);
  counters.throttled = registry.GetCounter(
      "apollo_cq_throttled_total",
      "CQ evaluations deferred by admission control, by tenant", labels);
  counters.coalesced = registry.GetCounter(
      "apollo_cq_coalesced_total",
      "CQ updates coalesced into an undelivered push, by tenant", labels);
  return tenant_counters_.emplace(tenant, std::move(counters)).first->second;
}

Status CQEngine::Validate(const aqe::Query& query) {
  if (!query.continuous) {
    return Status(ErrorCode::kInvalidArgument,
                  "continuous query must start with SUBSCRIBE");
  }
  if (query.selects.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty query");
  }
  for (const aqe::Select& select : query.selects) {
    if (select.items.empty()) {
      return Status(ErrorCode::kInvalidArgument, "empty select list");
    }
    // Only index-answerable branches are accepted: the whole point of a
    // CQ is maintenance from the O(1) rolling index, which covers
    // aggregates over the full window but not predicates or ordering.
    if (!select.where.empty() || select.order_by.has_value() ||
        select.limit.has_value()) {
      return Status(ErrorCode::kInvalidArgument,
                    "SUBSCRIBE supports aggregate selects only (no WHERE / "
                    "ORDER BY / LIMIT)");
    }
  }
  return Status::Ok();
}

void CQEngine::WatchTopics(const CQRecord& record) {
  std::unique_lock<std::shared_mutex> lock(watch_mu_);
  for (const Branch& branch : record.branches) {
    auto& watch = watches_[branch.topic];
    if (watch == nullptr) watch = std::make_unique<TopicWatch>();
    auto& ids = watch->cq_ids;
    if (std::find(ids.begin(), ids.end(), record.id) == ids.end()) {
      ids.push_back(record.id);
    }
  }
}

void CQEngine::UnwatchTopics(const CQRecord& record) {
  std::unique_lock<std::shared_mutex> lock(watch_mu_);
  for (const Branch& branch : record.branches) {
    auto it = watches_.find(branch.topic);
    if (it == watches_.end()) continue;
    auto& ids = it->second->cq_ids;
    ids.erase(std::remove(ids.begin(), ids.end(), record.id), ids.end());
    if (ids.empty()) watches_.erase(it);
  }
}

Expected<CQEngine::Registration> CQEngine::Register(
    std::uint64_t conn_id, const std::string& tenant, const std::string& name,
    const std::string& sql, std::uint64_t resume_epoch,
    std::uint64_t resume_seq, TimeNs now) {
  auto parsed = aqe::Parse(sql);
  if (!parsed.ok()) return parsed.error();
  if (Status valid = Validate(*parsed); !valid.ok()) return Error(valid.code(), valid.message());

  std::lock_guard<std::mutex> lock(mu_);

  // Re-registration under the same (tenant, name): resume or restart.
  CQRecord* existing = nullptr;
  for (auto& [id, record] : records_) {
    if (record.tenant == tenant && record.name == name) {
      existing = &record;
      break;
    }
  }

  if (existing != nullptr) {
    CQRecord& record = *existing;
    record.conn_id = conn_id;
    const bool same_query = record.sql == sql;
    // Resumable when the query is unchanged, the epoch matches, and the
    // retained ring still covers every update past resume_seq.
    const std::uint64_t ring_floor =
        record.ring.empty() ? record.seq + 1 : record.ring.front().seq;
    const bool resumable = same_query && resume_epoch == record.epoch &&
                           resume_seq <= record.seq &&
                           resume_seq + 1 >= ring_floor;
    Registration reg;
    reg.cq_id = record.id;
    if (resumable) {
      record.delivered_seq = resume_seq;
      resumed_total_.Inc();
      reg.epoch = record.epoch;
      reg.last_seq = resume_seq;
      reg.resumed = true;
      return reg;
    }
    // Discontinuity: new epoch, fresh snapshot as its seq 1.
    if (!same_query) {
      UnwatchTopics(record);
      record.sql = sql;
      record.query = std::move(*parsed);
      record.branches.clear();
      for (const aqe::Select& select : record.query.selects) {
        Branch branch;
        branch.topic = select.table;
        branch.select = &select;
        record.branches.push_back(std::move(branch));
      }
      WatchTopics(record);
    }
    ++record.epoch;
    record.seq = 0;
    record.delivered_seq = 0;
    record.ring.clear();
    record.last_values.clear();
    record.has_snapshot = false;
    record.last_eval = 0;
    epoch_bumps_total_.Inc();
    Materialize(record, Evaluate(record, now));
    record.dirty = false;
    reg.epoch = record.epoch;
    reg.last_seq = 0;
    reg.resumed = false;
    return reg;
  }

  if (records_.size() >= options_.max_queries) {
    return Error(ErrorCode::kResourceExhausted, "continuous query limit reached");
  }

  CQRecord record;
  record.id = next_id_++;
  record.conn_id = conn_id;
  record.tenant = tenant;
  record.name = name;
  record.sql = sql;
  record.query = std::move(*parsed);
  for (const aqe::Select& select : record.query.selects) {
    Branch branch;
    branch.topic = select.table;
    branch.select = &select;
    record.branches.push_back(std::move(branch));
  }

  Registration reg;
  reg.cq_id = record.id;
  reg.epoch = record.epoch;
  reg.last_seq = 0;
  reg.resumed = false;

  auto [it, inserted] = records_.emplace(record.id, std::move(record));
  CQRecord& stored = it->second;
  WatchTopics(stored);
  // Immediate snapshot (seq 1) so the first pump pushes current state
  // without waiting for a publish.
  Materialize(stored, Evaluate(stored, now));
  stored.dirty = false;
  registered_total_.Inc();
  active_.Set(static_cast<double>(records_.size()));
  return reg;
}

Status CQEngine::Cancel(std::uint64_t cq_id, std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(cq_id);
  if (it == records_.end()) {
    return Status(ErrorCode::kNotFound, "unknown continuous query");
  }
  if (conn_id != 0 && it->second.conn_id != 0 &&
      it->second.conn_id != conn_id) {
    return Status(ErrorCode::kFailedPrecondition,
                  "continuous query owned by another connection");
  }
  UnwatchTopics(it->second);
  records_.erase(it);
  active_.Set(static_cast<double>(records_.size()));
  return Status::Ok();
}

std::vector<std::uint64_t> CQEngine::DetachConn(std::uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> detached;
  for (auto& [id, record] : records_) {
    if (record.conn_id == conn_id) {
      record.conn_id = 0;
      detached.push_back(id);
    }
  }
  return detached;
}

void CQEngine::OnPublish(const std::string& topic, std::size_t n) {
  (void)n;
  std::shared_lock<std::shared_mutex> lock(watch_mu_);
  auto it = watches_.find(topic);
  if (it == watches_.end()) return;
  it->second->dirty.store(true, std::memory_order_release);
}

aqe::ResultSet CQEngine::Evaluate(CQRecord& record, TimeNs now) {
  (void)now;
  aqe::ResultSet result;
  const aqe::Select& first = record.query.selects.front();
  result.columns.reserve(first.items.size());
  for (const aqe::SelectItem& item : first.items) {
    result.columns.push_back(aqe::SelectItemLabel(item));
  }

  const std::uint64_t version = broker_.RegistryVersion();
  for (Branch& branch : record.branches) {
    // Stream pointer cached at registration; topic churn (registry
    // version bump) forces a by-name re-resolve, same self-heal as
    // TopicHandle.
    if (branch.stream == nullptr || branch.registry_version != version) {
      auto resolved = broker_.GetTopic(branch.topic);
      branch.stream = resolved.ok() ? *resolved : nullptr;
      branch.registry_version = version;
    }
    aqe::ResultRow row;
    row.source = branch.topic;
    if (branch.stream == nullptr) {
      // Unknown topic: NaN cells (COUNT 0), degraded row — mirrors how a
      // one-shot query against a vanished vertex reports.
      row.degraded = true;
      for (const aqe::SelectItem& item : branch.select->items) {
        row.values.push_back(
            aqe::IndexAggregateCell(item, std::nullopt));
      }
    } else {
      TelemetryStream* stream = branch.stream;
      const auto agg = stream->Aggregates();
      for (const aqe::SelectItem& item : branch.select->items) {
        row.values.push_back(aqe::IndexAggregateCell(item, agg));
      }
      // Same degradation surface the executor stamps per branch, plus the
      // index's own limit: where a one-shot query would scan the history
      // beyond the ring instead, or the history lost rows, the index's
      // answer is partial and says so.
      row.degraded = stream->degraded() ||
                     !aqe::IndexAnswersExactly(*branch.select, *stream) ||
                     aqe::HistoryIncomplete(*branch.select, *stream);
      if (auto newest = stream->Latest(); newest.has_value()) {
        row.staleness_ns =
            aqe::StalenessNs(broker_.clock().Now(), newest->value.timestamp);
      }
    }
    result.degraded = result.degraded || row.degraded;
    result.max_staleness_ns =
        std::max(result.max_staleness_ns, row.staleness_ns);
    result.rows.push_back(std::move(row));
  }
  return result;
}

bool CQEngine::Materialize(CQRecord& record, aqe::ResultSet result) {
  // Change detection on values + degradation only — staleness advances
  // with the clock on every evaluation and must not count as a change.
  std::vector<std::vector<double>> values;
  values.reserve(result.rows.size());
  bool degraded = result.degraded;
  for (const aqe::ResultRow& row : result.rows) values.push_back(row.values);
  const bool changed = !record.has_snapshot || values != record.last_values ||
                       degraded != record.last_degraded;
  if (!changed) return false;
  record.last_values = std::move(values);
  record.last_degraded = degraded;
  record.has_snapshot = true;

  TenantCounters& counters = CountersFor(record.tenant);
  if (!record.ring.empty() && record.ring.back().seq > record.delivered_seq) {
    // Backpressure coalescing: the newest update never reached the
    // client, so replace its payload in place — seq stays hole-free and
    // the client gets the latest state once the connection drains.
    record.ring.back().result = std::move(result);
    counters.coalesced.Inc();
    return true;
  }
  CQUpdate update;
  update.epoch = record.epoch;
  update.seq = ++record.seq;
  update.result = std::move(result);
  record.ring.push_back(std::move(update));
  while (record.ring.size() > options_.update_ring &&
         record.ring.front().seq <= record.delivered_seq) {
    record.ring.pop_front();
  }
  return true;
}

std::size_t CQEngine::Pump(TimeNs now, AdmissionController* admission,
                           const EmitFn& emit) {
  // Phase 1: drain publish-dirty topics into per-record dirty flags.
  // Collected under watch_mu_ alone, applied under mu_ alone: Register /
  // Cancel nest mu_ -> watch_mu_, so holding both here in the opposite
  // order would be a lock-order inversion.
  std::vector<std::uint64_t> dirty_ids;
  {
    std::shared_lock<std::shared_mutex> watch_lock(watch_mu_);
    for (auto& [topic, watch] : watches_) {
      if (!watch->dirty.exchange(false, std::memory_order_acq_rel)) continue;
      dirty_ids.insert(dirty_ids.end(), watch->cq_ids.begin(),
                       watch->cq_ids.end());
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (std::uint64_t id : dirty_ids) {
    auto it = records_.find(id);
    if (it != records_.end()) it->second.dirty = true;
  }

  // Phase 2: evaluate due queries in ascending id order, under admission.
  // Every due query is evaluated in this call and each Admit reads only
  // its own tenant's bucket, so the order changes no admission or push.
  std::vector<std::uint64_t> due;
  for (auto& [id, record] : records_) {
    if (!record.dirty) continue;
    if (record.query.every_ns > 0 && record.last_eval != 0 &&
        now - record.last_eval < record.query.every_ns) {
      continue;  // stays dirty; due again once the interval elapses
    }
    due.push_back(id);
  }
  std::sort(due.begin(), due.end());

  for (std::uint64_t id : due) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    CQRecord& record = it->second;
    if (admission != nullptr &&
        !admission->Admit(record.tenant, now, options_.eval_cost)) {
      // Over quota: evaluation deferred, dirty bit kept — the tenant's
      // push lags but no other tenant pays for it.
      CountersFor(record.tenant).throttled.Inc();
      continue;
    }
    record.dirty = false;
    record.last_eval = now;
    CountersFor(record.tenant).evals.Inc();
    Materialize(record, Evaluate(record, now));
  }

  // Phase 3: deliver undelivered updates for attached connections.
  std::size_t emitted = 0;
  for (auto& [id, record] : records_) {
    if (record.conn_id == 0 || record.delivered_seq >= record.seq) continue;
    CQInfo info;
    info.cq_id = record.id;
    info.conn_id = record.conn_id;
    info.tenant = record.tenant;
    info.name = record.name;
    TenantCounters& counters = CountersFor(record.tenant);
    for (const CQUpdate& update : record.ring) {
      if (update.seq <= record.delivered_seq) continue;
      if (!emit(info, update)) break;  // backpressure: retry next pump
      record.delivered_seq = update.seq;
      counters.updates.Inc();
      ++emitted;
    }
    while (record.ring.size() > options_.update_ring &&
           record.ring.front().seq <= record.delivered_seq) {
      record.ring.pop_front();
    }
  }
  return emitted;
}

std::size_t CQEngine::ActiveCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t CQEngine::OwnedCount(std::uint64_t conn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, record] : records_) {
    if (record.conn_id == conn_id) ++n;
  }
  return n;
}

}  // namespace apollo::cq
