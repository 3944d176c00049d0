#include "apollo/apollo_service.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apollo {

ApolloService::ApolloService(ApolloOptions options)
    : options_(std::move(options)) {
  if (options_.mode == ApolloOptions::Mode::kSimulated) {
    sim_clock_ = std::make_unique<SimClock>();
    clock_ = sim_clock_.get();
    // Trace spans stamp this service's virtual clock, so exported traces
    // are deterministic under simulation (uninstalled in the destructor).
    obs::TraceRecorder::Global().SetClock(sim_clock_.get());
    loop_ = std::make_unique<EventLoop>(*clock_, /*auto_advance=*/true,
                                        sim_clock_.get());
  } else {
    clock_ = &RealClock::Instance();
    loop_ = std::make_unique<EventLoop>(*clock_);
  }
  broker_ = std::make_unique<Broker>(*clock_, options_.network);
  graph_ = std::make_unique<ScoreGraph>(*broker_);
  executor_ = std::make_unique<aqe::Executor>(
      *broker_, aqe::ExecutorOptions{options_.client_node});
  if (options_.enable_supervisor) {
    supervisor_ =
        std::make_unique<VertexSupervisor>(*graph_, options_.supervisor);
    (void)supervisor_->Start(*loop_);
  }
}

ApolloService::~ApolloService() {
  Stop();
  // Drop the trace clock if it still points at this service's SimClock
  // (another live service may have installed its own since).
  if (sim_clock_ != nullptr &&
      obs::TraceRecorder::Global().clock() == sim_clock_.get()) {
    obs::TraceRecorder::Global().SetClock(nullptr);
  }
  if (supervisor_ != nullptr) supervisor_->Stop();
  // Vertices must be undeployed (their timers cancelled) before the loop is
  // destroyed.
  graph_->UndeployAll();
}

void ApolloService::AttachFaultInjector(FaultInjector* injector) {
  fault_ = injector;
  broker_->AttachFaultInjector(injector);
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    for (auto& [topic, storage] : storage_) {
      if (storage.archiver != nullptr) {
        storage.archiver->AttachFaultInjector(injector);
      }
      if (storage.cold != nullptr) storage.cold->AttachFaultInjector(injector);
    }
  }
  if (daemon_ != nullptr) daemon_->server().AttachFaultInjector(injector);
}

Expected<FactVertex*> ApolloService::DeployFact(
    MonitorHook hook, const FactDeployment& deployment) {
  auto controller =
      MakeController(deployment.controller, deployment.aimd,
                     deployment.fixed_interval);
  if (controller == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "unknown controller kind: " + deployment.controller);
  }
  FactVertexConfig config;
  config.topic = deployment.topic.empty() ? hook.metric_name
                                          : deployment.topic;
  config.node = deployment.node;
  config.queue_capacity = deployment.queue_capacity;
  config.publish_only_on_change = deployment.publish_only_on_change;
  if (deployment.use_delphi) {
    config.prediction_granularity = deployment.prediction_granularity;
  }
  auto attach =
      PrepareDeploy(config.topic, deployment.use_delphi, deployment.archive);
  if (!attach.ok()) return attach.error();
  auto vertex = std::make_unique<FactVertex>(
      *broker_, std::move(hook), std::move(controller), std::move(config),
      attach->delphi, attach->archiver);
  return graph_->AddFact(std::move(vertex), loop_.get());
}

Expected<InsightVertex*> ApolloService::DeployInsight(
    InsightVertexConfig config, InsightFn fn, bool use_delphi) {
  if (use_delphi && config.prediction_granularity == 0) {
    config.prediction_granularity = Seconds(1);
  }
  auto attach = PrepareDeploy(config.topic, use_delphi,
                              FactDeployment::Archive::kInherit);
  if (!attach.ok()) return attach.error();
  auto vertex = std::make_unique<InsightVertex>(
      *broker_, std::move(fn), std::move(config), attach->delphi,
      attach->archiver);
  return graph_->AddInsight(std::move(vertex), loop_.get());
}

Expected<ApolloService::VertexAttachments> ApolloService::PrepareDeploy(
    const std::string& topic, bool use_delphi,
    FactDeployment::Archive archive) {
  VertexAttachments attach;
  if (use_delphi) {
    if (delphi_ == nullptr) {
      return Error(ErrorCode::kFailedPrecondition,
                   "use_delphi requested but no Delphi model is set");
    }
    attach.delphi = delphi_.get();
  }
  // Reject a duplicate before touching storage: the live vertex keeps its
  // topic's archiver and cold tier.
  if (graph_->Has(topic)) {
    return Error(ErrorCode::kAlreadyExists, "vertex exists: " + topic);
  }
  std::lock_guard<std::mutex> lock(storage_mu_);
  if (auto it = storage_.find(topic); it != storage_.end()) {
    // A redeploy: the broker stream still evicts into the first archiver,
    // so opening a second one (and a second cold tier) on the same files
    // would leave each blind to what the other wrote.
    attach.archiver = it->second.archiver.get();
    return attach;
  }
  TopicStorage storage;
  if (archive == FactDeployment::Archive::kInherit &&
      !options_.archive_dir.empty()) {
    storage.archiver = std::make_unique<Archiver<Sample>>(
        options_.archive_dir + "/" + topic + ".log", options_.wal);
    Status opened = storage.archiver->OpenStatus();
    if (!opened.ok()) return Error(opened.code(), opened.message());
    storage.archiver->set_fault_label(topic);
    storage.archiver->AttachFaultInjector(fault_);
  }
  if (storage.archiver != nullptr && options_.coldtier_enabled) {
    storage.cold =
        std::make_unique<coldtier::ColdTier>(storage.archiver->path());
    Status opened = storage.cold->Open();
    // Finish any compaction a crash interrupted before the archiver
    // appends again, then let range queries merge the tier's rows.
    if (opened.ok()) opened = storage.cold->Reconcile(*storage.archiver);
    if (!opened.ok()) return Error(opened.code(), opened.message());
    storage.cold->set_fault_label(topic);
    storage.cold->AttachFaultInjector(fault_);
    storage.archiver->AttachColdReader(storage.cold.get());
  }
  attach.archiver = storage.archiver.get();
  storage_.emplace(topic, std::move(storage));
  return attach;
}

Status ApolloService::Undeploy(const std::string& topic) {
  return graph_->Remove(topic);
}

void ApolloService::SetDelphiModel(delphi::DelphiModel model) {
  delphi_ = std::make_unique<delphi::DelphiModel>(std::move(model));
}

Status ApolloService::Start() {
  if (options_.mode != ApolloOptions::Mode::kRealTime) {
    return Status::Ok();  // simulated mode is driven by RunFor/RunUntil
  }
  if (running_) {
    return Status(ErrorCode::kFailedPrecondition, "already started");
  }
  running_ = true;
  if (options_.coldtier_enabled && !compact_timer_armed_) {
    // Background compactor: drain sealed WAL segments into cold blocks on
    // the service's event loop. Best-effort — a failing topic surfaces
    // through CompactNow()/metrics, never stops the loop.
    const TimeNs interval = options_.coldtier_compact_interval;
    compact_timer_ = loop_->AddTimer(interval, [this, interval](TimeNs) {
      (void)CompactNow();
      return interval;
    });
    compact_timer_armed_ = true;
  }
  loop_->ClearStop();  // before the thread starts: no race with Stop()
  loop_thread_ = std::thread([this] {
    loop_->Run(std::numeric_limits<TimeNs>::max(),
               /*stop_when_idle=*/false);
  });
  return Status::Ok();
}

void ApolloService::Stop() {
  StopDaemon();
  if (!running_) return;
  loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  running_ = false;
}

Expected<std::uint16_t> ApolloService::StartDaemon(net::DaemonConfig config) {
  if (daemon_ != nullptr) {
    return Error(ErrorCode::kFailedPrecondition, "daemon already running");
  }
  auto daemon =
      std::make_unique<net::ApolloDaemon>(*broker_, *executor_, config);
  Status status = daemon->Start();
  if (!status.ok()) return Error(status.code(), status.message());
  if (fault_ != nullptr) daemon->server().AttachFaultInjector(fault_);
  daemon_ = std::move(daemon);
  return daemon_->port();
}

void ApolloService::StopDaemon() {
  if (daemon_ == nullptr) return;
  daemon_->Stop();
  daemon_.reset();
}

Status ApolloService::RunFor(TimeNs duration) {
  return RunUntil(clock_->Now() + duration);
}

Status ApolloService::RunUntil(TimeNs end_time) {
  if (options_.mode != ApolloOptions::Mode::kSimulated) {
    return Status(ErrorCode::kFailedPrecondition,
                  "RunUntil is only valid in simulated mode");
  }
  loop_->ClearStop();
  loop_->Run(end_time, /*stop_when_idle=*/true);
  // Land exactly on end_time so back-to-back RunFor calls tile the
  // timeline.
  sim_clock_->AdvanceTo(end_time);
  return Status::Ok();
}

Expected<ApolloService::RecoveryReport> ApolloService::Recover(
    const std::string& dir) {
  const std::string& root = dir.empty() ? options_.archive_dir : dir;
  if (root.empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "Recover needs an archive directory (none configured)");
  }
  const std::string prefix = root.back() == '/' ? root : root + "/";
  RecoveryReport report;
  for (const std::string& topic : graph_->AllTopics()) {
    Archiver<Sample>* archiver = nullptr;
    coldtier::ColdTier* cold = nullptr;
    {
      std::lock_guard<std::mutex> lock(storage_mu_);
      auto it = storage_.find(topic);
      if (it == storage_.end()) continue;
      archiver = it->second.archiver.get();
      cold = it->second.cold.get();
    }
    if (archiver == nullptr) continue;
    if (archiver->path().compare(0, prefix.size(), prefix) != 0) continue;

    // The append-safe open already validated segments, truncated torn
    // tails, and quarantined unreadable files; fold its counts in.
    const ArchiveRecoveryStats stats = archiver->RecoveryStats();
    report.segments_scanned += stats.segments_scanned;
    report.records_recovered += stats.records_recovered;
    report.bytes_truncated += stats.bytes_truncated;
    report.corrupt_segments += stats.corrupt_segments;
    report.quarantined_segments += stats.quarantined_segments;

    // Cold blocks were loaded (and any interrupted compaction finished)
    // when the tier opened at deploy time; fold in what is reachable.
    if (cold != nullptr) {
      report.cold_blocks += cold->BlockCount();
      report.cold_rows += cold->ColdRowCount();
      report.cold_quarantined_blocks += cold->quarantined_blocks();
    }

    auto stream = broker_->GetTopic(topic);
    if (!stream.ok()) return stream.error();
    const std::size_t capacity = stream.value()->Capacity();
    auto tail = archiver->TailRecords(capacity);
    if (!tail.ok()) return tail.error();
    if (tail->empty()) continue;

    // The longest id-contiguous suffix of the tail, under the ids it was
    // archived with, so the next append continues the archived sequence.
    std::size_t first = tail->size() - 1;
    while (first > 0 && (*tail)[first - 1].id + 1 == (*tail)[first].id) {
      --first;
    }
    std::vector<TelemetryStream::Entry> entries;
    entries.reserve(tail->size() - first);
    for (std::size_t i = first; i < tail->size(); ++i) {
      const auto& rec = (*tail)[i];
      entries.push_back(
          TelemetryStream::Entry{rec.id, rec.timestamp, rec.payload});
    }
    Status restored = stream.value()->RestoreWindowAt(entries);
    if (restored.code() == ErrorCode::kFailedPrecondition) {
      ++report.topics_skipped;  // stream already live: never clobber it
      continue;
    }
    if (!restored.ok()) {
      return Error(restored.code(), restored.message());
    }
    ++report.topics_recovered;
    report.records_replayed += entries.size();
  }
  return report;
}

Expected<coldtier::CompactResult> ApolloService::CompactNow() {
  // Snapshot under the lock, compact outside it: CompactOnce does file IO
  // and must not block deploys. The pointers stay valid — storage lives as
  // long as the service.
  std::vector<std::pair<coldtier::ColdTier*, Archiver<Sample>*>> tiers;
  {
    std::lock_guard<std::mutex> lock(storage_mu_);
    for (const auto& [topic, storage] : storage_) {
      if (storage.cold != nullptr) {
        tiers.emplace_back(storage.cold.get(), storage.archiver.get());
      }
    }
  }
  coldtier::CompactResult total;
  for (const auto& [cold, archiver] : tiers) {
    auto result = cold->CompactOnce(*archiver);
    if (!result.ok()) return result.error();
    total.segments_compacted += result->segments_compacted;
    total.blocks_written += result->blocks_written;
    total.rows_compacted += result->rows_compacted;
    total.raw_bytes += result->raw_bytes;
    total.block_bytes += result->block_bytes;
  }
  return total;
}

coldtier::ColdTier* ApolloService::cold_tier(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(storage_mu_);
  auto it = storage_.find(topic);
  return it == storage_.end() ? nullptr : it->second.cold.get();
}

Expected<aqe::ResultSet> ApolloService::Query(const std::string& query_text) {
  return executor_->Execute(query_text);
}

Expected<aqe::QueryProfile> ApolloService::Explain(
    const std::string& query_text, bool analyze) {
  return executor_->Explain(query_text, analyze);
}

std::string ApolloService::DumpMetrics() const {
  return obs::MetricsRegistry::Global().RenderPrometheus();
}

ApolloService::SubscriptionId ApolloService::Subscribe(
    const std::string& topic, TimeNs poll_interval,
    SampleCallback callback) {
  const NodeId client = options_.client_node;
  // Poll state lives in the timer closure: the topic handle (resolved once
  // the topic exists), the consumer cursor, and a reused fetch buffer so
  // steady-state polls allocate nothing.
  struct PollState {
    TopicHandle handle;
    std::uint64_t cursor = 0;
    std::vector<StreamEntry<Sample>> scratch;
  };
  auto state = std::make_shared<PollState>();
  Broker* broker = broker_.get();
  const TimerId timer = loop_->AddTimer(
      0, [broker, topic, client, state,
          callback = std::move(callback), poll_interval](TimeNs) -> TimeNs {
        if (!state->handle.valid()) {
          auto resolved = broker->Resolve(topic);
          if (!resolved.ok()) return poll_interval;  // wait for creation
          state->handle = *std::move(resolved);
        }
        std::uint64_t position = state->cursor;
        auto fetched = broker->FetchInto(state->handle, client, position,
                                         state->scratch);
        if (fetched.ok()) {
          for (const auto& entry : state->scratch) callback(topic, entry);
          state->cursor = position;
        }
        return poll_interval;
      });

  std::lock_guard<std::mutex> lock(subs_mu_);
  const SubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, SubscriptionState{timer});
  return id;
}

Status ApolloService::Unsubscribe(SubscriptionId id) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) {
    return Status(ErrorCode::kNotFound,
                  "no subscription " + std::to_string(id));
  }
  loop_->CancelTimer(it->second.timer);
  subscriptions_.erase(it);
  return Status::Ok();
}

std::size_t ApolloService::SubscriptionCount() const {
  std::lock_guard<std::mutex> lock(subs_mu_);
  return subscriptions_.size();
}

ApolloService::ServiceStats ApolloService::Stats() const {
  ServiceStats stats;
  for (const std::string& topic : graph_->AllTopics()) {
    auto vertex = graph_->Find(topic);
    if (!vertex.ok()) continue;
    if (dynamic_cast<const FactVertex*>(*vertex) != nullptr) {
      ++stats.fact_vertices;
    } else {
      ++stats.insight_vertices;
    }
    // An insight has no hook, so its hook counters stay 0.
    const VertexStats& vs = (*vertex)->stats();
    stats.hook_calls += vs.hook_calls;
    stats.published += vs.published;
    stats.suppressed += vs.suppressed;
    stats.predictions += vs.predictions;
    stats.hook_time_ns += vs.hook_time_ns;
    stats.publish_time_ns += vs.publish_time_ns;
    stats.predict_time_ns += vs.predict_time_ns;
    stats.publish_failures += vs.publish_failures;
    stats.crashes += vs.crashes;
    stats.restarts += vs.restarts;
  }
  return stats;
}

Expected<double> ApolloService::LatestValue(const std::string& topic) {
  auto latest = broker_->LatestValue(topic, options_.client_node);
  if (!latest.ok()) return latest.error();
  return latest->value;
}

}  // namespace apollo
