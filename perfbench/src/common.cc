#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {
const TimeNs kProcessStart = NowNs();
}  // namespace

TimeNs ProcessStartNs() { return kProcessStart; }

std::vector<std::uint8_t> EncodeBatchFrame(
    const apollo::net::PublishBatchMsg& msg) {
  apollo::net::Payload payload;
  msg.Encode(payload);
  std::vector<std::uint8_t> wire;
  apollo::net::EncodeFrame(wire, apollo::net::MsgType::kPublishBatch, 1,
                           payload);
  return wire;
}

bool DecodeBatchFrame(const std::vector<std::uint8_t>& wire,
                      apollo::net::PublishBatchMsg& msg) {
  apollo::net::FrameParser parser;
  apollo::net::Frame frame;
  return parser.Feed(wire.data(), wire.size()) && parser.Next(frame) &&
         apollo::net::PublishBatchMsg::Decode(frame.payload, msg);
}

std::size_t PublishDecoded(apollo::Broker& broker,
                           const apollo::net::PublishBatchMsg& msg,
                           apollo::net::PublishBatchAckMsg& ack) {
  ack.Resize(static_cast<std::uint32_t>(msg.SampleCount()));
  std::size_t base = 0;
  for (const auto& run : msg.runs) {
    const std::size_t n = run.entries.size();
    auto handle = broker.Resolve(run.topic);
    if (handle.ok()) {
      auto result = broker.PublishBatch(*handle, apollo::kLocalNode,
                                        run.entries.data(), n,
                                        &ack.error_bits, base);
      if (result.ok()) {
        ack.error_count += static_cast<std::uint32_t>(n - result->accepted);
        if (result->accepted > 0) ack.last_entry_id = result->last_entry_id;
        base += n;
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      ack.MarkFailed(static_cast<std::uint32_t>(base + i));
    }
    base += n;
  }
  return ack.error_count;
}

void AckRoundTripCodec(const apollo::net::PublishBatchAckMsg& ack) {
  apollo::net::Payload payload;
  ack.Encode(payload);
  std::vector<std::uint8_t> wire;
  apollo::net::EncodeFrame(wire, apollo::net::MsgType::kPublishBatchAck, 1,
                           payload);
  apollo::net::FrameParser parser;
  apollo::net::Frame frame;
  apollo::net::PublishBatchAckMsg decoded;
  if (!parser.Feed(wire.data(), wire.size()) || !parser.Next(frame) ||
      !apollo::net::PublishBatchAckMsg::Decode(frame.payload, decoded)) {
    std::fprintf(stderr, "ack codec round trip failed\n");
    std::exit(3);
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void OpLog::Begin(TimeNs start, double seconds) {
  const int windows = std::max(10, static_cast<int>(std::lround(seconds)));
  start_ = start;
  width_ns_ = seconds * 1e9 / windows;
  window_hist_.assign(static_cast<std::size_t>(windows),
                      std::vector<std::uint32_t>(kBuckets + 1, 0));
  window_work_.assign(static_cast<std::size_t>(windows), 0.0);
}

int OpLog::Bucket(double us) {
  if (!std::isfinite(us)) return kBuckets;
  if (us <= 0.1) return 0;
  const int b = static_cast<int>(std::log(us / 0.1) / std::log(1.001));
  return std::min(b, kBuckets - 1);
}

double OpLog::BucketValue(int bucket) {
  if (bucket >= kBuckets) return std::numeric_limits<double>::infinity();
  return 0.1 * std::pow(1.001, bucket + 0.5);
}

void OpLog::Add(TimeNs done, double us, std::uint32_t weight) {
  const int b = Bucket(us);
  ++all_hist_[static_cast<std::size_t>(b)];
  const double i = static_cast<double>(done - start_) / width_ns_;
  if (i < 0 || i >= static_cast<double>(window_work_.size())) return;
  window_work_[static_cast<std::size_t>(i)] += weight;
  ++window_hist_[static_cast<std::size_t>(i)][static_cast<std::size_t>(b)];
}

void OpLog::Merge(const OpLog& other) {
  for (std::size_t b = 0; b < all_hist_.size(); ++b) {
    all_hist_[b] += other.all_hist_[b];
  }
  for (std::size_t w = 0; w < window_work_.size() &&
                          w < other.window_work_.size();
       ++w) {
    window_work_[w] += other.window_work_[w];
    for (std::size_t b = 0; b < window_hist_[w].size(); ++b) {
      window_hist_[w][b] += other.window_hist_[w][b];
    }
  }
}

Summary OpLog::FromHistogram(const std::vector<std::uint32_t>& hist) {
  Summary s;
  for (std::uint32_t c : hist) s.n += c;
  if (s.n == 0) return s;
  auto rank = [&](double q) {
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(s.n)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < hist.size(); ++b) {
      seen += hist[b];
      if (seen >= std::max<std::uint64_t>(target, 1)) {
        return BucketValue(static_cast<int>(b));
      }
    }
    return BucketValue(kBuckets);
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  return s;
}

Windowed OpLog::Summarize() const {
  Windowed w;
  w.windows = static_cast<int>(window_work_.size());
  w.all = FromHistogram(all_hist_);
  for (std::size_t i = 0; i < window_work_.size(); ++i) {
    w.window_rates.push_back(window_work_[i] / (width_ns_ / 1e9));
    w.window_p50s.push_back(FromHistogram(window_hist_[i]).p50);
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  w.rate = mean(w.window_rates);
  w.p50_us = mean(w.window_p50s);
  return w;
}

void MergeSpans(std::vector<Span>& out, std::vector<Span>& log) {
  const auto base = static_cast<std::uint32_t>(out.size());
  for (Span& span : log) {
    if (span.parent != 0) span.parent += base;
    out.push_back(span);
  }
  log.clear();
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json,
                      std::size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  TimeNs origin = spans.empty() ? 0 : spans.front().start;
  for (const Span& s : spans) origin = std::min(origin, s.start);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"metadata\":%s,\n"
                  "\"traceEvents\":[\n",
               metadata_json.c_str());
  const std::size_t n = std::min(spans.size(), max_events);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const char* parent =
        s.parent != 0 ? spans[s.parent - 1].name : "";
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":\"%s\"}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3,
                 static_cast<unsigned long long>(s.request), parent,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double MedianSpanNs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      d.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return Median(std::move(d));
}

double TotalSpanNs(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      total += static_cast<double>(s.end - s.start);
    }
  }
  return total;
}

std::size_t CountSpans(const std::vector<Span>& spans, const char* name) {
  std::size_t n = 0;
  for (const Span& s : spans) n += std::strcmp(s.name, name) == 0 ? 1 : 0;
  return n;
}

namespace {

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

void PinClientThread(std::size_t client) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  PinTo({cpus[1 + client % (cpus.size() - 1)]});
}

void UnpinThread() {
  if (!AllowedCpus().empty()) PinTo(AllowedCpus());
}

double ProcessCpuUs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostFingerprintJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  utsname uts{};
  uname(&uts);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"hw_threads\":%u,\"cpu_model\":\"%s\",\"kernel\":\"%s %s\"}",
                std::thread::hardware_concurrency(), model.c_str(),
                uts.sysname, uts.release);
  return buf;
}

CpuTicks HostCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return ticks;
  for (std::uint64_t& f : fields) stat >> f;
  for (std::uint64_t f : fields) ticks.total += f;
  ticks.steal = fields[7];
  return ticks;
}

// ---- Stack -----------------------------------------------------------------

Stack::Stack(StackConfig config) : config_(std::move(config)) {
  if (config_.durable) {
    fs::remove_all(config_.dir);
    fs::create_directories(config_.dir);
    for (const std::string& topic : config_.topics) {
      archivers_.push_back(std::make_unique<apollo::Archiver<apollo::Sample>>(
          config_.dir + "/" + topic + ".log", config_.wal));
      apollo::Archiver<apollo::Sample>& archiver = *archivers_.back();
      if (archiver.InMemory()) {
        std::fprintf(stderr, "archive open failed: %s\n",
                     archiver.OpenStatus().ToString().c_str());
        std::exit(3);
      }
      if (config_.cold) {
        auto cold = std::make_unique<apollo::coldtier::ColdTier>(
            archiver.path());
        apollo::Status status = cold->Open();
        if (status.ok()) status = cold->Reconcile(archiver);
        if (!status.ok()) {
          std::fprintf(stderr, "cold tier open failed: %s\n",
                       status.ToString().c_str());
          std::exit(3);
        }
        archiver.AttachColdReader(cold.get());
        colds_.push_back(std::move(cold));
      }
    }
  }
  broker_ = std::make_unique<apollo::Broker>(apollo::RealClock::Instance());
  for (std::size_t i = 0; i < config_.topics.size(); ++i) {
    auto stream = broker_->CreateTopic(config_.topics[i], apollo::kLocalNode,
                                       config_.ring_capacity, archiver(i));
    auto handle = broker_->Resolve(config_.topics[i]);
    if (!stream.ok() || !handle.ok()) {
      std::fprintf(stderr, "topic create failed: %s\n",
                   config_.topics[i].c_str());
      std::exit(3);
    }
    streams_.push_back(*stream);
    handles_.push_back(*handle);
  }
  executor_ = std::make_unique<apollo::aqe::Executor>(*broker_, nullptr);
}

Stack::~Stack() {
  StopDaemon();
  daemon_.reset();
  executor_.reset();
  broker_.reset();
  archivers_.clear();
  colds_.clear();
  if (config_.durable) {
    std::error_code ec;
    fs::remove_all(config_.dir, ec);
    // Commit the deletes now, so the next set-up does not wait behind
    // this run's filesystem work.
    const int fd = ::open(fs::path(config_.dir).parent_path().c_str(),
                          O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      (void)::syncfs(fd);
      ::close(fd);
    }
  }
}

apollo::Status Stack::StartDaemon() {
  daemon_ = std::make_unique<apollo::net::ApolloDaemon>(*broker_, *executor_);
  // The loop thread inherits the starting thread's affinity.
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() >= 2) PinTo({cpus[0]});
  apollo::Status status = daemon_->Start();
  UnpinThread();
  return status;
}

void Stack::StopDaemon() {
  if (daemon_ != nullptr) daemon_->Stop();
}

void Stack::Append(std::size_t topic,
                   const std::vector<apollo::TelemetryStream::Entry>& entries) {
  auto result = broker_->PublishBatch(handles_[topic], apollo::kLocalNode,
                                      entries.data(), entries.size());
  if (!result.ok() || result->accepted != entries.size()) {
    std::fprintf(stderr, "in-process append failed on %s\n",
                 config_.topics[topic].c_str());
    std::exit(3);
  }
}

void Stack::FlushAll() {
  for (apollo::TelemetryStream* stream : streams_) {
    (void)stream->FlushEvictions();
  }
}

std::uint64_t Stack::DiskBytes() const {
  if (!config_.durable) return 0;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(config_.dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

apollo::net::ClientConfig MakeClientConfig(std::uint16_t port,
                                           const std::string& name) {
  apollo::net::ClientConfig config;
  config.port = port;
  config.client_name = name;
  return config;
}

// ---- report helpers --------------------------------------------------------

std::string Fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string CountNote(const Summary& s) {
  return "n=" + std::to_string(s.n) + " p99_has_" +
         std::to_string(s.n - std::min<std::size_t>(
                                   s.n, static_cast<std::size_t>(std::ceil(
                                            0.99 * static_cast<double>(s.n))))) +
         "_beyond";
}

void AddLatencyInfo(Report& report, const std::string& prefix,
                    const Summary& s) {
  report.info.push_back({prefix + "_p50_us", "us", s.p50, CountNote(s)});
  report.info.push_back({prefix + "_p99_us", "us", s.p99, CountNote(s)});
}

void AddEndToEnd(Report& report, const std::vector<double>& setup_s,
                 const Windowed& ops, const std::string& ops_name,
                 const Windowed& latency, const std::string& latency_name) {
  const std::string windows =
      "mean of " + std::to_string(ops.windows) + " windows";
  report.e2e.push_back({"setup_s", "s", Median(setup_s),
                        "median of " + std::to_string(setup_s.size()) +
                            " set-ups"});
  report.e2e.push_back({"ops_per_s", "1/s", ops.rate,
                        ops_name + "; " + windows});
  std::string rates = "windows ops_per_s:";
  for (double r : ops.window_rates) rates += " " + Fmt(r, 0);
  report.lines.push_back(rates);
  std::string p50s = "windows latency_p50_us:";
  for (double r : latency.window_p50s) p50s += " " + Fmt(r, 1);
  report.lines.push_back(p50s);
  report.e2e.push_back({"latency_p50_us", "us", latency.p50_us,
                        latency_name + "; " + windows + " " +
                            CountNote(latency.all)});
  report.e2e.push_back({"peak_rss_mb", "MiB", PeakRssMb(), "getrusage"});
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"net.publish_rtt_us", "us"},
      {"net.query_rtt_us", "us"},
      {"net.batch_encode_ns_per_sample", "ns"},
      {"net.batch_decode_ns_per_sample", "ns"},
      {"net.result_encode_ns_per_row", "ns"},
      {"net.result_decode_ns_per_row", "ns"},
      {"net.frame_bytes_per_sample", "B"},
      {"net.reply_bytes_per_query", "B"},
      {"net.loop_residual_us_per_publish", "us"},
      {"net.loop_residual_us_per_query", "us"},
      {"pubsub.publish_batch_ns_per_sample", "ns"},
      {"pubsub.evictions_per_sample", "ratio"},
      {"pubsub.wal_append_ns_per_record", "ns"},
      {"pubsub.wal_bytes_per_record", "B"},
      {"pubsub.wal_fsyncs_per_1k_records", "count"},
      {"pubsub.wal_read_ns_per_row_returned", "ns"},
      {"pubsub.wal_rows_read_per_row_returned", "ratio"},
      {"pubsub.disk_bytes_per_sample", "B"},
      {"aqe.parse_ns_per_query", "ns"},
      {"aqe.plan_cache_hit_ratio", "ratio"},
      {"aqe.execute_ns.latest_union", "ns"},
      {"aqe.execute_ns.index_agg", "ns"},
      {"aqe.execute_ns.window_scan", "ns"},
      {"aqe.execute_ns.time_range", "ns"},
      {"aqe.execute_ns.history_agg", "ns"},
      {"aqe.execute_ns.history_range", "ns"},
      {"aqe.rows_scanned_per_row_returned", "ratio"},
      {"aqe.index_answered_ratio", "ratio"},
      {"cq.pump_ns_per_update", "ns"},
      {"cq.updates_per_tick", "count"},
      {"cq.coalesced_ratio", "ratio"},
      {"cq.push_lag_p50_us", "us"},
      {"cq.push_lag_p99_us", "us"},
      {"coldtier.compact_rows_per_s", "1/s"},
      {"coldtier.compression_ratio", "ratio"},
      {"coldtier.scan_ns_per_row", "ns"},
      {"coldtier.blocks_pruned_ratio", "ratio"},
      {"proc.cpu_us_per_sample", "us"},
      {"proc.cpu_us_per_query", "us"},
      {"proc.heap_allocs_per_sample", "count"},
      {"proc.heap_allocs_per_query", "count"},
      {"loadgen.lag_p99_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

void LayerValues::Set(const std::string& name, double value,
                      std::string note) {
  for (Metric& m : values_) {
    if (m.name == name) {
      m.value = value;
      m.note = std::move(note);
      return;
    }
  }
  values_.push_back({name, "", value, std::move(note)});
}

void LayerValues::EmitInto(Report& report) const {
  for (const auto& [name, unit] : LayerMetricNames()) {
    Metric m{name, unit, 0.0, "not measured on this workload"};
    for (const Metric& v : values_) {
      if (v.name == name) {
        m.value = v.value;
        m.note = v.note;
      }
    }
    report.layer.push_back(std::move(m));
  }
}

const char* QueryClassName(int cls) {
  static const char* kNames[kQueryClasses] = {
      "latest_union", "index_agg",   "window_scan",
      "time_range",   "history_agg", "history_range"};
  return kNames[cls];
}

bool SameAnswer(const apollo::aqe::ResultSet& got,
                const std::vector<ExpectedRow>& want, std::string* why) {
  auto same = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  if (got.rows.size() != want.size()) {
    *why = "rows " + std::to_string(got.rows.size()) + " want " +
           std::to_string(want.size());
    return false;
  }
  if (got.degraded) {
    *why = "answer flagged degraded";
    return false;
  }
  for (std::size_t r = 0; r < want.size(); ++r) {
    const auto& g = got.rows[r];
    const auto& w = want[r];
    bool ok = g.source == w.source && g.values.size() == w.values.size();
    for (std::size_t i = 0; ok && i < w.values.size(); ++i) {
      ok = same(g.values[i], w.values[i]);
    }
    if (!ok) {
      *why = "row " + std::to_string(r) + " of " + w.source + " differs";
      return false;
    }
  }
  return true;
}

QueryReplay::QueryReplay(apollo::aqe::Executor& executor, SpanLog& log)
    : executor_(executor),
      log_(log),
      cache_hits_(apollo::obs::MetricsRegistry::Global().GetCounter(
          "apollo_aqe_plan_cache_hits_total")) {}

void QueryReplay::Run(const std::string& text, int cls,
                      std::uint64_t request) {
  namespace net = apollo::net;
  const std::uint32_t root = log_.Open("replay.query", request);

  std::uint32_t s = log_.Open("net.query_codec", request, root);
  net::Payload payload;
  net::QueryMsg{text}.Encode(payload);
  std::vector<std::uint8_t> wire;
  net::EncodeFrame(wire, net::MsgType::kQuery, 1, payload);
  net::FrameParser parser;
  net::Frame frame;
  net::QueryMsg query;
  const bool query_ok = parser.Feed(wire.data(), wire.size()) &&
                        parser.Next(frame) &&
                        net::QueryMsg::Decode(frame.payload, query);
  log_.Close(s);

  const std::uint64_t hits_before = cache_hits_.Value();
  s = log_.Open("aqe.execute", request, root);
  auto result = executor_.Execute(query.sql);
  log_.Close(s);
  const Span& exec = log_.spans()[s - 1];
  class_ns_[cls] += static_cast<double>(exec.end - exec.start);
  ++class_n_[cls];
  hits_ += cache_hits_.Value() - hits_before;

  net::ResultMsg reply;
  if (result.ok()) reply.result = std::move(*result);
  s = log_.Open("net.result_encode", request, root);
  net::Payload out;
  reply.Encode(out);
  std::vector<std::uint8_t> reply_wire;
  net::EncodeFrame(reply_wire, net::MsgType::kResult, 1, out);
  log_.Close(s);

  s = log_.Open("net.result_decode", request, root);
  net::FrameParser reply_parser;
  net::Frame reply_frame;
  net::ResultMsg decoded;
  const bool reply_ok =
      reply_parser.Feed(reply_wire.data(), reply_wire.size()) &&
      reply_parser.Next(reply_frame) &&
      net::ResultMsg::Decode(reply_frame.payload, decoded);
  log_.Close(s);
  log_.Close(root);

  if (!query_ok || !result.ok() || !reply_ok) {
    std::fprintf(stderr, "query replay failed: %s\n", text.c_str());
    std::exit(3);
  }
  ++queries_;
  rows_ += decoded.result.rows.size();
  reply_bytes_ += reply_wire.size();

  // Of-which stages, outside the RTT sum: parse cost, and the executor's
  // own account of strategy and rows scanned.
  s = log_.Open("aqe.parse", request, root);
  auto parsed = apollo::aqe::Parse(text);
  log_.Close(s);
  auto profile = executor_.Explain(text, /*analyze=*/true);
  if (parsed.ok() && profile.ok()) {
    for (const auto& v : profile->vertices) {
      ++branches_;
      rows_scanned_ += v.rows_scanned;
      if (v.strategy == "index" || v.strategy == "latest") ++index_branches_;
    }
  }
}

void QueryReplay::Emit(LayerValues& layers, Report& report, double rtt_ns) {
  const std::vector<Span>& spans = log_.spans();
  const double q = static_cast<double>(std::max<std::uint64_t>(queries_, 1));
  const double rows = static_cast<double>(std::max<std::uint64_t>(rows_, 1));
  layers.Set("net.query_rtt_us", rtt_ns / 1e3,
             "n=" + std::to_string(queries_) + " traced queries");
  layers.Set("net.result_encode_ns_per_row",
             TotalSpanNs(spans, "net.result_encode") / rows,
             "base: " + std::to_string(rows_) + " rows");
  layers.Set("net.result_decode_ns_per_row",
             TotalSpanNs(spans, "net.result_decode") / rows,
             "base: " + std::to_string(rows_) + " rows");
  layers.Set("net.reply_bytes_per_query",
             static_cast<double>(reply_bytes_) / q);
  layers.Set("aqe.parse_ns_per_query", TotalSpanNs(spans, "aqe.parse") / q);
  layers.Set("aqe.plan_cache_hit_ratio", static_cast<double>(hits_) / q,
             "base: " + std::to_string(queries_) + " queries");
  for (int c = 0; c < kQueryClasses; ++c) {
    if (class_n_[c] == 0) continue;
    layers.Set(std::string("aqe.execute_ns.") + QueryClassName(c),
               class_ns_[c] / static_cast<double>(class_n_[c]),
               "mean of " + std::to_string(class_n_[c]));
  }
  layers.Set("aqe.rows_scanned_per_row_returned",
             static_cast<double>(rows_scanned_) / rows,
             "base: " + std::to_string(rows_) + " rows returned");
  layers.Set("aqe.index_answered_ratio",
             static_cast<double>(index_branches_) /
                 static_cast<double>(std::max<std::uint64_t>(branches_, 1)),
             "base: " + std::to_string(branches_) + " UNION branches");
  layers.Set("net.loop_residual_us_per_query",
             AddStageLine(report, "query", rtt_ns, spans,
                          {"net.query_codec", "aqe.execute",
                           "net.result_encode", "net.result_decode"}));
  report.lines.push_back("stages query: aqe.parse (inside aqe.execute on a "
                         "plan-cache miss) median=" +
                         Fmt(MedianSpanNs(spans, "aqe.parse") / 1e3, 2) +
                         "us");
}

namespace {

StackConfig InMemory(StackConfig config) {
  config.durable = false;
  config.cold = false;
  return config;
}

}  // namespace

PublishReplay::PublishReplay(Stack& twin, SpanLog& log)
    : twin_(twin), memory_(InMemory(twin.config())), log_(log) {
  // Full rings, so every replayed append evicts as it does on the twin.
  const std::vector<apollo::TelemetryStream::Entry> fill(
      twin.config().ring_capacity);
  for (std::size_t t = 0; t < memory_.size(); ++t) memory_.Append(t, fill);
}

bool PublishReplay::Run(const apollo::net::PublishBatchMsg& msg,
                        const std::vector<std::size_t>& topics,
                        std::uint64_t request) {
  std::uint64_t before = 0, after = 0;
  for (std::size_t t : topics) before += twin_.archiver(t)->Count();
  const std::uint32_t root = log_.Open("replay.publish", request);
  std::uint32_t s = log_.Open("net.batch_encode", request, root);
  const std::vector<std::uint8_t> wire = EncodeBatchFrame(msg);
  log_.Close(s);
  s = log_.Open("net.batch_decode", request, root);
  const bool decoded = DecodeBatchFrame(wire, decoded_);
  log_.Close(s);
  apollo::net::PublishBatchAckMsg ack;
  s = log_.Open("pubsub.publish_batch", request, root);
  const std::size_t rejected = PublishDecoded(twin_.broker(), decoded_, ack);
  log_.Close(s);
  s = log_.Open("net.ack_codec", request, root);
  AckRoundTripCodec(ack);
  log_.Close(s);
  log_.Close(root);
  for (std::size_t t : topics) after += twin_.archiver(t)->Count();
  apollo::net::PublishBatchAckMsg memory_ack;
  s = log_.Open("pubsub.publish_batch_no_archive", request, root);
  const std::size_t memory_rejected =
      PublishDecoded(memory_.broker(), decoded_, memory_ack);
  log_.Close(s);
  samples_ += msg.SampleCount();
  frame_bytes_ += wire.size();
  evicted_ += after - before;
  return decoded && rejected == 0 && memory_rejected == 0;
}

void PublishReplay::Emit(LayerValues& layers, Report& report, double rtt_ns,
                         std::size_t traced_batches) {
  const std::vector<Span>& spans = log_.spans();
  const double n = static_cast<double>(std::max<std::uint64_t>(samples_, 1));
  layers.Set("net.publish_rtt_us", rtt_ns / 1e3,
             "n=" + std::to_string(traced_batches) +
                 " traced batches, timed from send");
  layers.Set("net.batch_encode_ns_per_sample",
             TotalSpanNs(spans, "net.batch_encode") / n);
  layers.Set("net.batch_decode_ns_per_sample",
             TotalSpanNs(spans, "net.batch_decode") / n);
  layers.Set("net.frame_bytes_per_sample",
             static_cast<double>(frame_bytes_) / n);
  layers.Set("pubsub.publish_batch_ns_per_sample",
             TotalSpanNs(spans, "pubsub.publish_batch") / n,
             "includes the eviction flush into the WAL");
  layers.Set("pubsub.evictions_per_sample",
             static_cast<double>(evicted_) / n,
             "base: " + std::to_string(samples_) + " replayed samples");
  const double wal_ns = TotalSpanNs(spans, "pubsub.publish_batch") -
                        TotalSpanNs(spans, "pubsub.publish_batch_no_archive");
  layers.Set("pubsub.wal_append_ns_per_record",
             wal_ns / static_cast<double>(std::max<std::uint64_t>(evicted_, 1)),
             "publish_batch with minus without archivers; base: " +
                 std::to_string(evicted_) + " replayed evictions");
  layers.Set("net.loop_residual_us_per_publish",
             AddStageLine(report, "publish", rtt_ns, spans,
                          {"net.batch_encode", "net.batch_decode",
                           "pubsub.publish_batch", "net.ack_codec"}));
  report.lines.push_back(
      "stages publish: of which WAL (publish_batch minus the same batch "
      "without archivers) median=" +
      Fmt((MedianSpanNs(spans, "pubsub.publish_batch") -
           MedianSpanNs(spans, "pubsub.publish_batch_no_archive")) /
              1e3,
          2) +
      "us");
}

double AddStageLine(Report& report, const std::string& op, double rtt_ns,
                    const std::vector<Span>& replay,
                    const std::vector<const char*>& stages) {
  std::string line = "stages " + op + ": rtt_p50=" + Fmt(rtt_ns / 1e3, 2) +
                     "us";
  double sum = 0.0;
  for (const char* stage : stages) {
    const double ns = MedianSpanNs(replay, stage);
    sum += ns;
    line += std::string(" ") + stage + "=" + Fmt(ns / 1e3, 2) + "us";
  }
  const double residual_us = (rtt_ns - sum) / 1e3;
  line += " stage_sum=" + Fmt(sum / 1e3, 2) + "us loop_residual=" +
          Fmt(residual_us, 2) + "us" +
          (sum <= rtt_ns ? " (stages within rtt)" : " (STAGES EXCEED RTT)");
  report.lines.push_back(line);
  return residual_us;
}

}  // namespace perfbench
