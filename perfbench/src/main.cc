// apollo_e2e: end-to-end benchmark of the loopback Apollo daemon.
//
//   apollo_e2e --workload ingest|query|monitor --seed N --seconds S
//              --trace 0|1 [--work-dir DIR] [--tiny] [--corrupt]
//
// Prints the host fingerprint, the input digest and every metric by name
// with its unit and sample count, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, and a Chrome
// trace is written under the work directory. Exits 1 when any answer,
// ack or count disagrees with the reference model.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "obs/trace.h"

using namespace perfbench;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ingest|query|monitor --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--tiny] "
               "[--corrupt]\n",
               argv0);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-6s %-40s %16s %-6s %s\n", kind, m.name.c_str(),
                Fmt(m.value, 4).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--workload") == 0 && has_value) {
      opt.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (std::strcmp(a, "--work-dir") == 0 && has_value) {
      opt.work_dir = argv[++i];
    } else if (std::strcmp(a, "--tiny") == 0) {
      opt.tiny = true;
    } else if (std::strcmp(a, "--corrupt") == 0) {
      opt.corrupt = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if ((trace != 0 && trace != 1) || !(opt.seconds > 0.0)) return Usage(argv[0]);
  opt.trace = trace == 1;

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "ingest") run = RunIngest;
  if (opt.workload == "query") run = RunQuery;
  if (opt.workload == "monitor") run = RunMonitor;
  if (run == nullptr) return Usage(argv[0]);

  // The program's own span rings stay off: spans are recorded by this
  // benchmark's code only.
  apollo::obs::TraceRecorder::Global().Disable();
  std::filesystem::create_directories(opt.work_dir);

  const std::string host = HostFingerprintJson();
  std::printf("host %s\n", host.c_str());
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace, opt.tiny ? " tiny" : "",
              opt.corrupt ? " corrupt" : "");
  std::fflush(stdout);

  const CpuTicks ticks0 = HostCpuTicks();
  Report report = run(opt);
  const CpuTicks ticks1 = HostCpuTicks();

  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  const std::uint64_t total = ticks1.total - ticks0.total;
  std::printf("host steal_pct=%s over the run (CPU time the hypervisor took; "
              "compare runs only at similar steal)\n",
              Fmt(total == 0 ? 0.0
                             : 100.0 * static_cast<double>(ticks1.steal -
                                                           ticks0.steal) /
                                   static_cast<double>(total),
                  1)
                  .c_str());
  PrintMetrics("e2e", report.e2e);
  PrintMetrics("info", report.info);
  if (opt.trace) PrintMetrics("layer", report.layer);
  std::printf("check attempted=%llu failed=%llu failed_op_ratio=%s %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              JsonNumber(report.attempted == 0
                             ? 0.0
                             : static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted))
                  .c_str(),
              report.correct ? "reference model agrees"
                             : ("MISMATCH: " + report.first_mismatch).c_str());

  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace_" + opt.workload +
                             "_seed" + std::to_string(opt.seed) + ".json";
    const std::string meta = "{\"workload\":\"" + opt.workload +
                             "\",\"seed\":" + std::to_string(opt.seed) +
                             ",\"host\":" + host + "}";
    if (WriteChromeTrace(path, report.spans, meta, 200000)) {
      std::printf("trace %s (%zu spans, first 200000 written)\n", path.c_str(),
                  report.spans.size());
    } else {
      std::printf("trace write failed: %s\n", path.c_str());
      report.correct = false;
    }
  }

  const std::vector<Metric>& out = opt.trace ? report.layer : report.e2e;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    report.attempted, 1));
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
