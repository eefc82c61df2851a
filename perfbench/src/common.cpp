#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

std::uint64_t DeriveSeed(std::uint64_t table_seed, std::uint64_t seed) {
  if (seed == 0) return table_seed;
  // SplitMix64 finalizer over (table seed, run seed).
  std::uint64_t z = table_seed + seed * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double ChildrenPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // resets VmHWM (Documentation/filesystems/proc.rst)
  out.flush();
  if (!out) throw std::runtime_error("cannot reset peak RSS");
}

double ProcessPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("no /proc stat for pid " + std::to_string(pid));
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::int64_t Tracer::Open(std::string name, double start,
                          std::int64_t parent, std::string id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start, start, parent, std::move(id)});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::Close(std::int64_t span, double end) {
  if (span < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end = end;
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\": %zu, \"parent\": %lld, \"start\": %.9f, "
                  "\"end\": %.9f, ",
                  i, static_cast<long long>(s.parent), s.start, s.end);
    // Span names and ids are benchmark-made tokens: no escaping needed.
    out << buf << "\"name\": \"" << s.name << "\", \"id\": \"" << s.id
        << "\"}\n";
  }
}

void Metrics::Set(const std::string& name, double value) {
  values_[name] = value;
}

double Metrics::Get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::runtime_error("unset metric " + name);
  return it->second;
}

void Metrics::Print(bool trace, bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const {
  const MetricList& list = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{";
  std::printf("\n%s metrics\n", trace ? "per-layer" : "end-to-end");
  for (const auto& [name, unit] : list) {
    const auto it = values_.find(name);
    if (!trace && it == values_.end()) {
      throw std::runtime_error("end-to-end metric " + name + " not measured");
    }
    const double value = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name.c_str(), value,
                  unit.c_str());
    json += buf;
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
}

const MetricList& EndToEndMetrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"campaign_s", "s"},
      {"jobs_per_s", "jobs/s"},
      {"job_p50_ms", "ms"},
      {"job_p99_ms", "ms"},
      {"size_reduction_pct", "%"},
      {"duration_reduction_pct", "%"},
      {"compacted_fc_pct", "%"},
      {"ok_pct", "%"},
      {"peak_rss_mb", "MiB"},
  };
  return list;
}

const MetricList& PerLayerMetrics() {
  static const MetricList list = {
      {"compact.logic_trace_s", "s"},
      {"compact.fault_sim_s", "s"},
      {"compact.label_s", "s"},
      {"compact.reduce_s", "s"},
      {"compact.validate_s", "s"},
      {"compact.measure_s", "s"},
      {"compact.entry_s.imm", "s"},
      {"compact.entry_s.mem", "s"},
      {"compact.entry_s.cntrl", "s"},
      {"compact.entry_s.tpgen", "s"},
      {"compact.entry_s.rand", "s"},
      {"compact.entry_s.sfu_imm", "s"},
      {"compact.entry_s.cntrl_2", "s"},
      {"compact.entry_s.cntrl_3", "s"},
      {"compact.unattributed_pct", "%"},
      {"gpu.sim_cycles", "cycles"},
      {"gpu.host_ns_per_cycle", "ns/cycle"},
      {"fault.faults", "count"},
      {"fault.classes", "count"},
      {"fault.trim_blocks_replayed", "count"},
      {"fault.trim_faults_early_exited", "count"},
      {"fault.trim_warm_hits", "count"},
      {"store.hits", "count"},
      {"store.misses", "count"},
      {"store.stores", "count"},
      {"store.bytes_read", "bytes"},
      {"store.bytes_written", "bytes"},
      {"store.hit_pct", "%"},
      {"store.bytes_read_per_job", "bytes"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.run_p50_ms", "ms"},
      {"service.run_p99_ms", "ms"},
      {"service.stage_ms.logic-trace", "ms"},
      {"service.stage_ms.fault-sim", "ms"},
      {"service.stage_ms.label", "ms"},
      {"service.stage_ms.reduce", "ms"},
      {"service.stage_ms.validate", "ms"},
      {"service.stage_ms.measure", "ms"},
      {"service.cores_busy", "cores"},
      {"service.hot_share_pct", "%"},
      {"net.connect_s", "s"},
      {"net.submit_to_queued_p50_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"distrib.wave1_s", "s"},
      {"distrib.plan_s", "s"},
      {"distrib.wave2_s", "s"},
      {"distrib.final_s", "s"},
      {"distrib.worker_units", "count"},
      {"distrib.inline_units", "count"},
      {"distrib.steals", "count"},
      {"distrib.replay_share_pct", "%"},
      {"distrib.speedup", "x"},
      {"distrib.speedup_base_single_s", "s"},
      {"distrib.speedup_base_fleet_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

}  // namespace perfbench
