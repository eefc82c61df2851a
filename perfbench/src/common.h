// Shared plumbing for the perfbench workloads: run arguments, clocks and
// order statistics, the in-memory span recorder, the metric sink that
// prints the result line, and process-resource probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One workload invocation, as run.py passes it.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;   // seed-independent generated inputs (ATPG PTPs)
  std::string work;     // per-run scratch: stores, distrib dirs, reports
  std::string gpustld;  // daemon binary (service_mix)
  int nproc = 1;
};

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Median and nearest-rank percentile (p in [0, 1]) of a sample; both 0
/// for an empty one. Infinite samples (failed jobs) sort last.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);

/// Per-workload generator seed: the table benches' fixed seed for seed 0,
/// a distinct well-mixed stream for every other seed.
std::uint64_t DeriveSeed(std::uint64_t table_seed, std::uint64_t seed);

/// Removes and recreates `dir`.
void ResetDir(const std::string& dir);

/// Peak resident set (VmHWM) of a live process, and of this process's
/// largest reaped child, in MiB. ResetPeakRss restarts this process's
/// VmHWM from its current resident set.
double ProcessPeakRssMb(int pid);
double ChildrenPeakRssMb();
void ResetPeakRss();

/// utime + stime of a live process, in seconds.
double ProcessCpuSeconds(int pid);

/// In-memory span log, written out as JSON lines at exit (--trace 1).
/// Spans are recorded from the benchmark's side of each layer boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled); pass the
  /// index as `parent` to nest spans and to Close. `id` names the
  /// campaign, entry or job the span belongs to.
  std::int64_t Open(std::string name, double start, std::int64_t parent,
                    std::string id);
  void Close(std::int64_t span, double end);

  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::string id;
  };

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Collects named metric values and prints the run's result line.
class Metrics {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Prints every metric of the selected set (end-to-end for an untraced
  /// run, per-layer for a traced one) as a table, then the final stdout
  /// line {"correct", "attempted", "failed", "metrics"}. An end-to-end
  /// metric the workload did not set is a benchmark bug (throws); a
  /// per-layer metric it did not set belongs to a layer the workload does
  /// not exercise and reads 0.
  void Print(bool trace, bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
};

/// The metric names and units of BENCHMARK.json, in its order.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& EndToEndMetrics();
const MetricList& PerLayerMetrics();

}  // namespace perfbench
