// bench_service: gpustld service throughput and latency under load.
//
// Drives an in-process CampaignService (no sockets — the transport adds
// nothing to what this measures) with a large queue of small campaign
// jobs across mixed tenants and priority classes, over a mix of hot and
// cold cache content, and reports submit-to-complete latency percentiles,
// jobs/sec and the shared-store hit rate to BENCH_service.json.
//
// Knobs (environment):
//   GPUSTL_BENCH_SERVICE_JOBS     queued jobs (default 1000)
//   GPUSTL_BENCH_SERVICE_WORKERS  service workers (default 4)
//   GPUSTL_BENCH_THREADS          fault-sim threads per job (default 1)
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "isa/assembler.h"
#include "service/service.h"

namespace gpustl::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// K distinct tiny PTPs: same shape, different immediates, so the result
/// store sees K distinct fault-sim keys. Jobs cycling through them model
/// the hot/cold mix of a real fleet (first submission of a variant is
/// cold, every repeat is a pure cache hit).
std::string VariantAsm(int variant) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "0x%x", 0x1200 + variant);
  return std::string(".entry v") + std::to_string(variant) +
         "\n.blocks 1\n.threads 32\n"
         "    S2R R1, SR_TID\n"
         "    MOV32I R0, 4\n"
         "    IMUL R3, R1, R0\n"
         "    IADD32I R2, R3, 0x10000\n"
         "    MOV32I R4, " + buf + "\n"
         "    IADD R5, R4, R1\n"
         "    STG [R2+0x0], R5\n"
         "    EXIT\n";
}

int Main() {
  const int jobs = EnvInt("GPUSTL_BENCH_SERVICE_JOBS", 1000, 1);
  const int workers = EnvInt("GPUSTL_BENCH_SERVICE_WORKERS", 4, 1);
  const int threads = BenchThreads();
  constexpr int kVariants = 6;
  const char* tenants[] = {"t0", "t1", "t2", "t3"};
  const service::Priority priorities[] = {service::Priority::kHigh,
                                          service::Priority::kNormal,
                                          service::Priority::kLow};

  std::fprintf(stderr, "bench_service: %d jobs, %d workers, %d threads\n",
               jobs, workers, threads);

  // Setup — netlist/prep construction and plan building — is one-time
  // amortized cost, not service throughput: it is timed separately and
  // excluded from the jobs/sec serve window below.
  const Clock::time_point setup_start = Clock::now();

  const std::string cache_dir = "bench_service_cache";
  service::ServiceOptions options;
  options.workers = workers;
  // The queue must hold the whole batch: this bench measures service
  // latency, not rejection throughput.
  options.admission.max_queue_depth = static_cast<std::size_t>(jobs) + 16;
  options.admission.per_tenant_quota = static_cast<std::size_t>(jobs) + 16;
  options.cache_dir = cache_dir;
  options.base.num_threads = threads;
  service::CampaignService service(options);

  // Pre-build one plan per variant (each a 2-entry campaign: compact on
  // DU, carry on SP) and share it across jobs — submission-side work must
  // not pollute the queue-to-complete latency.
  std::vector<std::vector<compact::PlanEntry>> plans;
  for (int v = 0; v < kVariants; ++v) {
    service::SubmitRequest req;
    service::SubmitEntry entry;
    entry.asm_text = VariantAsm(v);
    entry.module = "DU";
    req.entries.push_back(entry);
    entry.module = "SP";
    entry.compact = false;
    req.entries.push_back(entry);
    plans.push_back(service::BuildPlan(req));
  }

  struct Slot {
    Clock::time_point submitted;
    double latency_ms = -1.0;
    bool ok = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(jobs));
  std::mutex done_mu;
  std::condition_variable done_cv;
  int done = 0;
  // The serve window: first job admitted to a worker -> last terminal
  // event. Submission-loop and setup wall time are excluded by
  // construction.
  Clock::time_point first_admitted;
  bool admitted_seen = false;
  Clock::time_point last_terminal;

  const double setup_seconds =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  for (int j = 0; j < jobs; ++j) {
    service::JobSpec spec;
    spec.tenant = tenants[j % 4];
    spec.priority = priorities[j % 3];
    spec.plan = plans[static_cast<std::size_t>(j) % kVariants];
    Slot* slot = &slots[static_cast<std::size_t>(j)];
    slot->submitted = Clock::now();
    const auto result = service.Submit(
        std::move(spec),
        [slot, &done_mu, &done_cv, &done, &first_admitted, &admitted_seen,
         &last_terminal](const service::Json& event) {
          const std::string kind = event.GetString("event");
          if (kind == "admitted") {
            std::lock_guard<std::mutex> lock(done_mu);
            if (!admitted_seen) {
              admitted_seen = true;
              first_admitted = Clock::now();
            }
            return;
          }
          if (kind != "complete" && kind != "failed" && kind != "rejected") {
            return;
          }
          slot->latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        slot->submitted)
                  .count();
          slot->ok = kind == "complete";
          std::lock_guard<std::mutex> lock(done_mu);
          last_terminal = Clock::now();
          ++done;
          done_cv.notify_one();
        });
    if (!result.admitted) {
      std::fprintf(stderr, "bench_service: job %d rejected: %s\n", j,
                   result.reason.c_str());
      return 1;
    }
  }
  double wall = 0.0;
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == jobs; });
    if (admitted_seen) {
      wall = std::chrono::duration<double>(last_terminal - first_admitted)
                 .count();
    }
  }
  if (wall <= 0.0) wall = 1e-9;  // all-rejected pathological case

  std::vector<double> latencies;
  int failures = 0;
  for (const Slot& s : slots) {
    latencies.push_back(s.latency_ms);
    failures += s.ok ? 0 : 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto pct = [&](double p) {
    const std::size_t idx = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
    return latencies[idx];
  };
  const double p50 = pct(0.50);
  const double p99 = pct(0.99);
  const double jobs_per_sec = static_cast<double>(jobs) / wall;
  const store::StoreStats cache = service.cache_stats();

  std::printf("bench_service: %d jobs served in %.2fs (setup %.2fs "
              "excluded) — %.1f jobs/s, p50 %.2fms, p99 %.2fms, "
              "%d failures\n",
              jobs, wall, setup_seconds, jobs_per_sec, p50, p99, failures);
  std::printf("  cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              cache.hit_rate_percent());
  for (const auto& [tenant, t] : service.tenant_cache_stats()) {
    std::printf("  tenant %s: %llu jobs, %llu hits / %llu misses, "
                "%llu KiB read\n",
                tenant.c_str(), static_cast<unsigned long long>(t.jobs),
                static_cast<unsigned long long>(t.traffic.hits),
                static_cast<unsigned long long>(t.traffic.misses),
                static_cast<unsigned long long>(t.traffic.bytes_read / 1024));
  }

  BenchRecord record;
  record.bench = "service";
  record.name = "mixed-tenants";
  record.wall_seconds = wall;
  record.threads = threads;
  record.extra = {
      {"jobs", static_cast<double>(jobs)},
      {"workers", static_cast<double>(workers)},
      {"jobs_per_sec", jobs_per_sec},
      {"p50_ms", p50},
      {"p99_ms", p99},
      {"cache_hits", static_cast<double>(cache.hits)},
      {"cache_misses", static_cast<double>(cache.misses)},
      {"cache_hit_rate", cache.hit_rate_percent()},
      {"failures", static_cast<double>(failures)},
      {"setup_seconds", setup_seconds},
  };
  for (const auto& [tenant, t] : service.tenant_cache_stats()) {
    record.extra.emplace_back("tenant_" + tenant + "_jobs",
                              static_cast<double>(t.jobs));
    record.extra.emplace_back("tenant_" + tenant + "_cache_hits",
                              static_cast<double>(t.traffic.hits));
    record.extra.emplace_back("tenant_" + tenant + "_cache_misses",
                              static_cast<double>(t.traffic.misses));
  }
  const char* out = std::getenv("GPUSTL_BENCH_JSON");
  AppendBenchJson(out != nullptr && out[0] != '\0' ? out
                                                   : "BENCH_service.json",
                  record);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gpustl::bench

int main() { return gpustl::bench::Main(); }
