// The `service_mix` workload: the real gpustld, spawned with nproc
// workers and a TCP listener on loopback, driven by this one client
// process over nproc connections that each carry many submits.
//
// Traffic: 4 tenants, 3 priority classes, 1-2 entry jobs. Most jobs
// submit one of the six hot variants of the in-process
// bench/bench_service.cpp (a tiny 8-instruction program compacted on the
// DU, then carried on SP; immediates 0x1200 + v at seed 0), which a
// warm-up phase has put in the daemon's result store. The rest are
// never-seen cold jobs that must fault-simulate: a small seeded IMM PTP
// compacted on the DU, every other one followed by a small MEM PTP.
// Phases: warm-up (every hot variant once, unmeasured), an open loop of
// Poisson arrivals at a fixed offered rate, then bursts that each queue
// bench_service's default 1000 jobs at once.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "circuits/decoder_unit.h"
#include "circuits/fp32.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "isa/disasm.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/handshake.h"
#include "net/net.h"
#include "service/service.h"
#include "stl/generators.h"
#include "store/result_store.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace gpustl;
using service::Json;

constexpr char kSecret[] = "perfbench";
constexpr int kSetupReps = 40;          // spawn-only set-up samples
constexpr int kDaemons = 8;
constexpr int kHotVariants = 6;         // bench_service's kVariants
// Assumptions, not measurements: the share of jobs that hit a hot
// variant; the shape of a cold job (1 or 2 PTPs of 6 SBs each); and the
// open-loop rate, about a tenth of the ~2000 jobs/s a 4-worker service
// drains (ROADMAP item 2a), so that the open loop times jobs rather than
// queueing. At half that drain rate one seed's p99 read 23 ms and
// another's 1270 ms.
constexpr double kHotShare = 0.9;
constexpr int kColdSbs = 6;
constexpr double kOfferedRate = 200.0;  // open-loop jobs per second
constexpr double kOpenShare = 0.4;      // of --seconds
constexpr int kBurstsPerDaemon = 4;     // the first one is a warm-up
constexpr int kBurstJobs = 1000;        // bench_service's default
constexpr double kLateLimitMs = 50.0;   // loadgen p99 lateness validity
constexpr double kPhaseTimeoutS = 120.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// The daemon

/// One gpustld process: spawned with a fresh store, ready once its TCP
/// listener answers a ping; shut down through the `shutdown` op.
class Daemon {
 public:
  Daemon(const RunArgs& args, const std::string& dir) : dir_(dir) {
    ResetDir(dir);
    const std::string workers = std::to_string(args.nproc);
    const std::string store = dir + "/store";
    std::vector<std::string> argv_s = {
        args.gpustld,    "--listen",       "127.0.0.1:0", "--secret",
        kSecret,         "--workers",      workers,       "--cache-dir",
        store,           "--queue-depth",  "1000000",     "--tenant-quota",
        "1000000"};
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    int out[2];
    if (pipe(out) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    const int rc = posix_spawn(&pid_, args.gpustld.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    out_fd_ = out[0];
    if (rc != 0) throw std::runtime_error("cannot spawn " + args.gpustld);

    // "gpustld: listening on tcp 127.0.0.1:<port> (N workers)"
    std::string line;
    char c = 0;
    while (port_ == 0) {
      if (read(out_fd_, &c, 1) != 1) {
        throw std::runtime_error("gpustld exited before listening");
      }
      if (c != '\n') {
        line += c;
        continue;
      }
      const auto at = line.find("listening on tcp ");
      if (at != std::string::npos) {
        const auto colon = line.find(':', at + 17);
        port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
      }
      line.clear();
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  net::Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  int pid() const { return pid_; }

  /// One op over a fresh NetChannel (the client tool's control path).
  Json Call(const std::string& op) const {
    net::ChannelOptions options;
    options.endpoint = endpoint();
    options.secret = kSecret;
    net::NetChannel channel(options);
    std::string error;
    if (!channel.EnsureConnected(&error)) {
      throw std::runtime_error("connect: " + error);
    }
    Json request = Json::Object();
    request.Set("op", op);
    const auto reply = channel.Call(request, 30000, op);
    if (!reply) throw std::runtime_error("no reply to " + op);
    return *reply;
  }

  /// Graceful stop; returns gpustld's exit status. The store goes with
  /// the daemon, so that its writeback does not land in later
  /// measurements.
  int Shutdown() {
    Call("shutdown");
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    std::filesystem::remove_all(dir_);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Jobs

enum class Phase { kWarm, kOpen, kBurst };

struct Job {
  std::string client_job;
  std::size_t plan = 0;  // index into the workload's distinct plans
  bool hot = false;
  Phase phase = Phase::kWarm;
  std::size_t conn = 0;
  std::string payload;  // the framed submit request

  // Written by the sender thread.
  double due = 0.0;
  double sent = 0.0;
  // Written by the connection's reader thread.
  double queued = 0.0;
  double admitted = 0.0;
  double terminal = 0.0;
  std::string outcome;  // complete, degraded, failed, rejected, transport
  std::string report;
  std::vector<std::pair<std::string, double>> events;  // (stage|"", time)
};

bool Ok(const Job& j) { return j.outcome == "complete"; }

/// bench_service's job for hot variant `variant`: the same tiny program
/// with a variant-specific immediate, compacted on the DU, then carried on
/// SP. Distinct immediates give the store distinct fault-sim keys. The
/// program text is VariantAsm's in bench/bench_service.cpp, which sits in
/// that bench's main file and cannot be linked.
service::SubmitRequest HotRequest(int variant, std::uint32_t immediate) {
  char imm[16];
  std::snprintf(imm, sizeof(imm), "0x%x", immediate);
  service::SubmitEntry entry;
  entry.asm_text = ".entry v" + std::to_string(variant) +
                   "\n.blocks 1\n.threads 32\n"
                   "    S2R R1, SR_TID\n"
                   "    MOV32I R0, 4\n"
                   "    IMUL R3, R1, R0\n"
                   "    IADD32I R2, R3, 0x10000\n"
                   "    MOV32I R4, " + imm + "\n"
                   "    IADD R5, R4, R1\n"
                   "    STG [R2+0x0], R5\n"
                   "    EXIT\n";
  entry.module = "DU";
  service::SubmitRequest req;
  req.entries.push_back(entry);
  entry.module = "SP";
  entry.compact = false;
  req.entries.push_back(entry);
  return req;
}

/// A cold job: a small IMM PTP of its own seed compacted on the DU, then
/// for two-entry jobs a small MEM PTP compacted against the faults the
/// first left undetected.
service::SubmitRequest ColdRequest(std::uint64_t seed, bool two_entries) {
  service::SubmitEntry entry;
  entry.module = "DU";
  entry.asm_text = isa::DisassembleProgram(stl::GenerateImm(kColdSbs, seed));
  service::SubmitRequest req;
  req.entries.push_back(entry);
  if (two_entries) {
    entry.asm_text =
        isa::DisassembleProgram(stl::GenerateMem(kColdSbs, seed ^ 0x5eed));
    req.entries.push_back(entry);
  }
  return req;
}

std::string SubmitPayload(const service::SubmitRequest& req,
                          const std::string& client_job,
                          const std::string& tenant,
                          const std::string& priority) {
  Json doc = Json::Object();
  doc.Set("op", "submit");
  doc.Set("client_job", client_job);
  doc.Set("tenant", tenant);
  doc.Set("priority", priority);
  Json entries = Json::Array();
  for (const auto& e : req.entries) {
    Json entry = Json::Object();
    entry.Set("asm", e.asm_text);
    entry.Set("module", e.module);
    entry.Set("mode", e.compact ? "compact" : "carry");
    entries.Append(std::move(entry));
  }
  doc.Set("entries", std::move(entries));
  return doc.Dump();
}

/// Seeded uniform double in [0, 1) — independent of the standard
/// library's distribution implementations.
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// The load client

/// nproc framed connections, each with a reader thread that stamps every
/// job event on arrival. One sender thread (the caller) writes submits.
class LoadClient {
 public:
  LoadClient(const net::Endpoint& endpoint, int connections,
             std::vector<Job>& jobs)
      : jobs_(jobs) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      index_[jobs_[i].client_job] = i;
    }
    for (int i = 0; i < connections; ++i) {
      const double start = Now();
      std::string error;
      const int fd = net::ConnectTcp(endpoint, 5000, &error);
      if (fd < 0) throw std::runtime_error("connect: " + error);
      auto conn = std::make_unique<net::Conn>(fd);
      const auto hs = net::ClientHandshake(*conn, kSecret, "client", 10000);
      if (!hs.ok) throw std::runtime_error("handshake: " + hs.error);
      connect_seconds_.push_back(Now() - start);
      conns_.push_back(std::move(conn));
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      readers_.emplace_back([this, i] { ReadLoop(i); });
    }
  }

  ~LoadClient() {
    for (auto& c : conns_) c->Shutdown();
    for (auto& t : readers_) t.join();
  }

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  const std::vector<double>& connect_seconds() const {
    return connect_seconds_;
  }

  /// Sends jobs [begin, end) at their `due` times (0 = immediately) and
  /// waits until each reached its terminal event. False on timeout.
  bool RunPhase(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Job& job = jobs_[i];
      if (job.due > 0.0) {
        while (Now() < job.due) {
          const double left = job.due - Now();
          if (left > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(left));
          }
        }
      }
      job.sent = Now();
      if (job.due == 0.0) job.due = job.sent;
      net::Conn& conn = *conns_[job.conn];
      if (conn.WriteFrame(job.payload, 30000, "request") !=
          net::IoStatus::kOk) {
        job.outcome = "transport";
        job.terminal = Now();
        Finish();
      }
    }
    sent_ += end - begin;
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(kPhaseTimeoutS),
                        [&] { return finished_ >= sent_; });
  }

 private:
  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    cv_.notify_all();
  }

  void ReadLoop(std::size_t c) {
    net::Conn& conn = *conns_[c];
    Json event;
    while (conn.ReadJson(&event, -1, "event") == net::IoStatus::kOk) {
      const double t = Now();
      const auto it = index_.find(event.GetString("client_job"));
      if (it == index_.end()) continue;
      Job& job = jobs_[it->second];
      const std::string kind = event.GetString("event");
      job.events.emplace_back(kind == "stage" ? event.GetString("stage") : "",
                              t);
      if (kind == "queued") {
        job.queued = t;
      } else if (kind == "admitted") {
        job.admitted = t;
      } else if (kind == "complete" || kind == "failed" ||
                 kind == "rejected") {
        job.terminal = t;
        job.outcome = kind == "complete" ? event.GetString("status") : kind;
        job.report = event.GetString("report");
        Finish();
      }
    }
  }

  std::vector<Job>& jobs_;
  std::map<std::string, std::size_t> index_;  // read-only after construction
  std::vector<std::unique_ptr<net::Conn>> conns_;
  std::vector<double> connect_seconds_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t sent_ = 0;      // jobs submitted (sender thread only)
  std::size_t finished_ = 0;  // jobs at their terminal event; guarded by mu_

  std::vector<std::thread> readers_;  // after the members they use
};

// ---------------------------------------------------------------------------
// In-process reference

/// Renders every distinct plan in-process, exactly as the daemon runs it
/// (CampaignService: 1 fault-sim thread, fp32 module present, shared
/// store), and counts the store misses each plan causes on first use.
/// Reductions cover every distinct plan once; fault coverage covers the
/// hot variants' DU entries, compacted against original, over all DU
/// faults (the one module the jobs compact on).
struct Reference {
  std::vector<std::string> reports;
  std::vector<compact::CampaignSummary> summaries;
  std::vector<std::uint64_t> misses;
  double fc_original = 0.0;
  double fc_final = 0.0;
};

Reference RunReference(
    const std::vector<std::vector<compact::PlanEntry>>& plans,
    std::size_t hot_plans, const std::string& dir, int threads) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  const netlist::Netlist fp32 = circuits::BuildFp32();
  compact::ModulePrepSet preps;
  preps.du = compact::BuildModulePrep(du);
  preps.sp = compact::BuildModulePrep(sp);
  preps.sfu = compact::BuildModulePrep(sfu);
  preps.fp32 = compact::BuildModulePrep(fp32);
  ResetDir(dir);
  store::ResultStore store(dir);
  compact::CompactorOptions opt;
  opt.result_store = &store;

  // Plans are independent (distinct content, hence distinct store keys),
  // so they run on `threads` threads like the daemon's workers; each
  // plan's misses come from its thread's store attribution.
  Reference ref;
  ref.reports.resize(plans.size());
  ref.summaries.resize(plans.size());
  ref.misses.resize(plans.size());
  std::vector<isa::Program> hot_compacted;  // hot plans' final entries
  std::mutex hot_mu;
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(static_cast<std::size_t>(threads));
  const auto work = [&](std::size_t t) {
    try {
      for (std::size_t p; (p = next++) < plans.size();) {
        store::StoreAttribution traffic;
        store::ScopedStoreAttribution scope(&traffic);
        compact::StlCampaign campaign(du, sp, sfu, opt, &fp32, &preps);
        for (const auto& pe : plans[p]) campaign.Process(pe.entry);
        ref.summaries[p] = campaign.Summary();
        ref.reports[p] = compact::RenderCampaignReport(campaign.records(),
                                                       ref.summaries[p]);
        ref.misses[p] = traffic.misses;
        if (p >= hot_plans) continue;
        std::lock_guard<std::mutex> lock(hot_mu);
        for (std::size_t i = 0; i < plans[p].size(); ++i) {
          const auto& rec = campaign.records()[i];
          if (plans[p][i].entry.target != trace::TargetModule::kDecoderUnit) {
            continue;
          }
          hot_compacted.push_back(rec.compacted ? rec.result.compacted
                                                : plans[p][i].entry.ptp);
        }
      }
    } catch (const std::exception& e) {
      errors[t] = e.what();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(work, static_cast<std::size_t>(t));
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw std::runtime_error("reference campaign: " + e);
  }

  // Fault coverage of the hot variants' DU entries (detections
  // are a union, so the order of the compacted programs does not matter).
  compact::Compactor before(du, trace::TargetModule::kDecoderUnit, {},
                            preps.du);
  compact::Compactor after(du, trace::TargetModule::kDecoderUnit, {},
                           preps.du);
  for (std::size_t p = 0; p < hot_plans; ++p) {
    for (const auto& pe : plans[p]) {
      if (pe.entry.target == trace::TargetModule::kDecoderUnit) {
        before.AbsorbCoverage(pe.entry.ptp);
      }
    }
  }
  for (const auto& ptp : hot_compacted) after.AbsorbCoverage(ptp);
  ref.fc_original = before.CumulativeFcPercent();
  ref.fc_final = after.CumulativeFcPercent();
  return ref;
}

// ---------------------------------------------------------------------------
// The workload

std::uint64_t StatusCount(const Json& status, const char* group,
                          const char* field) {
  const Json* g = status.Find(group);
  return g == nullptr ? 0 : static_cast<std::uint64_t>(g->GetInt(field));
}

std::uint64_t TenantSum(const Json& status, const char* field) {
  std::uint64_t sum = 0;
  if (const Json* tenants = status.Find("tenants")) {
    for (const auto& [name, t] : tenants->fields()) {
      (void)name;
      sum += static_cast<std::uint64_t>(t.GetInt(field));
    }
  }
  return sum;
}

}  // namespace

int RunServiceMix(const RunArgs& args) {
  std::mt19937_64 rng(DeriveSeed(0x5e7c1ce, args.seed));
  const char* tenants[] = {"t0", "t1", "t2", "t3"};
  const char* priorities[] = {"high", "normal", "low"};

  // Inputs: the distinct plans (hot variants first), then the job list.
  // Seed 0 uses bench_service's hot immediates; every other seed draws
  // them.
  std::vector<service::SubmitRequest> requests;
  std::set<std::uint32_t> immediates;
  for (int v = 0; v < kHotVariants; ++v) {
    auto immediate = 0x1200u + static_cast<std::uint32_t>(v);
    if (args.seed != 0) {
      do {
        immediate = static_cast<std::uint32_t>(rng());
      } while (!immediates.insert(immediate).second);
    }
    requests.push_back(HotRequest(v, immediate));
  }
  std::vector<Job> jobs;
  // A warm-up job submits hot variant `warm`; any other job draws hot or
  // cold, and a cold job gets a never-seen PTP.
  const auto add_job = [&](Phase phase, double due, int warm) {
    Job job;
    job.phase = phase;
    job.due = due;
    job.hot = warm >= 0 || Uniform(rng) < kHotShare;
    if (warm >= 0) {
      job.plan = static_cast<std::size_t>(warm);
    } else if (job.hot) {
      job.plan = static_cast<std::size_t>(rng() % kHotVariants);
    } else {
      job.plan = requests.size();
      requests.push_back(ColdRequest(rng(), job.plan % 2 == 1));
    }
    job.client_job = "pb-" + std::to_string(args.seed) + "-" +
                     std::to_string(jobs.size());
    job.conn = jobs.size() % static_cast<std::size_t>(args.nproc);
    const char* tenant = tenants[rng() % 4];
    const char* priority = priorities[rng() % 3];
    job.payload =
        SubmitPayload(requests[job.plan], job.client_job, tenant, priority);
    jobs.push_back(std::move(job));
  };
  // Per daemon: a warm-up of every hot variant, the open loop (first
  // daemon only), then bursts, of which each daemon's first is unmeasured.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;
    Phase phase = Phase::kWarm;
    bool measured = false;
  };
  std::vector<std::vector<Segment>> schedule(kDaemons);
  const auto add_segment = [&](int d, Phase phase, bool measured, int n,
                               double rate) {
    Segment seg{jobs.size(), 0, phase, measured};
    if (rate > 0) {
      const double span = kOpenShare * args.seconds;
      for (double t = 0.0;;) {
        t += -std::log(1.0 - Uniform(rng)) / rate;
        if (t >= span) break;
        add_job(phase, t, -1);  // due: offset from the loop's start
      }
    } else {
      for (int i = 0; i < n; ++i) {
        add_job(phase, 0.0, phase == Phase::kWarm ? i : -1);
      }
    }
    seg.end = jobs.size();
    schedule[static_cast<std::size_t>(d)].push_back(seg);
  };
  for (int d = 0; d < kDaemons; ++d) {
    add_segment(d, Phase::kWarm, false, kHotVariants, 0.0);
    if (d == 0) add_segment(d, Phase::kOpen, true, 0, kOfferedRate);
    for (int b = 0; b < kBurstsPerDaemon; ++b) {
      add_segment(d, Phase::kBurst, b > 0, kBurstJobs, 0.0);
    }
  }
  std::vector<std::vector<compact::PlanEntry>> plans;
  for (const auto& req : requests) plans.push_back(service::BuildPlan(req));

  // Set-up: spawn -> first ping answered over TCP, on a fresh store each
  // time, before any load (a daemon spawned right after a loaded one
  // shuts down would also time that teardown).
  std::vector<double> setup;
  const auto spawn = [&](std::vector<double>* seconds) {
    const double start = Now();
    auto daemon = std::make_unique<Daemon>(args, args.work + "/daemon");
    if (daemon->Call("ping").GetString("event") != "pong") {
      throw std::runtime_error("gpustld did not answer ping");
    }
    if (seconds != nullptr) seconds->push_back(Now() - start);
    return daemon;
  };
  for (int i = 0; i < kSetupReps; ++i) {
    if (spawn(&setup)->Shutdown() != 0) {
      throw std::runtime_error("gpustld did not drain cleanly");
    }
  }

  // Several daemons in turn, each from an empty store, so that the
  // measured bursts sample kDaemons process lifetimes spread over the run:
  // one daemon's bursts drain at a steady rate, but that rate differed by
  // up to 25 % from one daemon to the next.
  Tracer tracer(args.trace);
  std::vector<double> burst_seconds;
  std::vector<double> burst_cores;
  std::vector<double> peak_rss;
  std::vector<double> connect_seconds;
  std::uint64_t measured_misses = 0;
  std::uint64_t measured_hits = 0;
  std::uint64_t measured_stores = 0;
  std::uint64_t measured_bytes_read = 0;
  std::uint64_t measured_bytes_written = 0;
  std::size_t open_begin = 0;
  std::size_t open_end = 0;
  for (int d = 0; d < kDaemons; ++d) {
    std::unique_ptr<Daemon> daemon = spawn(nullptr);
    Json status_warm;
    bool finished = true;
    {
      LoadClient client(daemon->endpoint(), args.nproc, jobs);
      connect_seconds.insert(connect_seconds.end(),
                             client.connect_seconds().begin(),
                             client.connect_seconds().end());
      for (const Segment& seg : schedule[static_cast<std::size_t>(d)]) {
        if (!finished) break;
        if (seg.phase == Phase::kOpen) {
          open_begin = seg.begin;
          open_end = seg.end;
          const double open_start = Now() + 0.05;
          for (std::size_t i = seg.begin; i < seg.end; ++i) {
            jobs[i].due += open_start;
          }
        }
        // A burst drains completely before the next segment: its wall
        // time runs from the first send to the last terminal event.
        const double cpu_before = ProcessCpuSeconds(daemon->pid());
        const double start = Now();
        finished = client.RunPhase(seg.begin, seg.end);
        if (seg.phase == Phase::kWarm) status_warm = daemon->Call("status");
        if (seg.phase != Phase::kBurst || !seg.measured) continue;
        double last = start;
        for (std::size_t i = seg.begin; i < seg.end; ++i) {
          last = std::max(last, jobs[i].terminal);
        }
        burst_seconds.push_back(last - start);
        burst_cores.push_back(
            (ProcessCpuSeconds(daemon->pid()) - cpu_before) / (last - start));
      }
      if (finished) {
        const Json status_end = daemon->Call("status");
        measured_hits += StatusCount(status_end, "cache", "hits") -
                         StatusCount(status_warm, "cache", "hits");
        measured_misses += StatusCount(status_end, "cache", "misses") -
                           StatusCount(status_warm, "cache", "misses");
        measured_stores += StatusCount(status_end, "cache", "stores") -
                           StatusCount(status_warm, "cache", "stores");
        measured_bytes_read += TenantSum(status_end, "cache_bytes_read") -
                               TenantSum(status_warm, "cache_bytes_read");
        measured_bytes_written +=
            TenantSum(status_end, "cache_bytes_written") -
            TenantSum(status_warm, "cache_bytes_written");
        peak_rss.push_back(ProcessPeakRssMb(daemon->pid()));
      }
    }
    if (!finished) {
      std::fprintf(stderr, "perfbench: jobs still running after %.0f s\n",
                   kPhaseTimeoutS);
      return 1;
    }
    const int daemon_exit = daemon->Shutdown();
    if (daemon_exit != 0) {
      std::fprintf(stderr, "perfbench: gpustld exited with %d\n",
                   daemon_exit);
      return 1;
    }
  }

  // Correctness: every complete job's report equals the in-process report
  // of the same plan.
  const double ref_start = Now();
  const Reference ref =
      RunReference(plans, kHotVariants, args.work + "/reference-store",
                   args.nproc);
  std::filesystem::remove_all(args.work + "/reference-store");
  const double ref_seconds = Now() - ref_start;
  std::uint64_t attempted = jobs.size();
  std::uint64_t failed = 0;
  std::size_t mismatches = 0;
  for (const Job& job : jobs) {
    if (!Ok(job)) {
      ++failed;
    } else if (job.report != ref.reports[job.plan]) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: %zu job reports differ from the in-process "
                 "report of the same plan\n",
                 mismatches);
    return 1;
  }

  // Open loop: latency from the due time, failures beyond any limit.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  for (std::size_t i = open_begin; i < open_end; ++i) {
    const Job& j = jobs[i];
    latency_ms.push_back(Ok(j) ? (j.terminal - j.due) * 1e3 : kInf);
    late_ms.push_back((j.sent - j.due) * 1e3);
  }
  const double late_p99 = Percentile(late_ms, 0.99);
  if (late_p99 > kLateLimitMs) {
    std::fprintf(stderr,
                 "perfbench: INVALID run — the load generator fell behind "
                 "(late p99 %.1f ms > %.0f ms)\n",
                 late_p99, kLateLimitMs);
    return 3;
  }

  const double burst_s = Median(burst_seconds);
  Metrics metrics;
  metrics.Set("setup_s", Median(setup));
  metrics.Set("campaign_s", burst_s);
  metrics.Set("jobs_per_s", kBurstJobs / burst_s);
  metrics.Set("job_p50_ms", std::min(Median(latency_ms), 1e12));
  metrics.Set("job_p99_ms", std::min(Percentile(latency_ms, 0.99), 1e12));
  std::uint64_t size_before = 0;
  std::uint64_t size_after = 0;
  std::uint64_t dur_before = 0;
  std::uint64_t dur_after = 0;
  for (const auto& s : ref.summaries) {
    size_before += s.original_size;
    size_after += s.final_size;
    dur_before += s.original_duration;
    dur_after += s.final_duration;
  }
  metrics.Set("size_reduction_pct",
              100.0 * (1.0 - static_cast<double>(size_after) /
                                 static_cast<double>(size_before)));
  metrics.Set("duration_reduction_pct",
              100.0 * (1.0 - static_cast<double>(dur_after) /
                                 static_cast<double>(dur_before)));
  metrics.Set("compacted_fc_pct", ref.fc_final);
  const double failed_pct =
      100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
  metrics.Set("ok_pct", 100.0 - failed_pct);
  metrics.Set("peak_rss_mb", Median(peak_rss));

  std::printf("service_mix: seed %llu, %zu jobs over %d daemons (%zu open "
              "loop at %.0f/s, %zu measured bursts of %d), %zu distinct "
              "plans, reports identical to in-process\n",
              static_cast<unsigned long long>(args.seed), jobs.size(),
              kDaemons, open_end - open_begin, kOfferedRate,
              burst_seconds.size(), kBurstJobs, plans.size());
  std::printf("  hot variants' FC %.4f%% -> %.4f%% (fc_loss_pp %.4f; "
              "in-process reference %.1f s); failed_pct %.4f; loadgen late "
              "p99 %.3f ms; setup samples",
              ref.fc_original, ref.fc_final, ref.fc_original - ref.fc_final,
              ref_seconds, failed_pct, late_p99);
  std::printf(" min %.4f median %.4f max %.4f",
              *std::min_element(setup.begin(), setup.end()), Median(setup),
              *std::max_element(setup.begin(), setup.end()));
  std::printf("; burst samples");
  for (double s : burst_seconds) std::printf(" %.4f", s);
  std::printf("\n");

  if (args.trace) {
    std::vector<double> queue_ms;
    std::vector<double> run_ms;
    std::vector<double> to_queued_ms;
    std::map<std::string, std::vector<double>> stage_ms;
    std::size_t hot_jobs = 0;
    std::size_t measured = 0;
    std::uint64_t cold_misses = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& j = jobs[i];
      if (j.phase == Phase::kWarm) continue;
      ++measured;
      if (j.hot) {
        ++hot_jobs;
      } else {
        cold_misses += ref.misses[j.plan];
      }
      if (!Ok(j)) continue;
      if (j.phase == Phase::kOpen) {
        queue_ms.push_back((j.admitted - j.queued) * 1e3);
        run_ms.push_back((j.terminal - j.admitted) * 1e3);
        to_queued_ms.push_back((j.queued - j.sent) * 1e3);
      }
      const std::int64_t span =
          tracer.Open("job", j.due, -1, j.client_job);
      tracer.Close(tracer.Open("send", j.due, span, j.client_job), j.sent);
      tracer.Close(tracer.Open("queue", j.queued, span, j.client_job),
                   j.admitted);
      const std::int64_t run =
          tracer.Open("run", j.admitted, span, j.client_job);
      for (std::size_t e = 0; e + 1 < j.events.size(); ++e) {
        const auto& [stage, t] = j.events[e];
        if (stage.empty()) continue;
        const double end = j.events[e + 1].second;
        stage_ms[stage].push_back((end - t) * 1e3);
        tracer.Close(tracer.Open("stage:" + stage, t, run, j.client_job), end);
      }
      tracer.Close(run, j.terminal);
      tracer.Close(span, j.terminal);
    }
    metrics.Set("service.queue_wait_p50_ms", Median(queue_ms));
    metrics.Set("service.queue_wait_p99_ms", Percentile(queue_ms, 0.99));
    metrics.Set("service.run_p50_ms", Median(run_ms));
    metrics.Set("service.run_p99_ms", Percentile(run_ms, 0.99));
    for (const auto& [stage, ms] : stage_ms) {
      metrics.Set("service.stage_ms." + stage, Median(ms));
    }
    metrics.Set("service.cores_busy", Median(burst_cores));
    // A hot job has zero store misses when the store works: every miss
    // after the warm-up beyond what the cold jobs' plans must cause
    // (counted in-process) is charged against the hot jobs.
    const std::uint64_t hot_misses =
        measured_misses > cold_misses ? measured_misses - cold_misses : 0;
    const std::size_t zero_miss_hot =
        hot_jobs - std::min<std::size_t>(hot_jobs, hot_misses);
    metrics.Set("service.hot_share_pct",
                100.0 * static_cast<double>(zero_miss_hot) /
                    static_cast<double>(measured));
    metrics.Set("store.hits", static_cast<double>(measured_hits));
    metrics.Set("store.misses", static_cast<double>(measured_misses));
    metrics.Set("store.stores", static_cast<double>(measured_stores));
    const auto bytes_read = static_cast<double>(measured_bytes_read);
    metrics.Set("store.bytes_read", bytes_read);
    metrics.Set("store.bytes_written",
                static_cast<double>(measured_bytes_written));
    const double lookups =
        metrics.Get("store.hits") + metrics.Get("store.misses");
    metrics.Set("store.hit_pct",
                lookups > 0 ? 100.0 * metrics.Get("store.hits") / lookups
                            : 0.0);
    metrics.Set("store.bytes_read_per_job",
                bytes_read / static_cast<double>(measured));
    metrics.Set("net.connect_s", Median(connect_seconds));
    metrics.Set("net.submit_to_queued_p50_ms", Median(to_queued_ms));
    metrics.Set("loadgen.late_p99_ms", late_p99);
    // The spans above are assembled after the load from the event times
    // every run records, so tracing adds nothing inside the measurement.
    metrics.Set("trace.overhead_pct", 0.0);
    tracer.Write(args.work + "/trace.jsonl");
    std::printf("  spans -> %s/trace.jsonl\n", args.work.c_str());
  }

  metrics.Print(args.trace, true, attempted, failed);
  return 0;
}

}  // namespace perfbench
