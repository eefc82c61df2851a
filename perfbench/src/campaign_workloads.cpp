// The campaign workloads: `stl_table` (the paper's evaluated STL as one
// in-process StlCampaign) and `distrib_fleet` (the same STL through
// distrib::Coordinator with forked workers, then the distrib_replay
// campaign), plus the seed-independent input generator both share.
#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench/bench_common.h"
#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "compact/campaign_plan.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/coordinator.h"
#include "fault/replay.h"
#include "isa/binary.h"
#include "stl/generators.h"
#include "store/result_store.h"

namespace perfbench {
namespace {

using namespace gpustl;
using trace::TargetModule;

// ---------------------------------------------------------------------------
// Inputs

void SavePtp(const std::string& path, const isa::Program& ptp) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  isa::SaveBinary(out, ptp);
  if (!out) throw std::runtime_error("cannot write " + path);
}

isa::Program LoadPtp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing input " + path);
  return isa::LoadBinary(in);
}

compact::PlanEntry MakeEntry(isa::Program ptp, TargetModule target,
                             bool compactable, bool reverse) {
  compact::PlanEntry pe;
  pe.entry.ptp = std::move(ptp);
  pe.entry.target = target;
  pe.entry.compactable = compactable;
  pe.entry.reverse_patterns = reverse;
  pe.target_token = std::string(trace::TargetModuleName(target));
  pe.fp = compact::FingerprintPlanEntry(pe.entry, pe.target_token);
  return pe;
}

/// The evaluated STL in the paper's order, at the table benches' sizes:
/// IMM, MEM, CNTRL on the DU; TPGEN, RAND on SP; SFU_IMM on the SFU with
/// reversed patterns; two carried CNTRL programs. The pseudorandom PTPs
/// take their seeds from the run seed (seed 0 = the table benches' STL);
/// the ATPG-derived ones are seed-independent and come from `inputs`.
std::vector<compact::PlanEntry> BuildStl(const RunArgs& args) {
  const std::uint64_t s = args.seed;
  const bench::StlScale scale;
  std::vector<compact::PlanEntry> plan;
  plan.push_back(
      MakeEntry(stl::GenerateImm(scale.imm_sbs, DeriveSeed(0xA11CE, s)),
                TargetModule::kDecoderUnit, true, false));
  plan.push_back(
      MakeEntry(stl::GenerateMem(scale.mem_sbs, DeriveSeed(0xB0B, s)),
                TargetModule::kDecoderUnit, true, false));
  plan.push_back(
      MakeEntry(stl::GenerateCntrl(scale.cntrl_sbs, DeriveSeed(0xC0FFEE, s)),
                TargetModule::kDecoderUnit, true, false));
  plan.push_back(MakeEntry(LoadPtp(args.inputs + "/tpgen.gptp"),
                           TargetModule::kSpCore, true, false));
  plan.push_back(
      MakeEntry(stl::GenerateRand(scale.rand_sbs, DeriveSeed(0xDEAD, s)),
                TargetModule::kSpCore, true, false));
  plan.push_back(MakeEntry(LoadPtp(args.inputs + "/sfu_imm.gptp"),
                           TargetModule::kSfu, true, true));
  plan.push_back(MakeEntry(stl::GenerateCntrl(14, DeriveSeed(0xF00D, s)),
                           TargetModule::kDecoderUnit, false, false));
  plan.push_back(MakeEntry(stl::GenerateCntrl(12, DeriveSeed(0xFEED, s)),
                           TargetModule::kDecoderUnit, false, false));
  return plan;
}

// ---------------------------------------------------------------------------
// Setup

struct Modules {
  netlist::Netlist du;
  netlist::Netlist sp;
  netlist::Netlist sfu;
  compact::ModulePrepSet preps;
};

/// Builds the module netlists and their ModulePrep (the system's set-up
/// before it can take a campaign) once unmeasured, then `reps` times
/// back to back, and returns the last build; `seconds` receives each
/// measured build's wall time. The samples run before any campaign, on
/// one thread, so every run builds from the same heap state: interleaved
/// with campaigns, a build's page faults depended on what the campaign
/// threads had freed, and the samples split between ~10 and ~15 ms.
std::unique_ptr<Modules> TimedSetup(int reps, std::vector<double>* seconds) {
  std::unique_ptr<Modules> m;
  for (int i = -1; i < reps; ++i) {
    const double start = Now();
    m = std::make_unique<Modules>(Modules{circuits::BuildDecoderUnit(),
                                          circuits::BuildSpCore(),
                                          circuits::BuildSfu(),
                                          {}});
    m->preps.du = compact::BuildModulePrep(m->du);
    m->preps.sp = compact::BuildModulePrep(m->sp);
    m->preps.sfu = compact::BuildModulePrep(m->sfu);
    if (i >= 0) seconds->push_back(Now() - start);
  }
  return m;
}

// ---------------------------------------------------------------------------
// One campaign

/// Metric key of entry `i`: the PTP name, suffixed with its occurrence
/// number from the second occurrence on (the STL carries three `cntrl`).
std::vector<std::string> EntryKeys(
    const std::vector<compact::PlanEntry>& plan) {
  std::map<std::string, int> seen;
  std::vector<std::string> keys;
  for (const auto& pe : plan) {
    const std::string name = pe.entry.ptp.name();
    const int n = ++seen[name];
    keys.push_back(n == 1 ? name : name + "_" + std::to_string(n));
  }
  return keys;
}

/// Per-layer metric suffix of a canonical stage name.
std::string StageKey(std::string_view stage) {
  std::string key(stage);
  for (char& c : key) {
    if (c == '-') c = '_';
  }
  return key;
}

struct CampaignRun {
  double seconds = 0.0;  // first Process/Prefetch call -> rendered report
  std::string report;
  compact::CampaignSummary summary;
  std::vector<double> entry_seconds;  // Process wall time per entry
  std::vector<double> entry_done;     // campaign start -> entry's record
  double peak_rss_mb = 0.0;           // this process, during the campaign
  std::vector<isa::Program> final_ptps;
  std::uint64_t sim_cycles = 0;     // every logic simulation's cycles
  std::uint64_t traced_cycles = 0;  // the logic-trace stage's cycles
  std::map<std::string, double> stage_seconds;  // traced runs only
  distrib::PrefetchStats prefetch;
  double prefetch_seconds = 0.0;
  std::uint64_t replays = 0;
  std::size_t compactable = 0;
};

/// Runs the STL once from an empty result store (and, for `fleet`, an
/// empty distrib dir with nproc forked workers). With a tracer, records
/// the campaign, Prefetch, Process and stage spans.
CampaignRun RunCampaign(const Modules& m,
                        const std::vector<compact::PlanEntry>& plan,
                        const RunArgs& args, bool fleet, Tracer* tracer,
                        const std::string& id) {
  const std::string root = args.work + "/" + id;
  ResetDir(root);
  store::ResultStore store(root + "/store");

  compact::CompactorOptions opt;
  opt.num_threads = args.nproc;
  opt.result_store = &store;
  opt.distrib_replay = fleet;
  const compact::CompactorOptions coordinator_opt = opt;

  CampaignRun run;
  const std::vector<std::string> keys = EntryKeys(plan);
  std::int64_t process_span = -1;
  std::int64_t stage_span = -1;
  std::string stage;  // open stage ("" = none)
  double stage_start = 0.0;
  std::size_t entry = 0;
  const auto close_stage = [&](double t) {
    if (stage.empty()) return;
    run.stage_seconds[StageKey(stage)] += t - stage_start;
    tracer->Close(stage_span, t);
    stage.clear();
  };
  if (tracer != nullptr) {
    opt.stage_observer = [&](std::string_view next) {
      const double t = Now();
      close_stage(t);
      stage = std::string(next);
      stage_start = t;
      stage_span = tracer->Open("stage:" + stage, t, process_span,
                                id + "/" + keys[entry]);
    };
  }

  compact::StlCampaign campaign(m.du, m.sp, m.sfu, opt, nullptr, &m.preps);
  ResetPeakRss();
  const double start = Now();
  const std::int64_t campaign_span =
      tracer != nullptr ? tracer->Open("campaign", start, -1, id) : -1;

  if (fleet) {
    distrib::CoordinatorOptions copt;
    copt.dir = root + "/distrib";
    copt.fork_workers = args.nproc;
    copt.worker_threads = 1;
    distrib::Coordinator coordinator(
        copt, distrib::ModuleSet{&m.du, &m.sp, &m.sfu, nullptr, &m.preps},
        coordinator_opt);
    const std::int64_t span =
        tracer != nullptr ? tracer->Open("prefetch", Now(), campaign_span, id)
                          : -1;
    run.prefetch = coordinator.Prefetch(plan);
    run.prefetch_seconds = Now() - start;
    if (tracer != nullptr) tracer->Close(span, Now());
  }

  // Replays of the campaign itself, not of the coordinator's plan phase
  // (the counters are process-global).
  const std::uint64_t replays_before =
      fault::GlobalReplayCounters().replays.load();
  for (entry = 0; entry < plan.size(); ++entry) {
    const double t = Now();
    if (tracer != nullptr) {
      process_span =
          tracer->Open("process", t, campaign_span, id + "/" + keys[entry]);
    }
    campaign.Process(plan[entry].entry);
    const double end = Now();
    if (tracer != nullptr) {
      close_stage(end);
      tracer->Close(process_span, end);
    }
    run.entry_seconds.push_back(end - t);
    run.entry_done.push_back(end - start);
  }
  run.summary = campaign.Summary();
  run.report = compact::RenderCampaignReport(campaign.records(), run.summary);
  run.seconds = Now() - start;
  run.peak_rss_mb = ProcessPeakRssMb(getpid());
  if (tracer != nullptr) tracer->Close(campaign_span, start + run.seconds);
  run.replays = fault::GlobalReplayCounters().replays.load() - replays_before;

  for (std::size_t i = 0; i < plan.size(); ++i) {
    const compact::CampaignRecord& rec = campaign.records()[i];
    run.final_ptps.push_back(rec.compacted ? rec.result.compacted
                                           : plan[i].entry.ptp);
    run.sim_cycles += rec.original_duration;
    if (rec.compacted) {
      run.sim_cycles += rec.final_duration;
      run.traced_cycles += rec.original_duration;
      ++run.compactable;
    }
  }
  return run;
}

/// Fault coverage (percent of every DU, SP and SFU fault) of a whole STL:
/// the union of each PTP's detections on its target module.
double StlCoverage(const Modules& m,
                   const std::vector<compact::PlanEntry>& plan,
                   const std::vector<isa::Program>& ptps, int threads) {
  compact::CompactorOptions opt;
  opt.num_threads = threads;
  std::map<TargetModule, compact::Compactor> c;
  c.emplace(TargetModule::kDecoderUnit,
            compact::Compactor(m.du, TargetModule::kDecoderUnit, opt,
                               m.preps.du));
  c.emplace(TargetModule::kSpCore,
            compact::Compactor(m.sp, TargetModule::kSpCore, opt, m.preps.sp));
  c.emplace(TargetModule::kSfu,
            compact::Compactor(m.sfu, TargetModule::kSfu, opt, m.preps.sfu));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    c.at(plan[i].entry.target).AbsorbCoverage(ptps[i]);
  }
  std::size_t detected = 0;
  std::size_t total = 0;
  for (const auto& [target, compactor] : c) {
    (void)target;
    detected += compactor.detected().Count();
    total += compactor.faults().size();
  }
  return 100.0 * static_cast<double>(detected) / static_cast<double>(total);
}

constexpr int kSetupReps = 40;
constexpr int kMinReps = 5;

template <typename Fn>
std::vector<double> Collect(const std::vector<CampaignRun>& runs, Fn&& fn) {
  std::vector<double> out;
  for (const CampaignRun& r : runs) out.push_back(fn(r));
  return out;
}

int RunCampaignWorkload(const RunArgs& args, bool fleet) {
  const std::vector<compact::PlanEntry> plan = BuildStl(args);
  std::vector<double> setup;
  const std::unique_ptr<Modules> m = TimedSetup(kSetupReps, &setup);

  // Repetitions until the window is spent. A traced run alternates
  // untraced and traced repetitions: the untraced ones are the base the
  // tracing overhead is measured against.
  Tracer tracer(args.trace);
  // Every campaign's store and distrib dir go as soon as it is done, so
  // that their writeback does not land in a later repetition.
  const auto run = [&](bool as_fleet, Tracer* t, const std::string& id) {
    CampaignRun r = RunCampaign(*m, plan, args, as_fleet, t, id);
    std::filesystem::remove_all(args.work + "/" + id);
    return r;
  };
  std::vector<CampaignRun> untraced;
  std::vector<CampaignRun> traced;
  // One unmeasured warm-up repetition first: the process's first campaign
  // pays page faults and allocator growth no later one does.
  run(fleet, nullptr, "warmup");
  const int min_reps = kMinReps * (args.trace ? 2 : 1);
  const double window = Now();
  for (int rep = 0; rep < min_reps || Now() - window < args.seconds; ++rep) {
    const bool trace_rep = args.trace && rep % 2 == 1;
    const std::string id =
        std::string(fleet ? "fleet" : "table") + std::to_string(rep);
    (trace_rep ? traced : untraced)
        .push_back(run(fleet, trace_rep ? &tracer : nullptr, id));
  }
  // Peak memory of the processes doing the work: this one during a
  // campaign (median over repetitions), plus for the fleet its largest
  // reaped forked worker.
  const double peak_rss_mb =
      Median(Collect(untraced, [](const auto& r) { return r.peak_rss_mb; })) +
      (fleet ? ChildrenPeakRssMb() : 0.0);

  // Correctness: every repetition renders the same report, and the fleet's
  // matches the single-process campaign of the same STL byte for byte.
  // run.py checks the report against the committed golden digests.
  const CampaignRun& first = untraced.front();
  std::vector<const CampaignRun*> all;
  for (const auto& r : untraced) all.push_back(&r);
  for (const auto& r : traced) all.push_back(&r);
  std::optional<CampaignRun> reference;
  if (fleet) {
    reference = run(false, nullptr, "reference");
    all.push_back(&*reference);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool identical = true;
  for (const CampaignRun* r : all) {
    attempted += plan.size();
    failed += r->summary.degraded_records;
    identical = identical && r->report == first.report;
  }
  {
    std::ofstream out(args.work + "/report.txt", std::ios::trunc);
    out << first.report;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "perfbench: campaign reports differ between repetitions%s\n",
                 fleet ? " or from the single-process campaign" : "");
    return 1;
  }

  // Quality, outside every timed region.
  std::vector<isa::Program> original;
  for (const auto& pe : plan) original.push_back(pe.entry.ptp);
  const double fc_original = StlCoverage(*m, plan, original, args.nproc);
  const double fc_final = StlCoverage(*m, plan, first.final_ptps, args.nproc);

  Metrics metrics;
  const double campaign_s =
      Median(Collect(untraced, [](const auto& r) { return r.seconds; }));
  // Entry ("job") latency: every entry is submitted when the campaign
  // starts and done when its record is; each repetition's p50 and p99 over
  // its entries (p99 of 8 entries is the last one), then the median over
  // repetitions.
  const auto entry_ms = [&](double p) {
    return Median(Collect(untraced, [&](const CampaignRun& r) {
      return Percentile(r.entry_done, p) * 1e3;
    }));
  };
  metrics.Set("setup_s", Median(setup));
  metrics.Set("campaign_s", campaign_s);
  metrics.Set("jobs_per_s", static_cast<double>(plan.size()) / campaign_s);
  metrics.Set("job_p50_ms", entry_ms(0.5));
  metrics.Set("job_p99_ms", entry_ms(0.99));
  metrics.Set("size_reduction_pct", first.summary.size_reduction_percent());
  metrics.Set("duration_reduction_pct",
              first.summary.duration_reduction_percent());
  metrics.Set("compacted_fc_pct", fc_final);
  const double failed_pct =
      100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
  metrics.Set("ok_pct", 100.0 - failed_pct);
  metrics.Set("peak_rss_mb", peak_rss_mb);

  std::printf("%s: seed %llu, %zu entries, %zu untraced + %zu traced "
              "repetitions, reports identical%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), plan.size(),
              untraced.size(), traced.size(),
              fleet ? " to the single-process campaign" : "");
  std::printf("  STL FC %.4f%% -> %.4f%% (fc_loss_pp %.4f); failed_pct "
              "%.4f; setup samples",
              fc_original, fc_final, fc_original - fc_final, failed_pct);
  std::printf(" min %.4f median %.4f max %.4f",
              *std::min_element(setup.begin(), setup.end()), Median(setup),
              *std::max_element(setup.begin(), setup.end()));
  std::printf("; campaign samples");
  for (const auto& r : untraced) std::printf(" %.4f", r.seconds);
  std::printf("; peak RSS samples");
  for (const auto& r : untraced) std::printf(" %.1f", r.peak_rss_mb);
  std::printf("\n");

  if (args.trace) {
    const auto med = [&](auto fn) { return Median(Collect(traced, fn)); };
    for (const char* stage : {"logic_trace", "fault_sim", "label", "reduce",
                              "validate", "measure"}) {
      metrics.Set(std::string("compact.") + stage + "_s",
                  med([&](const CampaignRun& r) {
                    const auto it = r.stage_seconds.find(stage);
                    return it == r.stage_seconds.end() ? 0.0 : it->second;
                  }));
    }
    const std::vector<std::string> keys = EntryKeys(plan);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      metrics.Set("compact.entry_s." + keys[i],
                  med([&](const CampaignRun& r) { return r.entry_seconds[i]; }));
    }
    metrics.Set("compact.unattributed_pct", med([](const CampaignRun& r) {
                  double covered = r.prefetch_seconds;
                  for (const auto& [k, v] : r.stage_seconds) covered += v;
                  return 100.0 * (r.seconds - covered) / r.seconds;
                }));
    metrics.Set("gpu.sim_cycles", static_cast<double>(first.sim_cycles));
    metrics.Set("gpu.host_ns_per_cycle",
                1e9 * metrics.Get("compact.logic_trace_s") /
                    static_cast<double>(first.traced_cycles));
    const auto summary_med = [&](auto field) {
      return med([&](const CampaignRun& r) {
        return static_cast<double>(field(r.summary));
      });
    };
    metrics.Set("fault.faults", summary_med([](const auto& s) { return s.total_faults; }));
    metrics.Set("fault.classes",
                summary_med([](const auto& s) { return s.simulated_classes; }));
    metrics.Set("fault.trim_blocks_replayed",
                summary_med([](const auto& s) { return s.trim_blocks_replayed; }));
    metrics.Set("fault.trim_faults_early_exited",
                summary_med([](const auto& s) { return s.trim_faults_early_exited; }));
    metrics.Set("fault.trim_warm_hits",
                summary_med([](const auto& s) { return s.trim_warm_hits; }));
    metrics.Set("store.hits", summary_med([](const auto& s) { return s.cache.hits; }));
    metrics.Set("store.misses",
                summary_med([](const auto& s) { return s.cache.misses; }));
    metrics.Set("store.stores",
                summary_med([](const auto& s) { return s.cache.stores; }));
    metrics.Set("store.bytes_read",
                summary_med([](const auto& s) { return s.cache.bytes_read; }));
    metrics.Set("store.bytes_written",
                summary_med([](const auto& s) { return s.cache.bytes_written; }));
    metrics.Set("store.hit_pct",
                med([](const auto& r) { return r.summary.cache.hit_rate_percent(); }));
    metrics.Set("store.bytes_read_per_job",
                metrics.Get("store.bytes_read") /
                    static_cast<double>(plan.size()));
    const double traced_s = med([](const auto& r) { return r.seconds; });
    metrics.Set("trace.overhead_pct",
                100.0 * (traced_s - campaign_s) / campaign_s);
    if (fleet) {
      metrics.Set("distrib.wave1_s",
                  med([](const auto& r) { return r.prefetch.wave1_seconds; }));
      metrics.Set("distrib.plan_s",
                  med([](const auto& r) { return r.prefetch.plan_seconds; }));
      metrics.Set("distrib.wave2_s",
                  med([](const auto& r) { return r.prefetch.wave2_seconds; }));
      metrics.Set("distrib.final_s", med([](const auto& r) {
                    return r.seconds - r.prefetch_seconds;
                  }));
      metrics.Set("distrib.worker_units", med([](const auto& r) {
                    return static_cast<double>(r.prefetch.worker_units);
                  }));
      metrics.Set("distrib.inline_units", med([](const auto& r) {
                    return static_cast<double>(r.prefetch.inline_units);
                  }));
      metrics.Set("distrib.steals", med([](const auto& r) {
                    return static_cast<double>(r.prefetch.steals);
                  }));
      // Share of the final campaign's skip-masked simulations (stage 3 and
      // validation of every compacted entry) derived by replay.
      metrics.Set("distrib.replay_share_pct", med([](const auto& r) {
                    return 100.0 * static_cast<double>(r.replays) /
                           static_cast<double>(2 * r.compactable);
                  }));
      metrics.Set("distrib.speedup", reference->seconds / campaign_s);
      metrics.Set("distrib.speedup_base_single_s", reference->seconds);
      metrics.Set("distrib.speedup_base_fleet_s", campaign_s);
    }
    tracer.Write(args.work + "/trace.jsonl");
    std::printf("  spans -> %s/trace.jsonl\n", args.work.c_str());
  }

  metrics.Print(args.trace, true, attempted, failed);
  return 0;
}

}  // namespace

int RunStlTable(const RunArgs& args) { return RunCampaignWorkload(args, false); }

int RunDistribFleet(const RunArgs& args) {
  return RunCampaignWorkload(args, true);
}

int GenerateInputs(const std::string& dir) {
  // The table benches' fixture, so seed 0 reproduces their STL exactly.
  const bench::StlFixture fx = bench::BuildFixture({}, /*verbose=*/false);
  SavePtp(dir + "/tpgen.gptp", fx.tpgen);
  SavePtp(dir + "/sfu_imm.gptp", fx.sfu_imm);
  return 0;
}

}  // namespace perfbench
