// Distributed-campaign subsystem tests: skip-mask replay bit-identity
// against the live engine, the work-unit codec (round trip + corruption
// fallback), the advisory claim protocol (exclusive claim, heartbeat,
// stale steal, done markers), the Compactor's replay through the store,
// and the coordinator's two-phase schedule end to end — forked fleet and
// chaos runs must produce reports byte-identical to the single-process
// campaign.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/chaos.h"
#include "common/error.h"
#include "compact/campaign_plan.h"
#include "compact/report.h"
#include "compact/stl_campaign.h"
#include "distrib/claims.h"
#include "distrib/coordinator.h"
#include "distrib/units.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/replay.h"
#include "gpu/sm.h"
#include "stl/generators.h"
#include "store/result_store.h"
#include "trace/trace.h"

namespace gpustl::distrib {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_distrib" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

netlist::PatternSet TracedPatterns(const isa::Program& ptp,
                                   trace::TargetModule target) {
  trace::PatternProbe probe(target);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  return probe.patterns();
}

void ExpectSameResult(const fault::FaultSimResult& a,
                      const fault::FaultSimResult& b) {
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.detects_per_pattern, b.detects_per_pattern);
  EXPECT_EQ(a.activates_per_pattern, b.activates_per_pattern);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
}

WorkUnit SmallUnit(int wave, std::uint64_t seed, bool reverse = false) {
  WorkUnit unit;
  unit.wave = wave;
  unit.target_token = "DU";
  unit.reverse_patterns = reverse;
  unit.ptp = stl::GenerateImm(6, seed);
  return unit;
}

std::vector<compact::StlEntry> SmallStl() {
  std::vector<compact::StlEntry> stl;
  stl.push_back({stl::GenerateImm(10, 3), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateMem(8, 5), trace::TargetModule::kDecoderUnit,
                 true, true});
  stl.push_back({stl::GenerateCntrl(4, 9), trace::TargetModule::kDecoderUnit,
                 false, false});
  return stl;
}

std::vector<compact::PlanEntry> SmallPlan() {
  std::vector<compact::PlanEntry> plan;
  for (const compact::StlEntry& entry : SmallStl()) {
    compact::PlanEntry pe;
    pe.entry = entry;
    pe.target_token = std::string(trace::TargetModuleName(entry.target));
    pe.fp = compact::FingerprintPlanEntry(pe.entry, pe.target_token);
    plan.push_back(std::move(pe));
  }
  return plan;
}

std::string RunCampaign(const std::vector<compact::PlanEntry>& plan,
                        const compact::CompactorOptions& base) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  compact::StlCampaign campaign(du, sp, sfu, base);
  for (const auto& pe : plan) campaign.Process(pe.entry);
  return compact::RenderCampaignReport(campaign.records(),
                                       campaign.Summary());
}

// --- Skip-mask replay -------------------------------------------------------

TEST(ReplayTest, BitIdenticalToLiveEngineAcrossMasks) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::PatternSet patterns =
      TracedPatterns(stl::GenerateImm(8, 7), trace::TargetModule::kDecoderUnit);
  const auto faults = fault::CollapsedFaultList(du);
  ASSERT_GT(faults.size(), 0u);

  fault::FaultSimOptions drop;
  drop.drop_detected = true;
  const fault::FaultSimResult full =
      fault::RunFaultSim(du, patterns, faults, /*skip=*/nullptr, drop);

  // Mask shapes a real campaign produces (empty = first entry; dense =
  // late entries) plus the degenerate all-skipped one.
  std::vector<BitVec> masks;
  masks.emplace_back(faults.size(), false);
  masks.emplace_back(faults.size(), true);
  BitVec every_third(faults.size(), false);
  BitVec detected_so_far(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i % 3 == 0) every_third.Set(i, true);
    if (full.detected_mask.Get(i) && i % 2 == 0) detected_so_far.Set(i, true);
  }
  masks.push_back(every_third);
  masks.push_back(detected_so_far);

  fault::GoodBlockCache good(du, patterns);
  for (const BitVec& skip : masks) {
    const fault::FaultSimResult live =
        fault::RunFaultSim(du, patterns, faults, &skip, drop);
    const std::uint64_t replays_before =
        fault::GlobalReplayCounters().replays.load();
    const fault::FaultSimResult replayed =
        fault::ReplaySkipFromFull(du, faults, full, skip, good);
    ExpectSameResult(live, replayed);
    EXPECT_EQ(fault::GlobalReplayCounters().replays.load(), replays_before + 1);
  }

  // Engine toggles on the live side must not matter either: the replay is
  // held to the canonical accounting, which every engine config shares.
  fault::FaultSimOptions threaded = drop;
  threaded.num_threads = 3;
  const fault::FaultSimResult live_threaded =
      fault::RunFaultSim(du, patterns, faults, &every_third, threaded);
  ExpectSameResult(live_threaded, fault::ReplaySkipFromFull(
                                      du, faults, full, every_third, good));
}

TEST(ReplayTest, ShapeMismatchThrowsNeverGuesses) {
  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::PatternSet patterns =
      TracedPatterns(stl::GenerateImm(6, 11), trace::TargetModule::kDecoderUnit);
  const auto faults = fault::CollapsedFaultList(du);
  fault::FaultSimOptions drop;
  drop.drop_detected = true;
  const fault::FaultSimResult full =
      fault::RunFaultSim(du, patterns, faults, /*skip=*/nullptr, drop);

  fault::GoodBlockCache good(du, patterns);
  const BitVec wrong_size(faults.size() + 1, false);
  EXPECT_THROW(fault::ReplaySkipFromFull(du, faults, full, wrong_size, good),
               Error);

  // Good blocks of other patterns, and a first detection past the
  // patterns (a store entry is read from disk), are refused too.
  const BitVec skip(faults.size(), false);
  const netlist::PatternSet other = TracedPatterns(
      stl::GenerateImm(30, 11), trace::TargetModule::kDecoderUnit);
  ASSERT_NE((other.size() + 63) / 64, (patterns.size() + 63) / 64);
  fault::GoodBlockCache other_good(du, other);
  EXPECT_THROW(fault::ReplaySkipFromFull(du, faults, full, skip, other_good),
               Error);
  fault::FaultSimResult past_end = full;
  past_end.first_detect[0] = static_cast<std::uint32_t>(patterns.size());
  EXPECT_THROW(fault::ReplaySkipFromFull(du, faults, past_end, skip, good),
               Error);
}

// --- Work-unit codec --------------------------------------------------------

TEST(UnitCodecTest, RoundTripsContentNamedAndIdempotent) {
  const std::string dir = ScratchDir("unit_roundtrip");
  InitDistribDir(dir);

  const WorkUnit unit = SmallUnit(1, 0x5EED);
  const std::string name = WriteUnitFile(dir, unit);
  EXPECT_EQ(name, UnitName(unit));
  EXPECT_EQ(name.rfind("w1-", 0), 0u);

  const auto back = ReadUnitFile(UnitsDir(dir) + "/" + name + ".unit");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->wave, unit.wave);
  EXPECT_EQ(back->target_token, unit.target_token);
  EXPECT_EQ(back->reverse_patterns, unit.reverse_patterns);
  EXPECT_EQ(UnitName(*back), name) << "PTP bytes survived the round trip";

  // Rewriting the same unit is a no-op (content-addressed), and every
  // distinct field lands in the name: two entries needing the same
  // simulation collapse, different ones never collide.
  EXPECT_EQ(WriteUnitFile(dir, unit), name);
  EXPECT_EQ(ListUnits(dir).size(), 1u);
  EXPECT_NE(UnitName(SmallUnit(2, 0x5EED)), name);
  EXPECT_NE(UnitName(SmallUnit(1, 0x5EED, /*reverse=*/true)), name);
  EXPECT_NE(UnitName(SmallUnit(1, 0x5EEE)), name);
  EXPECT_EQ(ListUnits(dir), std::vector<std::string>{name});
}

TEST(UnitCodecTest, CorruptUnitFilesAreSkippedNeverFatal) {
  const std::string dir = ScratchDir("unit_corrupt");
  InitDistribDir(dir);
  const std::string name = WriteUnitFile(dir, SmallUnit(1, 0xBAD));
  const std::string path = UnitsDir(dir) + "/" + name + ".unit";

  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  is.close();

  const auto rewrite = [&path](const std::string& content) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
  };

  rewrite(bytes.substr(0, bytes.size() / 2));  // truncated
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // checksum mismatch
  rewrite(flipped);
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  rewrite("not a unit at all");  // bad magic
  EXPECT_FALSE(ReadUnitFile(path).has_value());

  EXPECT_FALSE(ReadUnitFile(UnitsDir(dir) + "/absent.unit").has_value());

  // Intact bytes still parse after all that probing.
  rewrite(bytes);
  EXPECT_TRUE(ReadUnitFile(path).has_value());
}

TEST(UnitCodecTest, MetaAndCampaignDoneRoundTrip) {
  const std::string dir = ScratchDir("unit_meta");
  InitDistribDir(dir);

  WriteMeta(dir, {{"cache_dir", "/tmp/cache"}, {"stale_seconds", "7.5"}});
  EXPECT_EQ(ReadMetaValue(dir, "cache_dir"), "/tmp/cache");
  EXPECT_EQ(ReadMetaValue(dir, "stale_seconds"), "7.5");
  EXPECT_FALSE(ReadMetaValue(dir, "absent").has_value());

  EXPECT_FALSE(CampaignDone(dir));
  MarkCampaignDone(dir);
  EXPECT_TRUE(CampaignDone(dir));
  MarkCampaignDone(dir);  // idempotent
  ClearCampaignDone(dir);
  EXPECT_FALSE(CampaignDone(dir));
}

// --- Claim protocol ---------------------------------------------------------

TEST(ClaimBoardTest, ExactlyOneOwnerStaleStealAndDoneMarkers) {
  const std::string dir = ScratchDir("claims");
  InitDistribDir(dir);
  ClaimBoard alpha(dir, "alpha", 30.0);
  ClaimBoard beta(dir, "beta", 30.0);

  // Exactly one creator wins; a fresh claim is visibly live to everyone.
  const ClaimResult first = alpha.TryClaim("u1");
  EXPECT_TRUE(first.claimed);
  EXPECT_FALSE(first.stole);
  EXPECT_FALSE(beta.TryClaim("u1").claimed);
  EXPECT_TRUE(beta.HasLiveClaim("u1"));

  // A heartbeat refreshes a claim that was about to look dead.
  alpha.Backdate("u1", 300.0);
  EXPECT_FALSE(beta.HasLiveClaim("u1"));
  alpha.Heartbeat("u1");
  EXPECT_TRUE(beta.HasLiveClaim("u1"));
  EXPECT_FALSE(beta.TryClaim("u1").claimed);

  // A claim gone stale for real (owner SIGKILLed) is stolen, exactly once.
  alpha.Backdate("u1", 300.0);
  const ClaimResult stolen = beta.TryClaim("u1");
  EXPECT_TRUE(stolen.claimed);
  EXPECT_TRUE(stolen.stole);
  EXPECT_FALSE(alpha.TryClaim("u1").claimed) << "beta owns it now";

  // Done markers are the only completion signal, visible to all boards.
  EXPECT_FALSE(alpha.IsDone("u1"));
  beta.MarkDone("u1");
  beta.MarkDone("u1");  // idempotent
  EXPECT_TRUE(alpha.IsDone("u1"));
  beta.Release("u1");
  EXPECT_FALSE(alpha.HasLiveClaim("u1"));

  // Release without done: the unit goes back to the pool, a plain claim
  // (not a steal) picks it up.
  EXPECT_TRUE(alpha.TryClaim("u2").claimed);
  alpha.Release("u2");
  const ClaimResult reclaimed = beta.TryClaim("u2");
  EXPECT_TRUE(reclaimed.claimed);
  EXPECT_FALSE(reclaimed.stole);
}

// --- Skip-mask replay through the Compactor ---------------------------------

// The store-less campaign replays too; the independent campaign-level
// oracle is CampaignVsReference in tests/test_reference.cpp.
TEST(DistribReplayTest, CampaignReportIsByteIdenticalAndReplaysHappen) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  store::ResultStore store(ScratchDir("distrib_replay"));
  compact::CompactorOptions opt;
  opt.result_store = &store;

  // Cold store: every full-list simulation runs live (and is cached), and
  // every skip-masked one is REPLAYED from it rather than simulated.
  const std::uint64_t replays_before =
      fault::GlobalReplayCounters().replays.load();
  EXPECT_EQ(RunCampaign(plan, opt), reference);
  EXPECT_GT(fault::GlobalReplayCounters().replays.load(), replays_before);

  // Warm store: same report again, now with the full-list runs as hits.
  const std::uint64_t hits_before = store.stats().hits;
  EXPECT_EQ(RunCampaign(plan, opt), reference);
  EXPECT_GT(store.stats().hits, hits_before);
}

// --- Coordinator end to end -------------------------------------------------

TEST(CoordinatorTest, ForkedFleetReportIsByteIdentical) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_forked");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 2;
  copt.stale_seconds = 2.0;

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  PrefetchStats stats;
  {
    Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
    stats = coordinator.Prefetch(plan);
  }
  EXPECT_EQ(stats.wave1_units, plan.size());
  EXPECT_EQ(stats.planned_entries, 2u);
  EXPECT_EQ(stats.plan_failures, 0u);
  EXPECT_GE(stats.wave2_units, 1u);
  // >= : a steal race can compute a unit twice (wasted, never wrong).
  EXPECT_GE(stats.worker_units + stats.inline_units,
            stats.wave1_units + stats.wave2_units);

  // The final campaign must see every simulation as a store hit or a
  // replay over one, and report byte-identically to the single-process
  // run.
  const std::uint64_t misses_before = store.stats().misses;
  EXPECT_EQ(RunCampaign(plan, opt), reference);
  EXPECT_EQ(store.stats().misses, misses_before)
      << "a prefetched campaign never simulates a full fault list live";
}

TEST(CoordinatorTest, StaleClaimChaosIsStolenAndStaysByteIdentical) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_chaos");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 1;
  copt.stale_seconds = 1.0;  // abandoned claims expire fast

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  PrefetchStats stats;
  {
    // The forked worker abandons its first claim with a backdated mtime
    // (the chaos arming crosses the fork); somebody must steal the unit.
    chaos::ScopedChaos scoped("stale-claim#1", 1);
    Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
    stats = coordinator.Prefetch(plan);
  }
  EXPECT_GE(stats.steals, 1u);
  EXPECT_EQ(RunCampaign(plan, opt), reference);
}

TEST(CoordinatorTest, NoWorkersAtAllStillCompletesInline) {
  const auto plan = SmallPlan();
  const std::string reference = RunCampaign(plan, {});

  const std::string scratch = ScratchDir("coord_inline");
  store::ResultStore store(scratch + "/cache");
  compact::CompactorOptions opt;
  opt.result_store = &store;

  CoordinatorOptions copt;
  copt.dir = scratch + "/distrib";
  copt.fork_workers = 0;        // nobody is coming
  copt.grace_seconds = 0.1;     // give up on the fleet immediately

  const netlist::Netlist du = circuits::BuildDecoderUnit();
  const netlist::Netlist sp = circuits::BuildSpCore();
  const netlist::Netlist sfu = circuits::BuildSfu();
  Coordinator coordinator(copt, ModuleSet{&du, &sp, &sfu}, opt);
  const PrefetchStats stats = coordinator.Prefetch(plan);
  EXPECT_EQ(stats.worker_units, 0u);
  EXPECT_EQ(stats.inline_units, stats.wave1_units + stats.wave2_units);
  EXPECT_EQ(RunCampaign(plan, opt), reference);
}

}  // namespace
}  // namespace gpustl::distrib
