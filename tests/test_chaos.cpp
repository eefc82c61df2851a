// Hardened-runtime tests: the deterministic chaos-injection harness and
// the failure domains it exercises. Every injection site is driven at
// least once — store reads (short/corrupt), store writes, checkpoint
// writes, checkpoint truncation, worker throws and stage deadlines — and
// the core invariant is checked throughout: under any injected failure
// schedule the pipeline either produces results bit-identical to a clean
// run or a degraded record naming what was skipped; never a crash, never
// silently wrong coverage.
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
#include "common/status.h"
#include "compact/compactor.h"
#include "compact/report.h"
#include "compact/run_guard.h"
#include "compact/stl_campaign.h"
#include "fault/collapse.h"
#include "fault/faultsim.h"
#include "stl/generators.h"
#include "store/checkpoint.h"
#include "store/fingerprint.h"
#include "store/result_store.h"

namespace gpustl {
namespace {

namespace fs = std::filesystem;
using fault::Fault;
using fault::FaultSimResult;
using netlist::Netlist;
using netlist::PatternSet;

std::string ScratchDir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gpustl_chaos" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Netlist SmallNetlist(const char* name = "small") {
  Netlist nl{name};
  const auto a = nl.AddInput("a");
  const auto b = nl.AddInput("b");
  const auto c = nl.AddInput("c");
  const auto g1 = nl.AddGate(netlist::CellType::kAnd2, {a, b});
  const auto g2 = nl.AddGate(netlist::CellType::kXor2, {g1, c});
  nl.MarkOutput(g2, "y");
  nl.Freeze();
  return nl;
}

PatternSet SmallPatterns(int n = 8) {
  PatternSet ps(3);
  for (int i = 0; i < n; ++i) {
    ps.Add64(static_cast<std::uint64_t>(10 + i),
             static_cast<std::uint64_t>(i) & 7u);
  }
  return ps;
}

/// Wide pseudo-random pattern set for the Decoder Unit (worker tests need
/// enough fanout-free regions for four real shards).
PatternSet DuPatterns(int n = 32) {
  PatternSet ps(64);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ps.Add64(static_cast<std::uint64_t>(100 + i), x);
  }
  return ps;
}

void ExpectSameResult(const FaultSimResult& a, const FaultSimResult& b) {
  EXPECT_EQ(a.first_detect, b.first_detect);
  EXPECT_EQ(a.detects_per_pattern, b.detects_per_pattern);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_EQ(a.detected_mask, b.detected_mask);
}

std::vector<compact::StlEntry> SmallStl() {
  std::vector<compact::StlEntry> stl;
  stl.push_back({stl::GenerateImm(10, 3), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateMem(8, 5), trace::TargetModule::kDecoderUnit,
                 true, false});
  stl.push_back({stl::GenerateCntrl(4, 9), trace::TargetModule::kDecoderUnit,
                 false, false});
  return stl;
}

// --- spec parsing + determinism --------------------------------------------

TEST(ChaosSpecTest, NthRuleFailsExactlyTheNthArrival) {
  chaos::ChaosEngine engine("store-write#3", 42);
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kStoreWriteFail, {}));
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kStoreWriteFail, {}));
  EXPECT_TRUE(engine.ShouldFail(chaos::Site::kStoreWriteFail, {}));
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kStoreWriteFail, {}));
  // Other sites never match the rule.
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kCheckpointWriteFail, {}));
}

TEST(ChaosSpecTest, QualifierRestrictsMatching) {
  chaos::ChaosEngine engine("deadline@label#1", 7);
  // Arrivals with a different context never match (but still consume the
  // site's arrival ordinal — arrivals are counted per site, not per rule).
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kStageDeadline, "fault-sim"));
  EXPECT_TRUE(engine.ShouldFail(chaos::Site::kStageDeadline, "label"));
  EXPECT_FALSE(engine.ShouldFail(chaos::Site::kStageDeadline, "label"));
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(chaos::ChaosEngine("", 1), Error);
  EXPECT_THROW(chaos::ChaosEngine("no-such-site=0.5", 1), Error);
  EXPECT_THROW(chaos::ChaosEngine("store-write", 1), Error);  // no =/#
  EXPECT_THROW(chaos::ChaosEngine("store-write=1.5", 1), Error);
  EXPECT_THROW(chaos::ChaosEngine("store-write=-0.1", 1), Error);
  EXPECT_THROW(chaos::ChaosEngine("store-write#0", 1), Error);  // 1-based
  EXPECT_THROW(chaos::ChaosEngine("store-write=abc", 1), Error);
  // A valid spec with several rules parses.
  EXPECT_NO_THROW(chaos::ChaosEngine("store-write=0.5,deadline@label#2", 1));
}

TEST(ChaosSpecTest, SameSeedSameSchedule) {
  const auto draw_schedule = [](std::uint64_t seed) {
    chaos::ChaosEngine engine("worker-throw=0.5", seed);
    std::vector<bool> draws;
    for (int i = 0; i < 64; ++i) {
      draws.push_back(engine.ShouldFail(chaos::Site::kWorkerThrow, {}));
    }
    return draws;
  };
  EXPECT_EQ(draw_schedule(123), draw_schedule(123));
  EXPECT_NE(draw_schedule(123), draw_schedule(124));
}

TEST(ChaosSpecTest, DisarmedNeverFails) {
  ASSERT_EQ(chaos::Engine(), nullptr) << "test requires a disarmed start";
  EXPECT_FALSE(chaos::Armed());
  for (int s = 0; s < chaos::kNumSites; ++s) {
    EXPECT_FALSE(chaos::Fail(static_cast<chaos::Site>(s), "anything"));
  }
}

// --- store read/write sites -------------------------------------------------

TEST(ChaosStoreTest, ShortReadIsDetectedAndDiscarded) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = fault::RunFaultSim(nl, ps, faults);
  const store::StoreKey key = store::FaultSimKey(
      nl, ps, faults, nullptr, true, store::SimModel::kStuckAt);

  store::ResultStore store(ScratchDir("short_read"));
  store.Store(key, result);
  {
    chaos::ScopedChaos scoped("store-read-short#1", 1);
    EXPECT_FALSE(store.Load(key).has_value());
  }
  EXPECT_EQ(store.stats().bad_entries, 1u);

  // The store recovers: a fresh write serves the exact result again.
  store.Store(key, result);
  const auto healed = store.Load(key);
  ASSERT_TRUE(healed.has_value());
  ExpectSameResult(result, *healed);
}

TEST(ChaosStoreTest, CorruptReadFallsBackToRecompute) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult clean = fault::RunFaultSim(nl, ps, faults);

  store::ResultStore store(ScratchDir("corrupt_read"));
  chaos::ScopedChaos scoped("store-read-corrupt#1", 1);
  const fault::FaultSimOptions options;
  const FaultSimResult cold = store::SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, store::SimModel::kStuckAt);
  // Warm call: the cached read is corrupted in flight, detected, and the
  // result recomputed — bit-identical to the clean run, never misread.
  const FaultSimResult warm = store::SimulateWithStore(
      &store, nl, ps, faults, nullptr, options, store::SimModel::kStuckAt);
  ExpectSameResult(clean, cold);
  ExpectSameResult(clean, warm);
  EXPECT_EQ(store.stats().bad_entries, 1u);
  EXPECT_EQ(store.stats().misses, 2u);
}

TEST(ChaosStoreTest, WriteFailureRetriesThenSucceeds) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = fault::RunFaultSim(nl, ps, faults);
  const store::StoreKey key = store::FaultSimKey(
      nl, ps, faults, nullptr, true, store::SimModel::kStuckAt);

  store::ResultStore store(ScratchDir("write_retry"));
  chaos::ScopedChaos scoped("store-write#1", 1);
  store.Store(key, result);
  EXPECT_EQ(store.stats().io_retries, 1u);
  EXPECT_EQ(store.stats().write_failures, 0u);
  const auto loaded = store.Load(key);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameResult(result, *loaded);
}

TEST(ChaosStoreTest, WriteExhaustionSkipsCachingNotFatal) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  const FaultSimResult result = fault::RunFaultSim(nl, ps, faults);
  const store::StoreKey key = store::FaultSimKey(
      nl, ps, faults, nullptr, true, store::SimModel::kStuckAt);

  store::ResultStore store(ScratchDir("write_gone"));
  chaos::ScopedChaos scoped("store-write=1", 1);
  // Every attempt fails: caching is skipped (logged), never thrown.
  EXPECT_NO_THROW(store.Store(key, result));
  EXPECT_EQ(store.stats().write_failures, 1u);
  EXPECT_EQ(store.stats().io_retries, 2u);  // attempts 2 and 3 re-tried
  EXPECT_FALSE(store.Load(key).has_value());
}

// --- checkpoint sites -------------------------------------------------------

store::CampaignCheckpoint TwoEntryCheckpoint() {
  store::CampaignCheckpoint ckpt;
  store::CheckpointEntry a;
  a.entry_fp = Hash128{1, 2};
  a.name = "imm";
  a.target = "DU";
  a.compacted = true;
  a.original_size = 10;
  a.final_size = 4;
  ckpt.entries.push_back(a);
  store::CheckpointEntry b;
  b.entry_fp = Hash128{3, 4};
  b.name = "mem";
  b.target = "SFU";
  ckpt.entries.push_back(b);
  return ckpt;
}

TEST(ChaosCheckpointTest, WriteRetryRoundTrips) {
  const std::string dir = ScratchDir("ckpt_retry");
  const auto ckpt = TwoEntryCheckpoint();
  const auto before = store::GetCheckpointIoCounters();
  {
    chaos::ScopedChaos scoped("ckpt-write#1", 1);
    EXPECT_NO_THROW(store::WriteCheckpoint(dir, ckpt));
  }
  const auto after = store::GetCheckpointIoCounters();
  EXPECT_EQ(after.retries - before.retries, 1u);
  EXPECT_EQ(after.failures, before.failures);
  const auto back = store::ReadCheckpoint(dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries, ckpt.entries);
}

TEST(ChaosCheckpointTest, ExhaustedWriteThrowsIoError) {
  const std::string dir = ScratchDir("ckpt_gone");
  chaos::ScopedChaos scoped("ckpt-write=1", 1);
  EXPECT_THROW(store::WriteCheckpoint(dir, TwoEntryCheckpoint()), IoError);
}

TEST(ChaosCheckpointTest, TruncatedCheckpointIsIgnoredNotFatal) {
  const std::string dir = ScratchDir("ckpt_trunc");
  {
    chaos::ScopedChaos scoped("ckpt-truncate#1", 1);
    store::WriteCheckpoint(dir, TwoEntryCheckpoint());
  }
  // The half-written file reads as damaged — a fresh start, never a crash
  // and never a misread prefix.
  EXPECT_FALSE(store::ReadCheckpoint(dir).has_value());
  // A clean rewrite recovers the directory.
  store::WriteCheckpoint(dir, TwoEntryCheckpoint());
  EXPECT_TRUE(store::ReadCheckpoint(dir).has_value());
}

TEST(ChaosCheckpointTest, DegradedEntriesRoundTripAndInconsistentIsDamaged) {
  const std::string dir = ScratchDir("ckpt_degraded");
  store::CampaignCheckpoint ckpt = TwoEntryCheckpoint();
  ckpt.entries[1].degraded = true;
  ckpt.entries[1].error_class = "deadline";
  ckpt.entries[1].error_stage = "fault-sim";
  store::WriteCheckpoint(dir, ckpt);
  const auto back = store::ReadCheckpoint(dir);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries, ckpt.entries);

  // A degraded flag without its class token is inconsistent -> damaged.
  std::ofstream out(store::CheckpointPath(dir), std::ios::trunc);
  out << "$campaign v2 entries 1\n"
      << "00000000000000000000000000000001 DU 0 1 1 1 1 0 0 1 - - x\n"
      << "$end\n";
  out.close();
  EXPECT_FALSE(store::ReadCheckpoint(dir).has_value());
}

// --- worker-throw site ------------------------------------------------------

TEST(ChaosWorkerTest, AllShardFailuresAreAggregated) {
  const Netlist du = circuits::BuildDecoderUnit();
  const PatternSet ps = DuPatterns();
  const auto faults = fault::CollapsedFaultList(du);
  fault::FaultSimOptions options;
  options.num_threads = 4;

  chaos::ScopedChaos scoped("worker-throw=1", 1);
  try {
    fault::RunFaultSim(du, ps, faults, nullptr, options);
    FAIL() << "expected every shard to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    // Previously only the first worker's exception survived; now every
    // failed shard is named in one aggregate error.
    EXPECT_NE(what.find("4 of 4 shards failed"), std::string::npos) << what;
    for (int t = 0; t < 4; ++t) {
      EXPECT_NE(what.find("shard " + std::to_string(t)), std::string::npos)
          << what;
    }
  }
}

TEST(ChaosWorkerTest, SingleShardFailureRethrowsOriginal) {
  const Netlist du = circuits::BuildDecoderUnit();
  const PatternSet ps = DuPatterns();
  const auto faults = fault::CollapsedFaultList(du);
  fault::FaultSimOptions options;
  options.num_threads = 4;

  // Exactly the second pre-drawn shard (index 1) throws; the engine must
  // rethrow the original exception, not wrap it.
  chaos::ScopedChaos scoped("worker-throw#2", 1);
  try {
    fault::RunFaultSim(du, ps, faults, nullptr, options);
    FAIL() << "expected shard 1 to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chaos: injected worker failure in shard 1"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("shards failed"), std::string::npos) << what;
  }
}

// --- cancellation + deadlines ----------------------------------------------

TEST(CancelTokenTest, RequestCancelAbortsFaultSimCleanly) {
  const Netlist nl = SmallNetlist();
  const PatternSet ps = SmallPatterns();
  const auto faults = fault::CollapsedFaultList(nl);
  CancelToken token;
  token.RequestCancel();
  fault::FaultSimOptions options;
  options.cancel = &token;
  EXPECT_THROW(fault::RunFaultSim(nl, ps, faults, nullptr, options),
               DeadlineError);
}

TEST(CancelTokenTest, ArmedDeadlineAbortsFaultSim) {
  const Netlist du = circuits::BuildDecoderUnit();
  const PatternSet ps = DuPatterns();
  const auto faults = fault::CollapsedFaultList(du);
  CancelToken token;
  token.ArmDeadline(1e-12);  // expires immediately
  for (const int threads : {1, 4}) {
    fault::FaultSimOptions options;
    options.num_threads = threads;
    options.cancel = &token;
    EXPECT_THROW(fault::RunFaultSim(du, ps, faults, nullptr, options),
                 DeadlineError)
        << "threads=" << threads;
  }
  token.DisarmDeadline();
  fault::FaultSimOptions options;
  options.cancel = &token;
  EXPECT_NO_THROW(fault::RunFaultSim(du, ps, faults, nullptr, options));
}

TEST(StageGuardTest, TinyDeadlineFailsWithStageAndClass) {
  const Netlist du = circuits::BuildDecoderUnit();
  compact::CompactorOptions options;
  options.stage_deadline_seconds = 1e-9;
  compact::Compactor compactor(du, trace::TargetModule::kDecoderUnit, options);
  try {
    compactor.CompactPtp(stl::GenerateImm(8, 3));
    FAIL() << "expected the first stage to blow its budget";
  } catch (const StageError& e) {
    EXPECT_EQ(e.error_class(), ErrorClass::kDeadline);
    EXPECT_EQ(e.stage(), compact::kStageLogicTrace);
  }
}

// --- campaign degraded mode -------------------------------------------------

TEST(ChaosCampaignTest, InjectedDeadlineDegradesOneEntryOthersContinue) {
  const Netlist du = circuits::BuildDecoderUnit();
  const Netlist sp = circuits::BuildSpCore();
  const Netlist sfu = circuits::BuildSfu();
  const auto stl = SmallStl();

  // Clean reference first (no chaos): entry results to compare against.
  compact::StlCampaign clean(du, sp, sfu);
  for (const auto& entry : stl) clean.Process(entry);

  // The first fault-sim arrival is entry 0's stage 3: it degrades, the
  // rest of the STL continues.
  chaos::ScopedChaos scoped("deadline@fault-sim#1", 1);
  compact::StlCampaign campaign(du, sp, sfu);
  for (const auto& entry : stl) campaign.Process(entry);

  const auto& records = campaign.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].degraded);
  EXPECT_FALSE(records[0].compacted);
  EXPECT_EQ(records[0].error_stage, "fault-sim");
  EXPECT_EQ(records[0].error_class, ErrorClass::kDeadline);
  // Degraded = carried through unchanged: no test content is ever lost.
  EXPECT_EQ(records[0].final_size, records[0].original_size);
  EXPECT_FALSE(records[1].degraded);
  EXPECT_TRUE(records[1].compacted);
  EXPECT_FALSE(records[2].degraded);

  const auto summary = campaign.Summary();
  EXPECT_EQ(summary.degraded_records, 1u);
  const std::string report =
      compact::RenderCampaignReport(records, summary);
  EXPECT_NE(report.find("degraded"), std::string::npos);
  EXPECT_NE(report.find("failed at stage fault-sim: deadline"),
            std::string::npos);
  EXPECT_NE(report.find("status    DEGRADED (1 of 3 entries failed)"),
            std::string::npos);
  // Entry 0 never updated the fault list, so entry 1 compacted against the
  // FULL list — it must detect at least as much as in the clean run, where
  // entry 0's detections were already dropped.
  EXPECT_GE(records[1].result.fault_report.num_detected,
            clean.records()[1].result.fault_report.num_detected);
}

TEST(ChaosCampaignTest, SameSeedReproducesByteIdenticalReport) {
  const Netlist du = circuits::BuildDecoderUnit();
  const Netlist sp = circuits::BuildSpCore();
  const Netlist sfu = circuits::BuildSfu();
  const auto stl = SmallStl();

  const auto run = [&]() {
    chaos::ScopedChaos scoped("deadline=0.6", 17);
    compact::StlCampaign campaign(du, sp, sfu);
    for (const auto& entry : stl) campaign.Process(entry);
    return compact::RenderCampaignReport(campaign.records(),
                                         campaign.Summary());
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  // The schedule actually injected something (0.6 over ~11 stage draws).
  EXPECT_NE(first.find("degraded"), std::string::npos);
}

}  // namespace
}  // namespace gpustl
