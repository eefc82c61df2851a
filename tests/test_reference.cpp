// Engine conformance against the reference simulator: the production
// fault-sim engine must return exactly the FaultSimResult of the naive
// serial-fault reference (tests/reference_sim.h) — first_detect, both
// per-pattern histograms, num_detected, detected_mask — on randomized
// netlists and on the bundled DU/SP/SFU modules, for stuck-at and
// transition models, across drop/no-drop, skip masks, collapse on/off and
// thread counts 1/2/5. The width seams are covered deliberately: pattern
// counts on and around every multiple of 64 and of the engine's 256-pattern
// block (ragged tails, drop boundaries inside a wide block, the transition
// launch carry across lanes). A seeded differential fuzzer closes the gaps
// the enumerated matrix misses; failures print the seed to reproduce.
//
// The skip-mask replay (fault/replay.h) is held to the same oracle: a
// replay over the reference's full-list result must equal the reference's
// skip-masked result, for every mask shape and thread count, including a
// mask whose faults all drop in block 0 (the replay's last-block bound).
// One level up, every result a Compactor reports for a short two-module
// campaign — stage 3 and validation, which it replays, and both standalone
// coverages — is held to reference runs on the same patterns and masks.
//
// This suite carries the ctest labels `tsan` (the engine and the replay
// shard over the worker pool and share good-machine blocks read-only) and
// `oracle`.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "circuits/decoder_unit.h"
#include "circuits/sfu.h"
#include "circuits/sp_core.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/status.h"
#include "compact/compactor.h"
#include "fault/collapse.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"
#include "fault/replay.h"
#include "fault/transition.h"
#include "gpu/sm.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"
#include "stl/generators.h"
#include "store/fingerprint.h"
#include "trace/trace.h"
#include "tests/fault_test_util.h"
#include "tests/reference_sim.h"

namespace gpustl::fault {
namespace {

using netlist::Netlist;
using netlist::PatternSet;
using testutil::ExpectIdentical;
using testutil::RandomNetlist;
using testutil::RandomPatterns;
using testutil::RandomSkip;
using testutil::RandomWidePatterns;
using testutil::SampleMask;

/// Pattern counts on and around every 64- and 256-pattern boundary.
constexpr int kEdgeCounts[] = {1,   63,  64,  65,  127, 128, 255,
                               256, 257, 449, 511, 512, 513};

std::string Describe(int count, bool drop, bool collapse, int threads) {
  return "count=" + std::to_string(count) + " drop=" + std::to_string(drop) +
         " collapse=" + std::to_string(collapse) +
         " threads=" + std::to_string(threads);
}

// --- Stuck-at ---

TEST(EngineVsReference, StuckAtRandomNetlistsAtEdgeCounts) {
  Rng rng(0xBEC0);
  for (const int count : kEdgeCounts) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const Netlist nl =
        RandomNetlist(rng, inputs, 20 + static_cast<int>(rng.below(120)));
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      for (const bool drop : {true, false}) {
        const auto ref = ReferenceFaultSim(nl, pats, faults, nullptr, drop);
        for (const bool collapse : {false, true}) {
          for (const int threads : {1, 2, 5}) {
            const auto got = RunFaultSim(nl, pats, faults, nullptr,
                                         {.drop_detected = drop,
                                          .num_threads = threads,
                                          .collapse = collapse});
            ExpectIdentical(ref, got,
                            Describe(count, drop, collapse, threads));
          }
        }
      }
    }
  }
}

TEST(EngineVsReference, StuckAtSkipMasks) {
  // Includes the degenerate all-skipped mask and partially skipped
  // equivalence classes (a skipped member must not surface even though
  // its classmates are simulated).
  Rng rng(0xBEC1);
  for (int round = 0; round < 3; ++round) {
    const int inputs = 6 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 30 + static_cast<int>(rng.below(80)));
    const auto faults = CollapsedFaultList(nl);
    const PatternSet pats =
        RandomPatterns(rng, inputs, 40 + static_cast<int>(rng.below(500)));
    for (const double density : {0.1, 0.5, 1.0}) {
      const BitVec skip = RandomSkip(rng, faults.size(), density);
      for (const bool drop : {true, false}) {
        const auto ref = ReferenceFaultSim(nl, pats, faults, &skip, drop);
        for (const int threads : {1, 2, 5}) {
          const auto got = RunFaultSim(
              nl, pats, faults, &skip,
              {.drop_detected = drop, .num_threads = threads});
          ExpectIdentical(ref, got,
                          "skip=" + std::to_string(density) + " " +
                              Describe(static_cast<int>(pats.size()), drop,
                                       true, threads));
        }
      }
    }
  }
}

TEST(EngineVsReference, BundledModules) {
  // The acceptance bar on the real targets: DU/SP/SFU, serial and sharded.
  // The reference is per fault, so the big modules run on a fixed sample.
  Rng rng(0xBEC2);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = CollapsedFaultList(nl);
    const BitVec skip = SampleMask(faults.size(), 1500);
    // 300 is deliberately not a multiple of 256.
    const PatternSet pats =
        RandomWidePatterns(rng, static_cast<int>(nl.num_inputs()), 300);
    for (const bool drop : {true, false}) {
      const auto ref = ReferenceFaultSim(nl, pats, faults, &skip, drop);
      for (const int threads : {1, 2, 5}) {
        const auto got =
            RunFaultSim(nl, pats, faults, &skip,
                        {.drop_detected = drop, .num_threads = threads});
        ExpectIdentical(ref, got,
                        nl.name() + " " + Describe(300, drop, true, threads));
      }
    }
  }
}

// --- Transition ---

TEST(EngineVsReference, TransitionRandomNetlistsAtEdgeCounts) {
  // The launch carry is the transition model's width seam: the counts land
  // carries on every lane boundary and on ragged tails.
  Rng rng(0xBEC3);
  for (const int count : kEdgeCounts) {
    const int inputs = 5 + static_cast<int>(rng.below(8));
    const Netlist nl =
        RandomNetlist(rng, inputs, 25 + static_cast<int>(rng.below(90)));
    const auto faults = TransitionFaultList(nl);
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    const BitVec skip = RandomSkip(rng, faults.size(), 0.3);
    for (const BitVec* mask : {static_cast<const BitVec*>(nullptr), &skip}) {
      for (const bool drop : {true, false}) {
        const auto ref =
            ReferenceTransitionFaultSim(nl, pats, faults, mask, drop);
        for (const int threads : {1, 2, 5}) {
          const auto got = RunTransitionFaultSim(
              nl, pats, faults, mask,
              {.drop_detected = drop, .num_threads = threads});
          ExpectIdentical(ref, got,
                          "transition " +
                              Describe(count, drop, false, threads));
        }
      }
    }
  }
}

TEST(EngineVsReference, TransitionBundledModules) {
  Rng rng(0xBEC4);
  const Netlist modules[] = {circuits::BuildDecoderUnit(),
                             circuits::BuildSpCore(), circuits::BuildSfu()};
  for (const Netlist& nl : modules) {
    const auto faults = TransitionFaultList(nl);
    const BitVec skip = SampleMask(faults.size(), 1500);
    const PatternSet pats =
        RandomWidePatterns(rng, static_cast<int>(nl.num_inputs()), 200);
    for (const bool drop : {true, false}) {
      const auto ref =
          ReferenceTransitionFaultSim(nl, pats, faults, &skip, drop);
      const auto got = RunTransitionFaultSim(
          nl, pats, faults, &skip, {.drop_detected = drop, .num_threads = 2});
      ExpectIdentical(ref, got, nl.name() + " transition");
    }
  }
}

// --- Seeded differential fuzz ---

TEST(EngineFuzz, RandomTriplesMatchReference) {
  // N random (netlist, pattern window, fault list) triples with random
  // toggles. The seed is in the failure trace — plug it into kFuzzBase
  // below to reproduce a single case deterministically.
  constexpr std::uint64_t kFuzzBase = 0xF122ED00;
  constexpr int kCases = 12;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kFuzzBase + static_cast<std::uint64_t>(c);
    SCOPED_TRACE("fuzz seed 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(seed));
      return std::string(buf);
    }());
    Rng rng(seed);

    const int inputs = 3 + static_cast<int>(rng.below(14));
    const Netlist nl =
        RandomNetlist(rng, inputs, 15 + static_cast<int>(rng.below(150)));
    // Bias the pattern count toward block edges, plus a uniform tail.
    const int count = rng.chance(0.5)
                          ? kEdgeCounts[rng.below(std::size(kEdgeCounts))]
                          : 1 + static_cast<int>(rng.below(700));
    const PatternSet pats = RandomPatterns(rng, inputs, count);

    const bool transition = rng.chance(0.25);
    const auto faults =
        transition ? TransitionFaultList(nl) : EnumerateFaults(nl);
    const BitVec skip =
        RandomSkip(rng, faults.size(), rng.chance(0.5) ? 0.0 : 0.3);
    FaultSimOptions opt;
    opt.drop_detected = rng.chance(0.7);
    opt.collapse = rng.chance(0.7);
    opt.num_threads = 1 + static_cast<int>(rng.below(5));

    if (transition) {
      ExpectIdentical(ReferenceTransitionFaultSim(nl, pats, faults, &skip,
                                                  opt.drop_detected),
                      RunTransitionFaultSim(nl, pats, faults, &skip, opt),
                      "transition");
    } else {
      ExpectIdentical(
          ReferenceFaultSim(nl, pats, faults, &skip, opt.drop_detected),
          RunFaultSim(nl, pats, faults, &skip, opt), "stuck-at");
    }
  }
}

// --- Skip-mask replay ---

/// The mask shapes the replay suite checks, named: empty (a campaign's
/// first entry), all skipped, every third fault, half of the detected
/// faults (a late entry), and every fault not detected in block 0 — then
/// every live fault drops in block 0, so the replay's activation pass ends
/// there.
std::vector<std::pair<std::string, BitVec>> ReplayMasks(
    const FaultSimResult& full) {
  const std::size_t n = full.first_detect.size();
  BitVec every_third(n, false);
  BitVec half_detected(n, false);
  BitVec block0_only(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 0) every_third.Set(i, true);
    if (full.detected_mask.Get(i) && i % 2 == 0) half_detected.Set(i, true);
    if (full.first_detect[i] < 64) block0_only.Set(i, false);
  }
  return {{"empty", BitVec(n, false)},
          {"all-skipped", BitVec(n, true)},
          {"every-third", every_third},
          {"half-detected", half_detected},
          {"block0-only", block0_only}};
}

/// Replays every mask of ReplayMasks at threads 1/2/5, each over a fresh
/// good-block cache (so the lazy block builds run under the shards), and
/// holds each result to the reference's skip-masked run.
void ExpectReplayMatchesReference(const Netlist& nl, const PatternSet& pats,
                                  const std::vector<Fault>& faults,
                                  const std::string& what) {
  const FaultSimResult full =
      ReferenceFaultSim(nl, pats, faults, nullptr, /*drop_detected=*/true);
  for (const auto& [name, skip] : ReplayMasks(full)) {
    const FaultSimResult want =
        ReferenceFaultSim(nl, pats, faults, &skip, /*drop_detected=*/true);
    for (const int threads : {1, 2, 5}) {
      FaultSimOptions options;
      options.num_threads = threads;
      GoodBlockCache good(nl, pats);
      ExpectIdentical(
          want, ReplaySkipFromFull(nl, faults, full, skip, good, options),
          what + " mask=" + name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ReplayVsReference, RandomNetlistsAtBlockEdges) {
  Rng rng(0xBEC5);
  for (const int count : {1, 63, 64, 65, 127, 128, 129, 513}) {
    const int inputs = 4 + static_cast<int>(rng.below(12));
    const Netlist nl =
        RandomNetlist(rng, inputs, 20 + static_cast<int>(rng.below(120)));
    const PatternSet pats = RandomPatterns(rng, inputs, count);
    for (const auto& faults : {EnumerateFaults(nl), CollapsedFaultList(nl)}) {
      ExpectReplayMatchesReference(nl, pats, faults,
                                   "count=" + std::to_string(count));
    }
  }
}

TEST(ReplayVsReference, TracedSpProgram) {
  // Real captured patterns on a real module. The reference is per fault,
  // so the replay's fault list is a fixed sample of the SP list — any
  // fault list is a valid replay input.
  const Netlist sp = circuits::BuildSpCore();
  trace::PatternProbe probe(trace::TargetModule::kSpCore);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(stl::GenerateRand(2, 5));
  const PatternSet& pats = probe.patterns();
  ASSERT_GT(pats.size(), 64u);
  const std::vector<Fault> all = CollapsedFaultList(sp);
  const BitVec sample = SampleMask(all.size(), 600);
  std::vector<Fault> faults;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!sample.Get(i)) faults.push_back(all[i]);
  }
  ExpectReplayMatchesReference(sp, pats, faults,
                               "SP patterns=" + std::to_string(pats.size()));
}

TEST(ReplayVsReference, ExpiredTokenThrowsDeadlineNeverPartial) {
  Rng rng(0xBEC6);
  const Netlist nl = RandomNetlist(rng, 10, 80);
  const PatternSet pats = RandomPatterns(rng, 10, 513);
  const auto faults = EnumerateFaults(nl);
  const FaultSimResult full =
      ReferenceFaultSim(nl, pats, faults, nullptr, /*drop_detected=*/true);
  const BitVec skip(faults.size(), false);

  CancelToken token;
  token.ArmDeadline(1e-12);  // expires immediately
  FaultSimOptions options;
  options.cancel = &token;
  for (const int threads : {1, 4}) {
    options.num_threads = threads;
    GoodBlockCache good(nl, pats);
    EXPECT_THROW(ReplaySkipFromFull(nl, faults, full, skip, good, options),
                 DeadlineError)
        << "threads=" << threads;
  }
  token.DisarmDeadline();
  GoodBlockCache good(nl, pats);
  ExpectIdentical(full,
                  ReplaySkipFromFull(nl, faults, full, skip, good, options),
                  "disarmed token");
}

TEST(ReplayVsReference, EmptyMaskStillChecksItsInputs) {
  // The empty mask returns the full result as is, but only after every
  // input check: good blocks over other patterns, or a first detection
  // past the patterns, are refused as for any other mask.
  Rng rng(0xBEC7);
  const Netlist nl = RandomNetlist(rng, 10, 80);
  const PatternSet pats = RandomPatterns(rng, 10, 130);
  const auto faults = EnumerateFaults(nl);
  const FaultSimResult full =
      ReferenceFaultSim(nl, pats, faults, nullptr, /*drop_detected=*/true);
  const BitVec empty(faults.size(), false);

  GoodBlockCache other_good(nl, RandomPatterns(rng, 10, 300));
  EXPECT_THROW(ReplaySkipFromFull(nl, faults, full, empty, other_good), Error);
  GoodBlockCache good(nl, pats);
  FaultSimResult past_end = full;
  past_end.first_detect[0] = static_cast<std::uint32_t>(pats.size());
  EXPECT_THROW(ReplaySkipFromFull(nl, faults, past_end, empty, good), Error);

  const std::uint64_t replays_before = GlobalReplayCounters().replays.load();
  ExpectIdentical(full, ReplaySkipFromFull(nl, faults, full, empty, good),
                  "empty mask");
  EXPECT_EQ(GlobalReplayCounters().replays.load(), replays_before + 1)
      << "the shortcut still counts as a replay";
}

// --- Campaign level ---

/// The patterns the Compactor captures for `ptp` (stage 2), traced here
/// independently of it.
PatternSet TracedPatterns(const isa::Program& ptp, trace::TargetModule target) {
  trace::PatternProbe probe(target);
  gpu::Sm sm;
  sm.AddMonitor(&probe);
  sm.Run(ptp);
  return probe.patterns();
}

TEST(CampaignVsReference, EveryCompactPtpMatchesReferenceRuns) {
  // Two PTPs per module, compacted in order by one Compactor each, so the
  // second sees the first's detections as its skip mask. Every fault sim
  // the Compactor reports on — stage 3 and validation (replayed from the
  // full-list runs) and the two standalone coverages (the full-list runs
  // themselves) — is held to the reference simulator. The per-fault
  // reference is slow on the bundled modules, so the Compactor's fault
  // list is a fixed sample of each module's list.
  struct Module {
    Netlist nl;
    trace::TargetModule target;
    std::vector<isa::Program> ptps;
  };
  const Module modules[] = {
      {circuits::BuildDecoderUnit(),
       trace::TargetModule::kDecoderUnit,
       {stl::GenerateImm(4, 3), stl::GenerateMem(4, 5)}},
      {circuits::BuildSpCore(),
       trace::TargetModule::kSpCore,
       {stl::GenerateRand(2, 5), stl::GenerateRand(3, 9)}}};

  for (const Module& m : modules) {
    const std::vector<Fault> all = CollapsedFaultList(m.nl);
    const BitVec sample = SampleMask(all.size(), 400);
    auto prep = std::make_shared<compact::ModulePrep>();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!sample.Get(i)) prep->faults.push_back(all[i]);
    }
    prep->collapse = BuildFaultCollapse(m.nl, prep->faults);
    prep->faults_fp = store::FingerprintFaults(prep->faults);
    const std::vector<Fault>& faults = prep->faults;
    const std::string module_name(trace::TargetModuleName(m.target));

    for (const int threads : {1, 2, 5}) {
      compact::CompactorOptions options;
      options.num_threads = threads;
      compact::Compactor compactor(m.nl, m.target, options, prep);
      BitVec earlier(faults.size(), false);  // OR of earlier detected masks
      for (std::size_t k = 0; k < m.ptps.size(); ++k) {
        const std::string what = module_name + " ptp=" + std::to_string(k) +
                                 " threads=" + std::to_string(threads);
        if (k > 0) {
          ASSERT_GT(earlier.Count(), 0u)
              << what << ": the skip mask must not be empty";
        }
        const compact::CompactionResult res =
            compactor.CompactPtp(m.ptps[k]);

        const PatternSet before = TracedPatterns(m.ptps[k], m.target);
        const PatternSet after = TracedPatterns(res.compacted, m.target);
        ExpectIdentical(
            ReferenceFaultSim(m.nl, before, faults, &earlier, true),
            res.fault_report, what + " stage 3");
        EXPECT_EQ(res.validation_detections,
                  ReferenceFaultSim(m.nl, after, faults, &earlier, true)
                      .num_detected)
            << what << " validation";
        EXPECT_EQ(res.original.fc_percent,
                  CoveragePercent(
                      ReferenceFaultSim(m.nl, before, faults, nullptr, true)
                          .num_detected,
                      faults.size()))
            << what << " original FC";
        EXPECT_EQ(res.result.fc_percent,
                  CoveragePercent(
                      ReferenceFaultSim(m.nl, after, faults, nullptr, true)
                          .num_detected,
                      faults.size()))
            << what << " compacted FC";
        earlier |= res.fault_report.detected_mask;
      }
    }
  }
}

}  // namespace
}  // namespace gpustl::fault
