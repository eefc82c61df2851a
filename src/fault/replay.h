// Skip-mask replay: deriving a cross-PTP-dropped fault-sim result from the
// full-fault-list result of the same (netlist, patterns) without touching
// the propagation engine.
//
// This is the reducer half of the distributed two-phase schedule
// (src/distrib/): phase 1 simulates every work unit against the FULL fault
// list (skip = null) — those runs are independent, so workers execute them
// in parallel with no ordering constraints — and phase 2 replays the
// paper's sequential inter-PTP drop order over the cached results. The
// replay is exact, not approximate, because under fault dropping the
// skip-masked report is a pure function of the full report plus the
// good-machine values:
//
//  * `first_detect[f]` is skip-independent. A fault's detection diff is
//    produced by propagating its class leader, and every member of a
//    structural equivalence class has the same faulty output behaviour by
//    construction of the classes — so removing members from a class (what
//    a skip mask does to the sim plan) never changes the block or lane of
//    any surviving member's first detection.
//  * `detects_per_pattern` under dropping adds the class member count at
//    the class's first detecting pattern — exactly the sum of one count
//    per surviving member at its (shared) first_detect.
//  * `activates_per_pattern` counts, for every not-yet-dropped fault,
//    popcount((good[site] ^ stuck) & valid) per 64-pattern block — and a
//    fault stays live through the END of its detection block (the engine
//    counts activation before detection within a block). That word needs
//    only the good-machine values, which GoodBlockCache provides from one
//    logic simulation, never a propagation.
//
// Preconditions (checked): the full result was computed with skip = null
// and drop_detected = true over the same fault list, stuck-at model. The
// tests in tests/test_distrib.cpp hold the replay to bit-identity against
// RunFaultSim for real skip masks across modules and engine toggles.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bitops.h"
#include "fault/faultsim.h"
#include "fault/parallel.h"

namespace gpustl::fault {

/// Process-wide replay counters (observability only — bench_distrib reports
/// the phase-2 replay share from these; nothing deterministic reads them).
struct ReplayCounters {
  std::atomic<std::uint64_t> replays{0};        // skip results derived
  std::atomic<std::uint64_t> replayed_faults{0};  // unskipped faults replayed
};
ReplayCounters& GlobalReplayCounters();

/// Derives the result of `RunFaultSim(nl, patterns, faults, &skip,
/// {drop_detected = true, ...})` from `full`, the result of the same run
/// with skip = null. Bit-identical to the live engine for every engine
/// toggle (threads, collapse, trim) — those are already bit-identical to
/// each other, and the replay reproduces the canonical accounting
/// directly. Throws Error on shape mismatch between
/// `full`, `faults` and `skip` (a misuse, never a data-dependent state).
FaultSimResult ReplaySkipFromFull(const netlist::Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  const FaultSimResult& full,
                                  const BitVec& skip,
                                  GoodBlockCache& good_blocks);

}  // namespace gpustl::fault
