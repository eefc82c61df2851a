// Skip-mask replay: deriving a cross-PTP-dropped fault-sim result from the
// full-fault-list result of the same (netlist, patterns) without touching
// the propagation engine.
//
// Every cross-PTP-dropped stuck-at run of the Compactor (stage 3,
// validation, absorbed coverage) is derived this way, in every mode: the
// full-list run it replays over is the standalone measurement the report
// needs anyway, so a compacted PTP propagates twice instead of four times.
// It is also the reducer half of the distributed two-phase schedule
// (src/distrib/): phase 1 simulates every work unit against the FULL fault
// list (skip = null) — those runs are independent, so workers execute them
// in parallel with no ordering constraints — and phase 2 replays the
// paper's sequential inter-PTP drop order over the cached results.
//
// The replay is an O(faults + patterns) scatter of `first_detect`, and it
// is exact, not approximate:
//
//  * `first_detect[f]` is skip-independent. A fault's detection diff is
//    produced by propagating its class leader, and every member of a
//    structural equivalence class has the same faulty output behaviour by
//    construction of the classes — so removing members from a class (what
//    a skip mask does to the sim plan) never changes the block or lane of
//    any surviving member's first detection. Dropping never changes it
//    either: a fault is dropped only after its first detection.
//  * `detected_mask` and `num_detected` follow from `first_detect`.
//  * `detects_per_pattern` under dropping adds the class member count at
//    the class's first detecting pattern — exactly the sum of one count
//    per surviving member at its (shared) first_detect, i.e. the histogram
//    of the scattered `first_detect`.
//
// Preconditions: the full result was computed with skip = null and
// drop_detected = true over the same fault list and patterns, stuck-at
// model. Its shape and its first detections are checked.
// tests/test_reference.cpp holds the replay to bit-identity against the
// reference simulator (tests/reference_sim.h) across pattern counts and
// masks; tests/test_distrib.cpp against the live engine.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bitops.h"
#include "fault/faultsim.h"

namespace gpustl::fault {

/// Process-wide replay counter (observability only — bench_distrib and
/// perfbench report the phase-2 replay share from it; nothing
/// deterministic reads it).
struct ReplayCounters {
  std::atomic<std::uint64_t> replays{0};  // skip results derived
};
ReplayCounters& GlobalReplayCounters();

/// Derives the result of `RunFaultSim(nl, patterns, faults, &skip,
/// {drop_detected = true, ...})` from `full`, the result of the same run
/// with skip = null. Bit-identical to the live engine for every engine
/// toggle (threads, collapse, trim). Throws Error when `skip` or the
/// detected mask does not match `full`'s fault count, or when a first
/// detection lies past the patterns (a store entry is read from disk) —
/// a misuse, never a data-dependent state.
FaultSimResult ReplaySkipFromFull(const FaultSimResult& full,
                                  const BitVec& skip);

}  // namespace gpustl::fault
