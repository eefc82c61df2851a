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
// The activation pass is the whole cost of a replay, and it is computed
// the way the engine computes its own histograms, sharded and bit-sliced,
// with no loss of exactness:
//
//  * Sharded by 64-pattern block. Block bi's slice of
//    `activates_per_pattern` depends only on block bi's good values and on
//    the set of faults live in it (det_block >= bi), never on another
//    block. Blocks are strided over the RunOnShards pool, so each slice is
//    written by exactly one shard: there is nothing to merge, and the
//    result is the same for every thread count and interleaving.
//  * Bit-sliced. Each live fault's activation word is added into the
//    engine's WideCounterPlanes (fault/wide.h), a carry-save vertical
//    counter, and expanded into the slice once per block. The planes
//    compute the exact integer sum of the per-fault indicator words; only
//    the association order differs, and integer addition is associative.
//  * Empty mask. A mask with no set bit excludes nothing, so the result is
//    the full result itself, returned as a copy after every input check
//    (the first PTP on each module, and the coordinator's first plan
//    entry per module, ask for exactly this).
//  * Bounded. Live faults are ordered by detection block, latest first, so
//    the faults live in block bi are a prefix of the list. After the
//    latest detection block of any unskipped fault (the last block when
//    one never drops) nothing is live: those blocks contribute zero and
//    their good values are never simulated.
//
// Preconditions (checked): the full result was computed with skip = null
// and drop_detected = true over the same fault list and patterns, stuck-at
// model. tests/test_reference.cpp holds the replay to bit-identity against
// the reference simulator (tests/reference_sim.h) across pattern counts,
// masks and thread counts; tests/test_distrib.cpp against the live engine.
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
/// with skip = null, and `good_blocks` over the same (nl, patterns).
/// Bit-identical to the live engine for every engine toggle (threads,
/// collapse, trim) — those are already bit-identical to each other, and
/// the replay reproduces the canonical accounting directly.
///
/// Of `options` only `num_threads` (the activation pass's shard count,
/// resolved like the engine's) and `cancel` are read. An expired token
/// stops every shard at its next block and throws DeadlineError after the
/// join; a partial result is never returned. Throws Error on shape
/// mismatch between `full`, `faults`, `skip` and `good_blocks` (a misuse,
/// never a data-dependent state).
FaultSimResult ReplaySkipFromFull(const netlist::Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  const FaultSimResult& full,
                                  const BitVec& skip,
                                  GoodBlockCache& good_blocks,
                                  const FaultSimOptions& options = {});

}  // namespace gpustl::fault
