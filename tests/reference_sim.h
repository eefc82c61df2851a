// Reference fault simulator: the differential oracle every fault-sim suite
// (and bench_ablation_faultsim's Identical columns) holds the production
// engine to.
//
// It is deliberately naive so that it is obviously correct: one fault at a
// time, 64 patterns per word, no fault collapsing, no fanout-free-region
// tracing, no trimming, no event queue and no threads. Per 64-pattern
// block a netlist::BitSimulator evaluates the good machine; per fault the
// site is forced and the gates of its fanout cone are re-evaluated in
// topological order, and the output words are compared with the good ones.
//
// The result is the engine's full FaultSimResult, including its
// accounting rules:
//  * `activates_per_pattern` counts a fault on every pattern of every
//    64-pattern block up to and including the block of its first
//    detection when dropping (then it is dropped), else on every pattern;
//  * `detects_per_pattern` counts first detections only when dropping,
//    else every detecting pattern;
//  * skipped faults are never simulated, never counted, never detected;
//  * transition faults launch on the previous pattern's site value
//    (pattern 0 never launches) and are detected only on launched capture
//    vectors.
#pragma once

#include <vector>

#include "common/bitops.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault {

/// Stuck-at reference: what RunFaultSim must return for these arguments
/// under any FaultSimOptions with the same `drop_detected`.
FaultSimResult ReferenceFaultSim(const netlist::Netlist& nl,
                                 const netlist::PatternSet& patterns,
                                 const std::vector<Fault>& faults,
                                 const BitVec* skip, bool drop_detected);

/// Transition-delay reference: what RunTransitionFaultSim must return.
FaultSimResult ReferenceTransitionFaultSim(const netlist::Netlist& nl,
                                           const netlist::PatternSet& patterns,
                                           const std::vector<Fault>& faults,
                                           const BitVec* skip,
                                           bool drop_detected);

/// True when every field of the two results is equal.
bool SameFaultSimResult(const FaultSimResult& a, const FaultSimResult& b);

}  // namespace gpustl::fault
