// PPSFP (Parallel-Pattern Single-Fault Propagation) stuck-at fault simulator.
//
// This implements the paper's "optimized GL fault simulation": the target
// module is fault-simulated in isolation against the per-cc test patterns
// captured from the PTP execution, with fault observability at the module's
// output ports (module-level observability). The simulator records, per
// fault, the first pattern that detects it and, per pattern, how many
// faults it detects — what the paper's Fault Sim Report feeds into
// labeling (an instruction is essential iff its patterns detect a fault) —
// and supports fault dropping both within a run and across runs (cross-PTP
// dropping via the persistent fault-list mask).
//
// There is one engine (fault/engine_wide.h): 256 patterns per propagation
// block, stuck-at classes clustered by fanout-free region with one
// critical-path trace and one stem propagation per region, and event
// propagation restricted to each fault's output cone. Its report must equal
// the naive serial-fault reference simulator's (tests/reference_sim.h) bit
// for bit; the fault-sim test suites hold it to that.
//
// The simulator is fault-parallel: with num_threads > 1 the work list —
// whole fanout-free regions (stuck-at) or faults (transition) — is sharded
// across a worker pool (good-machine blocks are simulated once and shared
// read-only; propagation scratch stays private) and the shard reports are
// merged deterministically, producing a report bit-identical to the serial
// loop (see fault/parallel.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/status.h"
#include "fault/fault.h"
#include "fault/trim.h"
#include "netlist/logicsim.h"
#include "netlist/patterns.h"

namespace gpustl::fault {

struct FaultCollapse;   // fault/collapse.h
class WarmStartCache;   // fault/parallel.h

struct FaultSimOptions {
  /// Stop simulating a fault after its first detection (fault dropping).
  /// When false every detection of every fault is counted per pattern.
  bool drop_detected = true;

  /// Worker threads for the fault-parallel engine. 1 = the serial loop on
  /// the calling thread; 0 = hardware_concurrency; N > 1 =
  /// the fault list is sharded over N workers with a deterministic merge.
  /// The report is bit-identical for every value (see fault/parallel.h).
  int num_threads = 1;

  /// Propagate one representative per structural equivalence class (see
  /// fault/collapse.h) and expand detections to every member. Members share
  /// the faulty function, so the report is bit-identical to the
  /// collapse=false engine; only the propagation work shrinks. Stuck-at
  /// only: transition faults are never collapsed.
  bool collapse = true;

  /// Optional precomputed collapse plan for this exact fault list (e.g.
  /// cached across PTP runs by the campaign driver). Ignored when
  /// `collapse` is false; when null the plan is built per run.
  const FaultCollapse* collapse_plan = nullptr;

  /// Cooperative cancellation / deadline token (not owned). Workers poll
  /// it once per 64-pattern block; when it expires they return early and
  /// the engine throws DeadlineError AFTER all shards join — a partial
  /// result is discarded wholesale, never returned, so an aborted run can
  /// never produce silently wrong coverage numbers. Null = never aborts.
  const CancelToken* cancel = nullptr;

  /// Redundancy trimming (fault/trim.h): pattern-block dedup, per-fault
  /// early-exit and cross-run warm-start. Every mechanism is exact — the
  /// report is bit-identical to an untrimmed run for every thread count and
  /// model — so, like num_threads, these are pure cost knobs excluded from
  /// result-store fingerprints.
  TrimOptions trim;

  /// Cross-run warm-start state (not owned; null = no warm-start even when
  /// trim.warm_start is set). Good-machine blocks and stem-observability
  /// words are reused across runs whose (netlist, patterns) fingerprints
  /// match — the cross-PTP case, where a campaign re-simulates the same
  /// captured pattern set against a shrinking fault list.
  WarmStartCache* warm_cache = nullptr;

  /// Observability counters bumped by the trim paths (not owned; null =
  /// not counted). See fault/trim.h for their determinism caveats.
  TrimCounters* trim_counters = nullptr;
};

/// Per-run result: the paper's Fault Sim Report.
struct FaultSimResult {
  static constexpr std::uint32_t kNotDetected = UINT32_MAX;

  /// Per fault (same order as the fault list): index of the first pattern
  /// that detects it, or kNotDetected.
  std::vector<std::uint32_t> first_detect;

  /// Per pattern: number of faults detected at that pattern. With dropping
  /// this counts first detections only.
  std::vector<std::uint32_t> detects_per_pattern;

  /// Faults detected in this run.
  std::size_t num_detected = 0;

  /// Convenience: detected-mask over the fault list.
  BitVec detected_mask;
};

/// Runs the fault simulation.
///
/// `skip` (optional) marks faults to exclude entirely — the cross-PTP
/// fault-dropping list: faults already detected by previously compacted
/// PTPs of the same module. Pass nullptr to simulate the full list.
///
/// The netlist must be combinational (no DFFs): the modelled GPU modules
/// (Decoder Unit, SP datapath, SFU datapath) are combinational between
/// pipeline registers, which is also what module-level observability
/// assumes.
FaultSimResult RunFaultSim(const netlist::Netlist& nl,
                           const netlist::PatternSet& patterns,
                           const std::vector<Fault>& faults,
                           const BitVec* skip = nullptr,
                           const FaultSimOptions& options = {});

/// Fault coverage in percent given a detected mask and list size.
double CoveragePercent(std::size_t detected, std::size_t total);

}  // namespace gpustl::fault
