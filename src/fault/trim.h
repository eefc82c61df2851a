// Redundancy trimming for the PPSFP fault simulators (ERASER-style).
//
// GPU STL workloads are highly repetitive: identical 64-pattern input
// blocks recur inside loops and across PTPs, and most faults settle their
// detection status early. The trim layer removes three kinds of redundant
// work from the engine:
//
//  1. pattern-block dedup — each 64-pattern block is fingerprinted over the
//     nets that feed the live fault cone; a repeated block skips good- and
//     faulty-machine evaluation entirely and replays the cached per-class
//     detection words. The replay cache is keyed pre-drop and
//     masked by the current live set, so a replayed block drops exactly the
//     faults the original block would have.
//  2. per-fault early-exit — a cheap activation prepass over the good
//     blocks finds, per fault class, the last pattern block that can
//     activate it; once a class is past that block (or it was dropped) it
//     is compacted out of the live list and never touched again.
//  3. cross-PTP warm-start — good-machine blocks and per-FFR
//     stem-observability words are pure functions of (netlist, patterns),
//     so a caller-owned WarmStartCache (fault/parallel.h) carries them
//     across SimulateFaults calls with matching fingerprints instead of
//     recomputing them per run.
//
// The identity contract: every mechanism is EXACT. Trimmed runs produce
// FaultSimResults bit-identical to untrimmed runs — and to the reference
// simulator — for every thread count and fault model (tests/test_trim.cpp), and the result-store
// fingerprints exclude these toggles, so trimmed and untrimmed runs share
// cache entries. Trimming is a pure cost knob, like num_threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace gpustl::fault {

/// Which trim mechanisms run. All default on; each is independently
/// toggleable for ablation (bench_ablation_faultsim's trim axis).
struct TrimOptions {
  /// Fingerprint 64-pattern input blocks (over the nets feeding the live
  /// cone) and replay cached detection words on a repeat.
  bool dedup_blocks = true;

  /// Compact classes out of the live list once their remaining pattern
  /// blocks cannot activate them (activation-cone prepass).
  bool early_exit = true;

  /// Reuse good-machine blocks and stem-observability words across runs
  /// through FaultSimOptions::warm_cache (no effect without one).
  bool warm_start = true;

  bool any() const { return dedup_blocks || early_exit || warm_start; }
};

/// Everything off: the untrimmed engine.
inline TrimOptions NoTrim() { return TrimOptions{false, false, false}; }

/// The toggles a run actually honours: `requested`, unless $GPUSTL_NO_TRIM
/// is set truthy ("1", anything but "" / "0"), which forces everything off,
/// so wrappers that cannot edit a caller's options (CI legs, bisection
/// scripts) can still pin the untrimmed engine. Consulted once per RunFaultSim / RunTransitionFaultSim call.
TrimOptions EffectiveTrim(const TrimOptions& requested);

/// Observability counters proving the trim paths fire (BENCH_faultsim.json
/// fields, unit tests). Relaxed atomics: shards bump them concurrently and
/// nothing orders against them; totals are exact, per-shard attribution is
/// not. NOT part of the deterministic result surface — replay counts scale
/// with the shard count (each shard replays a repeated block once).
struct TrimCounters {
  std::atomic<std::uint64_t> blocks_replayed{0};
  std::atomic<std::uint64_t> faults_early_exited{0};
  std::atomic<std::uint64_t> warm_good_hits{0};
  std::atomic<std::uint64_t> warm_stem_hits{0};

  TrimCounters() = default;
  TrimCounters(const TrimCounters&) = delete;
  TrimCounters& operator=(const TrimCounters&) = delete;
};

/// Human-readable toggle summary for CLI/campaign observability lines:
/// "dedup+early-exit+warm-start", "dedup", ..., or "off".
std::string TrimModeName(const TrimOptions& trim);

}  // namespace gpustl::fault
