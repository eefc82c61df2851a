// Fault-parallel execution support for the PPSFP simulators.
//
// Both RunFaultSim and RunTransitionFaultSim parallelize the same way: the
// live work list — whole fanout-free regions for stuck-at (a stem
// propagation is shared by every class of a region, so the region is the
// indivisible unit), faults for transition — is sharded across a small
// worker pool, each worker runs the unmodified serial PPSFP loop over its
// shard with private propagation scratch (good-machine blocks are
// shared read-only through GoodBlockCache), and a deterministic merge
// reconstructs the serial report. The merge is exact — not approximately
// equal — because the serial loop's accounting is per-fault independent:
//
//  * `first_detect[f]` and `detected_mask[f]` depend only on fault f's own
//    propagation history;
//  * dropping fault f (after its first detection) changes only fault f's
//    contribution to later blocks, never another fault's;
//  * `detects_per_pattern` is a sum of per-fault indicator counts, and
//    integer addition is order-independent.
//
// Summing shard histograms in (pattern, fault-id) order therefore replays
// the serial drop-ordered accounting bit-for-bit, for any shard count and
// any thread interleaving. The differential suite in
// tests/test_faultsim_parallel.cpp locks this equivalence down.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "fault/faultsim.h"
#include "netlist/logicsim.h"
#include "netlist/patterns.h"

namespace gpustl::fault {

/// Shared good-machine state for fault-simulation runs. The good values of
/// each 64-pattern block are a pure function of (netlist, patterns), so
/// they are simulated once — lazily, on first demand — and shared
/// read-only by every shard (and, under warm-start, by every run of the
/// same inputs through a WarmStartCache). Laziness matters: with fault
/// dropping a run can finish before the pattern set is exhausted, and
/// blocks nobody asks for are never simulated.
///
/// Population is contention-friendly: the block table is pre-sized (never
/// reallocates), each block publishes through its own acquire/release flag,
/// and building serializes only within one of kStripes lock stripes — shards
/// warming the same cache do not funnel through a single mutex. Block content stays deterministic regardless of
/// arrival order: BitSimulator::LoadBlock is random-access by pattern
/// index, so block i's values never depend on which blocks built first.
class GoodBlockCache {
 public:
  GoodBlockCache(const netlist::Netlist& nl,
                 const netlist::PatternSet& patterns);

  struct Block {
    int count = 0;  // patterns in this block (0 = past the end)
    std::vector<std::uint64_t> values;  // good word per net
  };

  /// Block `index` (patterns [64*index, 64*index + count)). The first
  /// caller simulates it; later callers get the cached block. Past the end
  /// of the pattern set an empty block (count 0) is returned. Thread-safe;
  /// a returned block is immutable.
  const Block& Get(std::size_t index);

  /// ceil(patterns / 64): blocks with at least one pattern.
  std::size_t num_blocks() const { return blocks_.size(); }

 private:
  static constexpr std::size_t kStripes = 8;
  struct Stripe {
    std::mutex mu;
    // One lazily-built simulator per stripe: cheaper than per-block
    // construction, no sharing across stripes.
    std::unique_ptr<netlist::BitSimulator> sim;
  };

  const netlist::Netlist* nl_;
  const netlist::PatternSet* patterns_;
  std::vector<Block> blocks_;  // pre-sized; elements never move
  std::unique_ptr<std::atomic<char>[]> done_;  // per-block publication flag
  Stripe stripes_[kStripes];
};

/// Cross-run cache of per-FFR stem-observability words, shared through a
/// WarmStartCache entry (one instance per (netlist, patterns) pair). The
/// word for (block, stem) — which patterns of the block observe a stem
/// flip at the module outputs — is independent of the fault list, the skip
/// mask, dropping and the cone toggle (a stem propagation touches exactly
/// the stem's output cone), so it can be stored on first computation and
/// reused by any later run over the same patterns. Striped like
/// GoodBlockCache; values for one key are deterministic, so double-stores
/// are idempotent.
class StemObsCache {
 public:
  /// True and *out filled when (block, stem) is cached.
  bool Lookup(std::size_t block, std::uint32_t stem, std::uint64_t* out);
  void Store(std::size_t block, std::uint32_t stem, std::uint64_t word);

 private:
  static constexpr std::size_t kStripes = 8;
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> words;
  };
  static std::uint64_t Key(std::size_t block, std::uint32_t stem) {
    return (static_cast<std::uint64_t>(block) << 32) | stem;
  }
  Stripe stripes_[kStripes];
};

/// Cross-run warm-start state (TrimOptions::warm_start): good-machine
/// blocks and stem-observability words keyed by the (netlist, patterns)
/// content fingerprint. A campaign's compactor owns one of these per
/// module; the four fault simulations inside one CompactPtp (stage 3,
/// validation, and the two standalone measurements) hit it pairwise, and
/// runs across PTPs hit it whenever a pattern set recurs. Entries are a
/// small LRU (a CompactPtp juggles two pattern sets; older PTPs' patterns
/// rarely return). Thread-safe; the returned shared state does its own
/// locking.
class WarmStartCache {
 public:
  /// `max_entries` bounds the LRU. The default suits one campaign (a
  /// CompactPtp juggles two live pattern sets); a multi-tenant service
  /// sharing one cache across concurrent campaigns passes a larger bound.
  explicit WarmStartCache(std::size_t max_entries = 4)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  struct Shared {
    std::shared_ptr<GoodBlockCache> good;
    std::shared_ptr<StemObsCache> stem_obs;
  };

  /// The shared state for (nl, patterns), created on first sight. A
  /// returned Shared keeps the entry alive independent of later eviction.
  /// `counters` (nullable) gets warm_good_hits bumped on a hit.
  Shared Acquire(const netlist::Netlist& nl,
                 const netlist::PatternSet& patterns, TrimCounters* counters);

 private:
  struct Entry {
    Hash128 key;
    Shared shared;
    std::uint64_t stamp = 0;  // LRU clock
  };
  std::size_t max_entries_;
  std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t next_stamp_ = 0;
};

/// Resolves a FaultSimOptions::num_threads request against the amount of
/// shardable work: 0 = std::thread::hardware_concurrency(), otherwise the
/// requested count, clamped to [1, work_items].
int ResolveNumThreads(int requested, std::size_t work_items);

/// Partitions `live` (ascending work-item ids: fault classes or FFR
/// groups) into `shards` strided sub-lists: shard t owns live[t],
/// live[t + shards], ... Striding balances load when item difficulty
/// correlates with netlist position, and keeps every shard list in
/// ascending id order (the serial iteration order).
std::vector<std::vector<std::uint32_t>> StrideShards(
    const std::vector<std::uint32_t>& live, int shards);

/// Runs `kernel(shard_index)` once per shard on `shards` worker threads
/// (shard 0 runs on the calling thread). After all workers join, a single
/// failed shard rethrows its original exception (type intact, so the
/// campaign's error classification still sees it); multiple failures are
/// aggregated into one Error listing every failed shard index and message
/// — no shard's failure is ever silently dropped. The chaos site
/// `worker-throw` (common/chaos.h) is pre-drawn per shard on the calling
/// thread before workers spawn, keeping the injection schedule independent
/// of thread interleaving.
void RunOnShards(int shards, const std::function<void(int)>& kernel);

/// Throws DeadlineError when `options.cancel` is armed and expired. The
/// engine calls this after its workers join (and after the serial loop):
/// workers return early with partial shards on expiry, and this turns the
/// partial state into a clean abort instead of a wrong report.
inline void AbortIfCancelled(const FaultSimOptions& options) {
  if (options.cancel != nullptr && options.cancel->Expired()) {
    throw DeadlineError(options.cancel->cancel_requested()
                            ? "fault sim cancelled"
                            : "fault sim aborted: stage deadline exceeded");
  }
}

/// An empty report with first_detect / detection histogram / mask sized
/// for `num_faults` x `num_patterns`.
FaultSimResult InitFaultSimResult(std::size_t num_faults,
                                  std::size_t num_patterns);

/// Deterministic sharded merge (see the file comment for why this equals
/// the serial result exactly): shard fault ids are disjoint, so
/// first_detect / detected_mask scatter without conflicts and the
/// detection histograms sum.
void MergeShardResults(const std::vector<FaultSimResult>& shards,
                       FaultSimResult& out);

}  // namespace gpustl::fault
