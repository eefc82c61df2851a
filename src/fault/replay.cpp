#include "fault/replay.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/error.h"
#include "fault/wide.h"

namespace gpustl::fault {

ReplayCounters& GlobalReplayCounters() {
  static ReplayCounters counters;
  return counters;
}

FaultSimResult ReplaySkipFromFull(const netlist::Netlist& nl,
                                  const std::vector<Fault>& faults,
                                  const FaultSimResult& full,
                                  const BitVec& skip,
                                  GoodBlockCache& good_blocks,
                                  const FaultSimOptions& options) {
  using W = internal::Wide<1>;
  const std::size_t num_faults = faults.size();
  const std::size_t num_patterns = full.detects_per_pattern.size();
  const std::size_t num_blocks = (num_patterns + 63) / 64;
  if (full.first_detect.size() != num_faults || skip.size() != num_faults ||
      full.activates_per_pattern.size() != num_patterns ||
      full.detected_mask.size() != num_faults ||
      good_blocks.num_blocks() != num_blocks) {
    throw Error("replay: full-result shape does not match the fault list");
  }
  for (const std::uint32_t fd : full.first_detect) {
    if (fd != FaultSimResult::kNotDetected && fd >= num_patterns) {
      throw Error("replay: full-result first detection past the patterns");
    }
  }

  ReplayCounters& counters = GlobalReplayCounters();
  counters.replays.fetch_add(1, std::memory_order_relaxed);

  // Nothing skipped: the dropped run with an empty mask excludes no fault,
  // so it IS the full-list run. The first PTP on each module asks for this.
  if (skip.FindFirstSet() == BitVec::npos) {
    counters.replayed_faults.fetch_add(num_faults, std::memory_order_relaxed);
    AbortIfCancelled(options);
    return full;
  }

  FaultSimResult result = InitFaultSimResult(num_faults, num_patterns);

  // One record per unskipped fault: the activation word ingredients and the
  // block at whose end the fault drops (the engine counts a fault's
  // activation through its detection block inclusive, then removes it).
  struct LiveFault {
    netlist::NetId site = 0;
    std::uint64_t stuck = 0;
    std::uint32_t det_block = 0;
  };
  constexpr std::uint32_t kNeverDrops = UINT32_MAX;
  std::vector<LiveFault> live;
  live.reserve(num_faults);
  for (std::size_t f = 0; f < num_faults; ++f) {
    if (skip.Get(f)) continue;
    const Fault& fault = faults[f];
    LiveFault lf;
    lf.site = fault.pin == Fault::kOutputPin
                  ? fault.gate
                  : nl.gate(fault.gate).fanin[fault.pin];
    lf.stuck = fault.sa1 ? ~0ull : 0ull;
    const std::uint32_t fd = full.first_detect[f];
    if (fd != FaultSimResult::kNotDetected) {
      // Detection accounting is skip-independent (see replay.h): scatter
      // the full run's first_detect and count one first detection per
      // surviving fault at that pattern (the engine adds the class member
      // count at the class's shared first pattern — same sum).
      result.first_detect[f] = fd;
      result.detected_mask.Set(f, true);
      ++result.num_detected;
      result.detects_per_pattern[fd] += 1;
      lf.det_block = fd / 64;
    } else {
      lf.det_block = kNeverDrops;
    }
    live.push_back(lf);
  }

  counters.replayed_faults.fetch_add(live.size(), std::memory_order_relaxed);
  if (live.empty()) return result;

  // Latest drop first: the faults live in block bi (det_block >= bi) are
  // then a prefix of `live` that only shrinks as bi grows. Nothing is live
  // after the latest detection block, so later good blocks are never built.
  std::stable_sort(live.begin(), live.end(),
                   [](const LiveFault& a, const LiveFault& b) {
                     return a.det_block > b.det_block;
                   });
  const std::size_t active_blocks = std::min<std::size_t>(
      num_blocks, std::size_t{live.front().det_block} + 1);

  // Block bi's activation slice is written by exactly one shard (blocks are
  // strided over shards), so no merge is needed and the result does not
  // depend on the thread count.
  const int threads = ResolveNumThreads(options.num_threads, active_blocks);
  const auto shard = [&](int t) {
    internal::WideCounterPlanes<1> planes;
    std::size_t n = live.size();
    for (std::size_t bi = static_cast<std::size_t>(t); bi < active_blocks;
         bi += static_cast<std::size_t>(threads)) {
      if (options.cancel != nullptr && options.cancel->Expired()) return;
      while (n > 0 && live[n - 1].det_block < bi) --n;
      const GoodBlockCache::Block& block = good_blocks.Get(bi);
      const std::uint64_t valid =
          block.count >= 64 ? ~0ull : ((1ull << block.count) - 1);
      const std::uint64_t* good = block.values.data();
      for (std::size_t i = 0; i < n; ++i) {
        planes.Add(W{{(good[live[i].site] ^ live[i].stuck) & valid}});
      }
      planes.ExpandInto(&result.activates_per_pattern[bi * 64]);
    }
  };
  if (threads <= 1) {
    shard(0);
  } else {
    RunOnShards(threads, shard);
  }
  AbortIfCancelled(options);
  return result;
}

}  // namespace gpustl::fault
