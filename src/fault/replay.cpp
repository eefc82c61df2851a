#include "fault/replay.h"

#include "common/error.h"
#include "fault/parallel.h"

namespace gpustl::fault {

ReplayCounters& GlobalReplayCounters() {
  static ReplayCounters counters;
  return counters;
}

FaultSimResult ReplaySkipFromFull(const FaultSimResult& full,
                                  const BitVec& skip) {
  const std::size_t num_faults = full.first_detect.size();
  const std::size_t num_patterns = full.detects_per_pattern.size();
  if (skip.size() != num_faults || full.detected_mask.size() != num_faults) {
    throw Error("replay: full-result shape does not match the fault list");
  }
  for (const std::uint32_t fd : full.first_detect) {
    if (fd != FaultSimResult::kNotDetected && fd >= num_patterns) {
      throw Error("replay: full-result first detection past the patterns");
    }
  }
  GlobalReplayCounters().replays.fetch_add(1, std::memory_order_relaxed);

  FaultSimResult result = InitFaultSimResult(num_faults, num_patterns);
  for (std::size_t f = 0; f < num_faults; ++f) {
    const std::uint32_t fd = full.first_detect[f];
    if (fd == FaultSimResult::kNotDetected || skip.Get(f)) continue;
    result.first_detect[f] = fd;
    result.detected_mask.Set(f, true);
    ++result.num_detected;
    ++result.detects_per_pattern[fd];
  }
  return result;
}

}  // namespace gpustl::fault
