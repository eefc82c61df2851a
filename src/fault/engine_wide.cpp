// The engine's one instantiation: Wide<4>, 256 patterns per block.
#include "fault/engine_wide.h"

namespace gpustl::fault::internal {

FaultSimResult RunStuckAtWide(const StuckAtRun& run) {
  return RunStuckAtWideT<4>(run);
}

FaultSimResult RunTransitionWide(const TransitionRun& run) {
  return RunTransitionWideT<4>(run);
}

}  // namespace gpustl::fault::internal
