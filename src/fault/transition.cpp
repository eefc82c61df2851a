#include "fault/transition.h"

#include <optional>

#include "common/error.h"
#include "fault/engine.h"
#include "fault/parallel.h"

namespace gpustl::fault {

using netlist::Netlist;
using netlist::PatternSet;

std::vector<TransitionFault> TransitionFaultList(const Netlist& nl) {
  // Same collapsed sites as the stuck-at list; SA0 representative == STR,
  // SA1 == STF.
  return CollapsedFaultList(nl);
}

FaultSimResult RunTransitionFaultSim(const Netlist& nl,
                                     const PatternSet& patterns,
                                     const std::vector<TransitionFault>& faults,
                                     const BitVec* skip,
                                     const FaultSimOptions& requested_options) {
  // $GPUSTL_NO_TRIM pins the untrimmed engine regardless of the caller's
  // toggles (fault/trim.h); everything below sees the effective options.
  FaultSimOptions options = requested_options;
  options.trim = EffectiveTrim(requested_options.trim);

  GPUSTL_ASSERT(nl.frozen(), "transition sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "transition sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }

  std::vector<std::uint32_t> live;
  live.reserve(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    if (skip == nullptr || !skip->Get(i)) live.push_back(i);
  }

  // Shared good-machine blocks: from the cross-run warm cache when armed,
  // else created per run (see RunFaultSim for the layering).
  WarmStartCache::Shared warm;
  std::optional<GoodBlockCache> local_good;
  if (options.trim.warm_start && options.warm_cache != nullptr) {
    warm = options.warm_cache->Acquire(nl, patterns, options.trim_counters);
  } else {
    local_good.emplace(nl, patterns);
  }
  GoodBlockCache& good_blocks = warm.good != nullptr ? *warm.good : *local_good;

  internal::TrimPlan trim_plan;
  if (options.trim.dedup_blocks || options.trim.early_exit) {
    trim_plan = internal::BuildTransitionTrimPlan(nl, patterns, faults, live,
                                                  good_blocks, options);
  }
  // No stem-observability reuse here: the transition engine is per-fault
  // and never runs the FFR stem propagation.
  const internal::TrimContext trim{
      trim_plan.dedup || trim_plan.early_exit ? &trim_plan : nullptr, nullptr,
      options.trim_counters};

  return internal::RunTransitionWide(
      {nl, patterns, faults, live, good_blocks, options, trim});
}

}  // namespace gpustl::fault
