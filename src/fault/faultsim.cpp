#include "fault/faultsim.h"

#include <optional>

#include "common/error.h"
#include "fault/collapse.h"
#include "fault/engine.h"
#include "fault/parallel.h"

namespace gpustl::fault {

using netlist::Netlist;
using netlist::PatternSet;

namespace internal {

SimPlan BuildSimPlan(const FaultCollapse* collapse, const BitVec* skip,
                     std::size_t num_faults) {
  SimPlan plan;
  plan.offsets.push_back(0);
  if (collapse == nullptr) {
    plan.members.reserve(num_faults);
    for (std::uint32_t i = 0; i < num_faults; ++i) {
      if (skip != nullptr && skip->Get(i)) continue;
      plan.members.push_back(i);
      plan.offsets.push_back(static_cast<std::uint32_t>(plan.members.size()));
    }
    return plan;
  }
  plan.members.reserve(collapse->members.size());
  for (std::size_t c = 0; c < collapse->num_classes(); ++c) {
    const std::size_t before = plan.members.size();
    for (std::uint32_t m : collapse->class_members(c)) {
      if (skip != nullptr && skip->Get(m)) continue;
      plan.members.push_back(m);
    }
    if (plan.members.size() > before) {
      plan.offsets.push_back(static_cast<std::uint32_t>(plan.members.size()));
    }
  }
  return plan;
}

}  // namespace internal

FaultSimResult RunFaultSim(const Netlist& nl, const PatternSet& patterns,
                           const std::vector<Fault>& faults, const BitVec* skip,
                           const FaultSimOptions& requested_options) {
  // $GPUSTL_NO_TRIM pins the untrimmed engine regardless of the caller's
  // toggles (fault/trim.h); everything below sees the effective options.
  FaultSimOptions options = requested_options;
  options.trim = EffectiveTrim(requested_options.trim);

  GPUSTL_ASSERT(nl.frozen(), "fault sim requires a frozen netlist");
  GPUSTL_ASSERT(nl.dffs().empty(),
                "fault sim supports combinational modules only");
  if (skip != nullptr) {
    GPUSTL_ASSERT(skip->size() == faults.size(), "skip mask size mismatch");
  }

  FaultCollapse local;
  const FaultCollapse* collapse = nullptr;
  if (options.collapse) {
    if (options.collapse_plan != nullptr) {
      GPUSTL_ASSERT(options.collapse_plan->num_faults == faults.size(),
                    "collapse plan does not match the fault list");
      collapse = options.collapse_plan;
    } else {
      local = BuildFaultCollapse(nl, faults);
      collapse = &local;
    }
  }
  const internal::SimPlan plan =
      internal::BuildSimPlan(collapse, skip, faults.size());

  // Good-machine blocks are simulated once and shared read-only by every
  // shard. Under warm-start they come from the cross-run cache instead —
  // together with the FFR stem-observability words — so runs over the same
  // (netlist, patterns) pair re-evaluate nothing.
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
    trim_plan = internal::BuildStuckAtTrimPlan(nl, patterns, faults, plan,
                                               good_blocks, options);
  }
  const internal::TrimContext trim{
      trim_plan.dedup || trim_plan.early_exit ? &trim_plan : nullptr,
      warm.stem_obs.get(), options.trim_counters};

  const FfrClassGroups groups =
      GroupClassesByFfr(nl, faults, plan.offsets, plan.members);
  return internal::RunStuckAtWide({nl, patterns, faults, plan, groups,
                                   good_blocks, options, trim});
}

double CoveragePercent(std::size_t detected, std::size_t total) {
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(detected) / static_cast<double>(total);
}

}  // namespace gpustl::fault
