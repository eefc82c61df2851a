#include "tests/reference_sim.h"

#include <algorithm>
#include <cstdint>

#include "netlist/cell.h"
#include "netlist/logicsim.h"

namespace gpustl::fault {

using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

namespace {

/// Output difference word of fault `f` (its site forced to the stuck value)
/// under one block whose good net values are `good`. `faulty` must equal `good`
/// on entry and does again on return; `in_cone` is all-zero scratch.
std::uint64_t OutputDiff(const Netlist& nl,
                         const std::vector<std::uint64_t>& good,
                         std::vector<std::uint64_t>& faulty,
                         std::vector<char>& in_cone, const Fault& f) {
  // The faulted gate and every gate it reaches.
  std::vector<NetId> cone{f.gate};
  in_cone[f.gate] = 1;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    for (const NetId fo : nl.fanout(cone[i])) {
      if (in_cone[fo] == 0) {
        in_cone[fo] = 1;
        cone.push_back(fo);
      }
    }
  }
  // A gate only reads nets added before it, so ascending id is topological.
  std::sort(cone.begin(), cone.end());

  const std::uint64_t stuck = f.sa1 ? ~0ull : 0ull;
  for (const NetId id : cone) {
    in_cone[id] = 0;
    if (id == f.gate && f.pin == Fault::kOutputPin) {
      faulty[id] = stuck;
      continue;
    }
    const Gate& g = nl.gate(id);
    std::uint64_t in[netlist::kMaxFanin];
    for (int i = 0; i < g.fanin_count(); ++i) in[i] = faulty[g.fanin[i]];
    if (id == f.gate) in[f.pin] = stuck;
    faulty[id] = netlist::EvalCell(g.type, in);
  }

  std::uint64_t diff = 0;
  for (const NetId o : nl.outputs()) diff |= faulty[o] ^ good[o];
  for (const NetId id : cone) faulty[id] = good[id];
  return diff;
}

FaultSimResult Simulate(const Netlist& nl, const PatternSet& patterns,
                        const std::vector<Fault>& faults, const BitVec* skip,
                        bool drop_detected, bool transition) {
  FaultSimResult r;
  r.first_detect.assign(faults.size(), FaultSimResult::kNotDetected);
  r.detects_per_pattern.assign(patterns.size(), 0);
  r.activates_per_pattern.assign(patterns.size(), 0);
  r.detected_mask = BitVec(faults.size(), false);

  // Transition launch history: the site value under the previous pattern.
  // It starts at the capture value, so pattern 0 never launches.
  std::vector<std::uint64_t> prev_site(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    prev_site[fi] = faults[fi].sa1 ? 0 : 1;
  }
  std::vector<char> dropped(faults.size(), 0);

  netlist::BitSimulator sim(nl);
  std::vector<char> in_cone(nl.gate_count(), 0);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const int count = sim.LoadBlock(patterns, base);
    sim.Eval();
    const std::vector<std::uint64_t>& good = sim.values();
    std::vector<std::uint64_t> faulty = good;
    const std::uint64_t valid = count == 64 ? ~0ull : (1ull << count) - 1;

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if ((skip != nullptr && skip->Get(fi)) || dropped[fi] != 0) continue;
      const Fault& f = faults[fi];
      const NetId site =
          f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
      const std::uint64_t stuck = f.sa1 ? ~0ull : 0ull;
      std::uint64_t act = (good[site] ^ stuck) & valid;
      if (transition) {
        // The launch pattern must hold the site at the initial value, which
        // is the capture-time stuck value.
        const std::uint64_t launch = (good[site] << 1) | prev_site[fi];
        prev_site[fi] = (good[site] >> (count - 1)) & 1;
        act &= f.sa1 ? launch : ~launch;
      }
      for (std::uint64_t bits = act; bits != 0; bits &= bits - 1) {
        ++r.activates_per_pattern[base + LowestSetBit(bits)];
      }
      if (act == 0) continue;

      const std::uint64_t diff = OutputDiff(nl, good, faulty, in_cone, f) & act;
      if (diff == 0) continue;
      const std::size_t first = base + LowestSetBit(diff);
      if (r.first_detect[fi] == FaultSimResult::kNotDetected) {
        r.first_detect[fi] = static_cast<std::uint32_t>(first);
        r.detected_mask.Set(fi, true);
        ++r.num_detected;
      }
      if (drop_detected) {
        ++r.detects_per_pattern[first];
        dropped[fi] = 1;
      } else {
        for (std::uint64_t bits = diff; bits != 0; bits &= bits - 1) {
          ++r.detects_per_pattern[base + LowestSetBit(bits)];
        }
      }
    }
  }
  return r;
}

}  // namespace

FaultSimResult ReferenceFaultSim(const Netlist& nl, const PatternSet& patterns,
                                 const std::vector<Fault>& faults,
                                 const BitVec* skip, bool drop_detected) {
  return Simulate(nl, patterns, faults, skip, drop_detected, false);
}

FaultSimResult ReferenceTransitionFaultSim(const Netlist& nl,
                                           const PatternSet& patterns,
                                           const std::vector<Fault>& faults,
                                           const BitVec* skip,
                                           bool drop_detected) {
  return Simulate(nl, patterns, faults, skip, drop_detected, true);
}

bool SameFaultSimResult(const FaultSimResult& a, const FaultSimResult& b) {
  return a.first_detect == b.first_detect &&
         a.detects_per_pattern == b.detects_per_pattern &&
         a.activates_per_pattern == b.activates_per_pattern &&
         a.num_detected == b.num_detected && a.detected_mask == b.detected_mask;
}

}  // namespace gpustl::fault
