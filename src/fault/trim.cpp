// Trim-plan construction (fault/trim.h, fault/engine.h):
//
//  * block fingerprints + repeat map for pattern-block dedup. The
//    fingerprint of a 64-pattern block hashes its pattern count and its
//    input bits MASKED to the inputs that structurally reach (a) any live
//    fault site or (b) any output in a live leader's output cone. Both the
//    activation word of a fault (a function of its site net's good value)
//    and its detection word (its output diff, confined to
//    OutputCone(site gate)) are functions of exactly those inputs, so blocks with equal
//    fingerprints have equal activation and detection words for every
//    fault of the run: replaying the cached detection words is exact, not
//    heuristic.
//  * the early-exit prepass: per site net, the last block holding a 0 / a
//    1 (stuck-at) or a falling / rising launch-capture pair (transition,
//    with the engines' exact cross-block carry semantics), folded into a
//    per-class / per-fault last-activating-block bound. diff ⊆ activation
//    pointwise in both models, so a class past its bound contributes
//    nothing — no detections — to any later block.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "fault/engine.h"
#include "fault/trim.h"

namespace gpustl::fault {

TrimOptions EffectiveTrim(const TrimOptions& requested) {
  if (const char* env = std::getenv("GPUSTL_NO_TRIM");
      env != nullptr && env[0] != '\0' && std::string_view(env) != "0") {
    return NoTrim();
  }
  return requested;
}

std::string TrimModeName(const TrimOptions& trim) {
  if (!trim.any()) return "off";
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += '+';
    out += name;
  };
  if (trim.dedup_blocks) add("dedup");
  if (trim.early_exit) add("early-exit");
  if (trim.warm_start) add("warm-start");
  return out;
}

namespace internal {
namespace {

using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

NetId SiteNet(const Netlist& nl, const Fault& f) {
  return f.pin == Fault::kOutputPin ? f.gate : nl.gate(f.gate).fanin[f.pin];
}

/// Marks, over the net id space, everything that matters to the run's
/// activation/detection words: the site nets themselves plus every output
/// net in the leaders' output cones.
std::vector<char> CollectSeeds(const Netlist& nl,
                               const std::vector<NetId>& site_nets,
                               const std::vector<NetId>& leader_gates) {
  std::vector<char> seed(nl.gate_count(), 0);
  for (const NetId n : site_nets) seed[n] = 1;

  const std::size_t cone_words = nl.cone_words();
  std::vector<std::uint64_t> cone_union(cone_words, 0);
  for (const NetId g : leader_gates) {
    const std::uint64_t* cone = nl.OutputCone(g);
    for (std::size_t w = 0; w < cone_words; ++w) cone_union[w] |= cone[w];
  }
  const auto& outputs = nl.outputs();
  for (std::size_t w = 0; w < cone_words; ++w) {
    for (std::uint64_t bits = cone_union[w]; bits != 0; bits &= bits - 1) {
      const std::size_t k = w * 64 + static_cast<std::size_t>(LowestSetBit(bits));
      if (k < outputs.size()) seed[outputs[k]] = 1;
    }
  }
  return seed;
}

/// Backward structural closure from the seeds over gate fanins, projected
/// onto the primary inputs: a bitmask (words_per_pattern words, input-index
/// space) of the inputs any seed net depends on. Forcing nets (the faulty
/// machine) only REMOVES input dependencies, so the mask bounds the faulty
/// outputs' support as well.
std::vector<std::uint64_t> RelevantInputMask(const Netlist& nl,
                                             std::vector<char> reached,
                                             std::size_t mask_words) {
  std::vector<NetId> stack;
  for (NetId n = 0; n < static_cast<NetId>(nl.gate_count()); ++n) {
    if (reached[n]) stack.push_back(n);
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    const Gate& g = nl.gate(n);
    for (int i = 0; i < g.fanin_count(); ++i) {
      const NetId f = g.fanin[i];
      if (!reached[f]) {
        reached[f] = 1;
        stack.push_back(f);
      }
    }
  }
  std::vector<std::uint64_t> mask(mask_words, 0);
  const auto& inputs = nl.inputs();
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    if (reached[inputs[j]]) mask[j / 64] |= 1ull << (j % 64);
  }
  return mask;
}

/// Fingerprints every 64-pattern block over the masked input bits and
/// fills repeat_of / has_repeat.
void FillRepeats(const PatternSet& patterns,
                 const std::vector<std::uint64_t>& mask, TrimPlan& tp) {
  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  tp.repeat_of.resize(num_blocks);
  tp.has_repeat.assign(num_blocks, 0);
  const std::size_t words = patterns.words_per_pattern();
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> first_seen;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t begin = b * 64;
    const std::size_t end = std::min(patterns.size(), begin + 64);
    Hasher128 h;
    h.AddU64(end - begin);
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint64_t* row = patterns.Row(p);
      for (std::size_t w = 0; w < words; ++w) h.AddU64(row[w] & mask[w]);
    }
    const Hash128 fp = h.Finish();
    const auto [it, inserted] =
        first_seen.emplace(std::make_pair(fp.lo, fp.hi),
                           static_cast<std::uint32_t>(b));
    tp.repeat_of[b] = it->second;
    if (!inserted) tp.has_repeat[it->second] = 1;
  }
}

std::uint64_t ValidMask(int count) {
  return count >= 64 ? ~0ull : ((1ull << count) - 1);
}

}  // namespace

TrimPlan BuildStuckAtTrimPlan(const Netlist& nl, const PatternSet& patterns,
                              const std::vector<Fault>& faults,
                              const SimPlan& plan, GoodBlockCache& good_blocks,
                              const FaultSimOptions& options) {
  TrimPlan tp;
  tp.dedup = options.trim.dedup_blocks;
  tp.early_exit = options.trim.early_exit;
  if (!tp.dedup && !tp.early_exit) return tp;

  // Site nets of every simulated member; leader gates for the cone union.
  std::vector<NetId> site_nets;
  site_nets.reserve(plan.members.size());
  std::vector<NetId> leader_gates;
  leader_gates.reserve(plan.num_classes());
  for (std::size_t c = 0; c < plan.num_classes(); ++c) {
    leader_gates.push_back(faults[plan.members[plan.offsets[c]]].gate);
    for (std::uint32_t mi = plan.offsets[c]; mi < plan.offsets[c + 1]; ++mi) {
      site_nets.push_back(SiteNet(nl, faults[plan.members[mi]]));
    }
  }

  if (tp.dedup) {
    FillRepeats(patterns,
                RelevantInputMask(nl, CollectSeeds(nl, site_nets, leader_gates),
                                  patterns.words_per_pattern()),
                tp);
  }

  if (tp.early_exit) {
    const std::size_t num_blocks = (patterns.size() + 63) / 64;
    tp.last_act.assign(plan.num_classes(), -1);
    // Distinct site nets (a net may host several faults).
    std::vector<char> is_site(nl.gate_count(), 0);
    std::vector<NetId> sites;
    for (const NetId n : site_nets) {
      if (!is_site[n]) {
        is_site[n] = 1;
        sites.push_back(n);
      }
    }
    std::vector<std::int64_t> last_zero(nl.gate_count(), -1);
    std::vector<std::int64_t> last_one(nl.gate_count(), -1);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (options.cancel != nullptr && options.cancel->Expired()) {
        // Disarm rather than return a partial table; the engine's own
        // poll aborts the run cleanly right after.
        tp.early_exit = false;
        return tp;
      }
      // With dedup on, repeated blocks share the first occurrence's good
      // values — same contents, evaluated once.
      const GoodBlockCache::Block& blk =
          good_blocks.Get(tp.dedup ? tp.repeat_of[b] : b);
      const std::uint64_t valid = ValidMask(blk.count);
      for (const NetId n : sites) {
        const std::uint64_t v = blk.values[n];
        if ((~v) & valid) last_zero[n] = static_cast<std::int64_t>(b);
        if (v & valid) last_one[n] = static_cast<std::int64_t>(b);
      }
    }
    for (std::size_t c = 0; c < plan.num_classes(); ++c) {
      std::int64_t last = -1;
      for (std::uint32_t mi = plan.offsets[c]; mi < plan.offsets[c + 1];
           ++mi) {
        const Fault& f = faults[plan.members[mi]];
        const NetId n = SiteNet(nl, f);
        // sa1 activates where the good value is 0, sa0 where it is 1.
        last = std::max(last, f.sa1 ? last_zero[n] : last_one[n]);
      }
      tp.last_act[c] = last;
    }
  }
  return tp;
}

TrimPlan BuildTransitionTrimPlan(const Netlist& nl, const PatternSet& patterns,
                                 const std::vector<TransitionFault>& faults,
                                 const std::vector<std::uint32_t>& live,
                                 GoodBlockCache& good_blocks,
                                 const FaultSimOptions& options) {
  TrimPlan tp;
  tp.dedup = options.trim.dedup_blocks;
  tp.early_exit = options.trim.early_exit;
  if (!tp.dedup && !tp.early_exit) return tp;

  std::vector<NetId> site_nets;
  site_nets.reserve(live.size());
  std::vector<NetId> fault_gates;
  fault_gates.reserve(live.size());
  for (const std::uint32_t fi : live) {
    site_nets.push_back(SiteNet(nl, faults[fi]));
    fault_gates.push_back(faults[fi].gate);
  }

  if (tp.dedup) {
    // NOTE the carry seam: a repeated block's activation word still
    // depends on the site value carried in from the previous block. The
    // engines guard every replay with a per-fault carry-in comparison and
    // recompute on mismatch, so the fingerprint itself stays purely
    // per-block.
    FillRepeats(patterns,
                RelevantInputMask(nl, CollectSeeds(nl, site_nets, fault_gates),
                                  patterns.words_per_pattern()),
                tp);
  }

  if (tp.early_exit) {
    const std::size_t num_blocks = (patterns.size() + 63) / 64;
    tp.last_act.assign(faults.size(), -1);
    std::vector<char> is_site(nl.gate_count(), 0);
    std::vector<NetId> sites;
    for (const NetId n : site_nets) {
      if (!is_site[n]) {
        is_site[n] = 1;
        sites.push_back(n);
      }
    }
    // Last block with a rising / falling launch-capture pair per site net.
    // Pattern 0 has no launch vector; the engines model that as a carry-in
    // equal to the capture-side stuck value (sa1 → 0? no: prev = !init),
    // which suppresses pattern 0 exactly when the polarity matches — so
    // block 0 uses carry 1 for rises (STR can't fire at pattern 0) and
    // carry 0 for falls (STF can't either).
    std::vector<std::int64_t> last_rise(nl.gate_count(), -1);
    std::vector<std::int64_t> last_fall(nl.gate_count(), -1);
    std::vector<char> prev_bit(nl.gate_count(), 0);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (options.cancel != nullptr && options.cancel->Expired()) {
        tp.early_exit = false;
        return tp;
      }
      const GoodBlockCache::Block& blk =
          good_blocks.Get(tp.dedup ? tp.repeat_of[b] : b);
      const int count = blk.count;
      const std::uint64_t valid = ValidMask(count);
      for (const NetId n : sites) {
        const std::uint64_t v = blk.values[n];
        const std::uint64_t carry_rise =
            b == 0 ? 1 : static_cast<std::uint64_t>(prev_bit[n]);
        const std::uint64_t carry_fall =
            b == 0 ? 0 : static_cast<std::uint64_t>(prev_bit[n]);
        const std::uint64_t rise = v & ~((v << 1) | carry_rise) & valid;
        const std::uint64_t fall = ~v & ((v << 1) | carry_fall) & valid;
        if (rise != 0) last_rise[n] = static_cast<std::int64_t>(b);
        if (fall != 0) last_fall[n] = static_cast<std::int64_t>(b);
        prev_bit[n] = static_cast<char>((v >> (count - 1)) & 1);
      }
    }
    for (const std::uint32_t fi : live) {
      const TransitionFault& f = faults[fi];
      const NetId n = SiteNet(nl, f);
      // sa1 = slow-to-fall (launch 1, capture 0); sa0 = slow-to-rise.
      tp.last_act[fi] = f.sa1 ? last_fall[n] : last_rise[n];
    }
  }
  return tp;
}

}  // namespace internal
}  // namespace gpustl::fault
