// The PPSFP fault-simulation engine, over Wide<L> bundles (64*L patterns
// per propagation block; engine_wide.cpp instantiates it at L = 4). Stuck-at
// faults run FFR-clustered: per block, one backward critical-path trace
// and one stem propagation per fanout-free region. Transition faults run
// one event-driven propagation per fault, because their launch condition
// is per-fault history.
//
// The result must equal the reference simulator's (tests/reference_sim.h)
// bit for bit. Detection words are per-pattern functions, so the block
// width cannot change them. Under dropping only the earliest detecting
// lane of a wide block is accounted (Wide::FirstSetBit): a class that
// drops in lane s records its first detection there and leaves the live
// list after the block, which is exactly where a 64-pattern engine would
// have recorded it, so the later lanes it was still simulated on
// contribute nothing. The transition engine's launch-history carry is the
// other width seam: Wide::ShiftLeftOneCarry chains it through lane
// boundaries exactly as it chains across blocks.
//
// Internal header — include from engine_wide.cpp only.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/engine.h"
#include "fault/wide.h"

namespace gpustl::fault::internal {
namespace {

/// Shared good-machine bundles of one run: the SoA transpose of L
/// consecutive GoodBlockCache blocks per net. Built lazily in block order
/// and shared read-only by every shard, exactly like the base cache (the
/// base stays authoritative — a transpose is cheap next to simulating the
/// block, and reusing it keeps good-value computation in one place).
template <int L>
class WideGoodCache {
 public:
  struct Block {
    int count = 0;  // patterns in this wide block (0 = past the end)
    std::vector<Wide<L>> values;  // good bundle per net
  };

  /// `trim` (nullable): with block dedup on, every 64-pattern sub-block reads
  /// its dedup source's values instead — bit-identical on every net that
  /// can influence this run's report (the fingerprint guarantee), so
  /// repeated sub-blocks are never re-simulated even when the surrounding
  /// wide blocks differ.
  WideGoodCache(GoodBlockCache& base, const TrimPlan* trim)
      : base_(base),
        trim_(trim != nullptr && trim->dedup ? trim : nullptr) {}

  /// Wide block `index` (patterns [64*L*index, 64*L*index + count)).
  /// Thread-safe with the same deque-never-moves-settled-elements contract
  /// as GoodBlockCache::Get.
  const Block& Get(std::size_t index) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (blocks_.size() <= index) {
      Block wb;
      const std::size_t sub0 = blocks_.size() * L;
      const GoodBlockCache::Block* subs[L];
      for (int k = 0; k < L; ++k) {
        std::size_t sub = sub0 + static_cast<std::size_t>(k);
        if (trim_ != nullptr && sub < trim_->repeat_of.size()) {
          sub = trim_->repeat_of[sub];
        }
        subs[k] = &base_.Get(sub);
        wb.count += subs[k]->count;
      }
      if (wb.count > 0) {
        // Blocks are sequential, so a non-empty wide block has a non-empty
        // first sub-block; trailing empty sub-blocks leave zero lanes that
        // ValidMask(count) excludes anyway.
        const std::size_t nets = subs[0]->values.size();
        wb.values.assign(nets, Wide<L>::Zeros());
        for (int k = 0; k < L; ++k) {
          if (subs[k]->count == 0) continue;
          for (std::size_t net = 0; net < nets; ++net) {
            wb.values[net].lane[k] = subs[k]->values[net];
          }
        }
      }
      blocks_.push_back(std::move(wb));
    }
    return blocks_[index];
  }

 private:
  std::mutex mu_;
  GoodBlockCache& base_;
  const TrimPlan* trim_;
  std::deque<Block> blocks_;
};

/// Wide-block dedup map derived from the 64-pattern TrimPlan: wide block J
/// repeats J' when every 64-pattern sub-block of J dedups to the same source
/// as the corresponding sub-block of J' (UINT32_MAX marks sub-blocks past
/// the pattern set, so partial tails only match partial tails). Equal
/// tuples mean every lane reads literally the same good values — the
/// captured detection bundles replay exactly.
template <int L>
struct WideTrim {
  bool dedup = false;
  std::vector<std::uint32_t> repeat_of;  // per wide block; self if first
  std::vector<char> has_repeat;
};

template <int L>
WideTrim<L> BuildWideTrim(const TrimPlan* tp, std::size_t num_patterns) {
  WideTrim<L> wt;
  if (tp == nullptr || !tp->dedup) return wt;
  wt.dedup = true;
  const std::size_t num_sub_blocks = (num_patterns + 63) / 64;
  const std::size_t wide_nb = (num_patterns + 64 * L - 1) / (64 * L);
  wt.repeat_of.resize(wide_nb);
  wt.has_repeat.assign(wide_nb, 0);
  std::map<std::array<std::uint32_t, L>, std::uint32_t> first_seen;
  for (std::size_t j = 0; j < wide_nb; ++j) {
    std::array<std::uint32_t, L> key;
    for (int k = 0; k < L; ++k) {
      const std::size_t sub = j * L + static_cast<std::size_t>(k);
      key[static_cast<std::size_t>(k)] =
          sub < num_sub_blocks ? tp->repeat_of[sub] : UINT32_MAX;
    }
    const auto [it, inserted] =
        first_seen.emplace(key, static_cast<std::uint32_t>(j));
    wt.repeat_of[j] = it->second;
    if (!inserted) wt.has_repeat[it->second] = 1;
  }
  return wt;
}

/// Per-shard replay storage for one deduped wide source block (its
/// detection bundles). Zero-filled on creation.
template <int L>
struct WideReplayEntry {
  std::vector<Wide<L>> diffs;
  // Transition only: per-fault launch carry the bundle was captured under,
  // and the carry-out it produces.
  std::vector<std::uint8_t> carry_in;
  std::vector<std::uint8_t> last_bit;
};

/// Class-list early-exit at wide granularity: a class whose last
/// activating 64-pattern block precedes this wide block's first sub-block is
/// settled for the rest of the run.
inline void EarlyExitFilterWide(const TrimPlan* tp, const SimPlan& plan,
                                std::size_t first_sub, TrimCounters* counters,
                                std::vector<std::uint32_t>& live) {
  if (tp == nullptr || !tp->early_exit) return;
  std::uint64_t exited = 0;
  std::size_t w = 0;
  for (const std::uint32_t ci : live) {
    if (tp->last_act[ci] >= static_cast<std::int64_t>(first_sub)) {
      live[w++] = ci;
    } else {
      exited += plan.offsets[ci + 1] - plan.offsets[ci];
    }
  }
  if (exited == 0) return;
  live.resize(w);
  if (counters != nullptr) {
    counters->faults_early_exited.fetch_add(exited, std::memory_order_relaxed);
  }
}

/// Single-fault event-driven propagation over Wide<L> values: copy-on-write
/// faulty bundles with epoch stamps (no per-fault clearing) and a
/// level-bucket event queue, so gates are evaluated in level order, each at
/// most once. Events that leave the output cone are not enqueued: every
/// frontier net is reachable from the seed, so "reaches some output" is
/// "reaches an output of the seed's cone".
template <int L>
class WidePropagator {
 public:
  using W = Wide<L>;

  explicit WidePropagator(const netlist::Netlist& nl)
      : nl_(nl),
        fval_(nl.gate_count(), W::Zeros()),
        touched_epoch_(nl.gate_count(), 0),
        queued_epoch_(nl.gate_count(), 0),
        buckets_(static_cast<std::size_t>(nl.max_level()) + 1) {}

  /// Sets net `seed` to `value` against the good machine `good`, propagates
  /// the change and returns the output difference bundle (faulty ^ good,
  /// OR-ed over the outputs of `seed`'s cone).
  W OutputDiff(const std::vector<W>& good, netlist::NetId seed,
               const W& value) {
    ++epoch_;
    lo_ = UINT32_MAX;
    hi_ = 0;
    SetFaulty(seed, value);
    for (std::uint32_t lvl = lo_; lo_ != UINT32_MAX && lvl <= hi_; ++lvl) {
      std::vector<netlist::NetId>& bucket = buckets_[lvl];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const netlist::Gate& g = nl_.gate(bucket[i]);
        W in[netlist::kMaxFanin];
        for (int k = 0; k < g.fanin_count(); ++k) {
          const netlist::NetId src = g.fanin[k];
          in[k] = touched_epoch_[src] == epoch_ ? fval_[src] : good[src];
        }
        const W out = EvalCellWide(g.type, in);
        if (out != good[bucket[i]]) SetFaulty(bucket[i], out);
      }
      bucket.clear();
    }

    W diff = W::Zeros();
    const std::uint64_t* cone = nl_.OutputCone(seed);
    for (std::size_t cw = 0; cw < nl_.cone_words(); ++cw) {
      for (std::uint64_t bits = cone[cw]; bits != 0; bits &= bits - 1) {
        const std::size_t k = cw * 64 + static_cast<std::size_t>(
                                            LowestSetBit(bits));
        const netlist::NetId o = nl_.outputs()[k];
        if (touched_epoch_[o] == epoch_) diff |= fval_[o] ^ good[o];
      }
    }
    return diff;
  }

 private:
  void SetFaulty(netlist::NetId net, const W& value) {
    fval_[net] = value;
    touched_epoch_[net] = epoch_;
    for (const netlist::NetId fo : nl_.fanout(net)) {
      if (!nl_.ReachesOutput(fo) || queued_epoch_[fo] == epoch_) continue;
      queued_epoch_[fo] = epoch_;
      const std::uint32_t lvl = nl_.levels()[fo];
      buckets_[lvl].push_back(fo);
      if (lvl < lo_) lo_ = lvl;
      if (lvl > hi_) hi_ = lvl;
    }
  }

  const netlist::Netlist& nl_;
  std::vector<W> fval_;
  std::vector<std::uint32_t> touched_epoch_;
  std::vector<std::uint32_t> queued_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<std::vector<netlist::NetId>> buckets_;
  std::uint32_t lo_ = 0;
  std::uint32_t hi_ = 0;
};

/// The FFR-clustered stuck-at loop over one shard of FFR-group indices
/// (ascending; a group = every live class whose sites sit in one
/// fanout-free region, see GroupClassesByFfr). Per wide block, each region
/// runs:
///
///  1. per-class leader activation bundles;
///  2. one backward critical-path trace over the region's good bundles: for
///     every member net, the patterns on which a value change there
///     reaches the region's stem. Exact, because an FFR has no
///     reconvergence — each internal net feeds exactly one pin, so the
///     chain of lane-wise pin sensitizations to the stem is unique;
///  3. per-class site-to-stem bundles, from the class leader (one faulty
///     function per class, so one bundle serves every member);
///  4. ONE stem propagation (faulty stem = ~good) whose output diff is the
///     stem's observability — lane-independent cell evaluation makes the
///     all-lanes flip valid for every subset of lanes, so it is shared by
///     every class of the region;
///  5. per-class detection = leader activation & site-to-stem observability
///     & stem observability: the faulty machine differs from the good one
///     beyond the stem exactly on the lanes where the effect reaches the
///     stem, and there it looks like the good machine with the stem
///     complemented. Then detection accounting, and under dropping the
///     detected classes leave the region's live list.
///
/// Steps 2-5 are skipped when no live class activates, and step 4 when
/// every activated effect dies inside the region.
template <int L>
void SimulateFfrShardWide(const StuckAtRun& run, const WideTrim<L>& wtrim,
                          const std::vector<std::uint32_t>& shard_groups,
                          WideGoodCache<L>& wide_blocks,
                          FaultSimResult& result) {
  using W = Wide<L>;
  using netlist::Gate;
  using netlist::NetId;

  const netlist::Netlist& nl = run.nl;
  const SimPlan& plan = run.plan;
  const std::vector<Fault>& faults = run.faults;
  const FfrClassGroups& groups = run.groups;
  const TrimPlan* tp = run.trim.plan;
  TrimCounters* counters = run.trim.counters;
  const std::size_t num_sub_blocks = (run.patterns.size() + 63) / 64;
  std::unordered_map<std::uint32_t, WideReplayEntry<L>> replay;

  WidePropagator<L> prop(nl);

  std::vector<W> obs(nl.gate_count(), W::Zeros());
  std::vector<W> leader_act;
  std::vector<W> stem_local;
  std::vector<W> class_diff;  // per class; detection bundle of this block
  WideCounterPlanes<L> det_counts;

  struct FfrWork {
    NetId stem;
    std::uint32_t ffr;
    std::vector<std::uint32_t> classes;
  };
  std::vector<FfrWork> work;
  work.reserve(shard_groups.size());
  for (const std::uint32_t gi : shard_groups) {
    const std::span<const std::uint32_t> cls = groups.group_classes(gi);
    work.push_back(
        FfrWork{groups.stems[gi], groups.ffrs[gi], {cls.begin(), cls.end()}});
  }

  for (std::size_t base = 0; base < run.patterns.size(); base += 64 * L) {
    if (work.empty()) break;
    if (run.options.cancel != nullptr && run.options.cancel->Expired()) return;
    const std::size_t wbi = base / (64 * L);

    const WideReplayEntry<L>* load = nullptr;
    WideReplayEntry<L>* store = nullptr;
    std::size_t wsrc = wbi;
    if (wtrim.dedup) {
      wsrc = wtrim.repeat_of[wbi];
      if (wsrc != wbi) {
        load = &replay.at(static_cast<std::uint32_t>(wsrc));
        if (counters != nullptr) {
          counters->blocks_replayed.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (wtrim.has_repeat[wbi] != 0) {
        WideReplayEntry<L>& e = replay[static_cast<std::uint32_t>(wsrc)];
        e.diffs.assign(plan.num_classes(), W::Zeros());
        store = &e;
      }
    }

    const typename WideGoodCache<L>::Block& block = wide_blocks.Get(wsrc);
    if (block.count == 0) break;
    const W valid = W::ValidMask(block.count);
    const std::vector<W>& good = block.values;

    const auto process = [&](FfrWork& fw) {
      std::vector<std::uint32_t>& cls = fw.classes;
      EarlyExitFilterWide(tp, plan, wbi * L, counters, cls);
      if (cls.empty()) return;

      class_diff.assign(cls.size(), W::Zeros());
      if (load != nullptr) {
        // Replay: the captured per-class detection bundles of the source
        // block are exact here. Steps 1-4 vanish.
        for (std::size_t k = 0; k < cls.size(); ++k) {
          class_diff[k] = load->diffs[cls[k]];
        }
      } else {
        // 1. Leader activation per class (one faulty function per class).
        leader_act.assign(cls.size(), W::Zeros());
        W any_act = W::Zeros();
        for (std::size_t k = 0; k < cls.size(); ++k) {
          const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
          const NetId site_net = f.pin == Fault::kOutputPin
                                     ? f.gate
                                     : nl.gate(f.gate).fanin[f.pin];
          const W stuck = f.sa1 ? W::Ones() : W::Zeros();
          leader_act[k] = (good[site_net] ^ stuck) & valid;
          any_act |= leader_act[k];
        }

        W stem_obs = W::Zeros();
        bool reaches_stem = !any_act.IsZero();
        if (reaches_stem) {
          // 2. Backward critical-path trace over the region's good bundles.
          const std::span<const NetId> members = nl.ffr_members(fw.ffr);
          obs[fw.stem] = W::Ones();
          for (std::size_t r = members.size(); r-- > 0;) {
            const NetId m = members[r];
            const Gate& g = nl.gate(m);
            const int fc = g.fanin_count();
            if (fc == 0) continue;
            W in[netlist::kMaxFanin];
            for (int i = 0; i < fc; ++i) in[i] = good[g.fanin[i]];
            const W obs_m = obs[m];
            for (int p = 0; p < fc; ++p) {
              const NetId src = g.fanin[p];
              if (src == fw.stem || nl.stem_of(src) != fw.stem) continue;
              const W saved = in[p];
              in[p] = ~saved;
              const W sens = EvalCellWide(g.type, in) ^ good[m];
              in[p] = saved;
              obs[src] = obs_m & sens;
            }
          }

          // 3. Site-to-stem bundles per class, from the leader.
          stem_local.assign(cls.size(), W::Zeros());
          W any_local = W::Zeros();
          for (std::size_t k = 0; k < cls.size(); ++k) {
            if (leader_act[k].IsZero()) continue;
            const Fault& f = faults[plan.members[plan.offsets[cls[k]]]];
            W site_obs;
            if (f.pin == Fault::kOutputPin) {
              site_obs = obs[f.gate];
            } else {
              const Gate& g = nl.gate(f.gate);
              W in[netlist::kMaxFanin];
              for (int i = 0; i < g.fanin_count(); ++i) in[i] = good[g.fanin[i]];
              in[f.pin] = ~in[f.pin];
              site_obs = (EvalCellWide(g.type, in) ^ good[f.gate]) & obs[f.gate];
            }
            stem_local[k] = leader_act[k] & site_obs;
            any_local |= stem_local[k];
          }
          reaches_stem = !any_local.IsZero();
        }

        if (reaches_stem) {
          // 4. One stem propagation for the whole region — or, warm-started,
          // the lanes' 64-pattern stem-observability words from a previous
          // run over the same (netlist, patterns). Wide propagation is
          // lane-independent, so lane k of the computed bundle IS the word of
          // sub-block wbi*L+k; the cache speaks 64-pattern indices and a
          // partial hit just recomputes (lanes past the pattern set stay
          // zero — their bits are invalid and masked by stem_local anyway).
          StemObsCache* const socache = run.trim.stem_obs;
          bool warm_hit = false;
          if (socache != nullptr) {
            W cached = W::Zeros();
            bool all_hit = true;
            for (int k = 0; k < L && all_hit; ++k) {
              const std::size_t sub = wbi * L + static_cast<std::size_t>(k);
              if (sub >= num_sub_blocks) break;
              all_hit = socache->Lookup(sub, fw.stem, &cached.lane[k]);
            }
            if (all_hit) {
              stem_obs = cached;
              warm_hit = true;
              if (counters != nullptr) {
                counters->warm_stem_hits.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          if (!warm_hit) {
            stem_obs = prop.OutputDiff(good, fw.stem, ~good[fw.stem]);
            if (socache != nullptr) {
              for (int k = 0; k < L; ++k) {
                const std::size_t sub = wbi * L + static_cast<std::size_t>(k);
                if (sub >= num_sub_blocks) break;
                socache->Store(sub, fw.stem, stem_obs.lane[k]);
              }
            }
          }
        }

        if (!stem_obs.IsZero()) {
          for (std::size_t k = 0; k < cls.size(); ++k) {
            class_diff[k] = stem_local[k] & stem_obs;
            if (store != nullptr) store->diffs[cls[k]] = class_diff[k];
          }
        }
      }

      // 5. Detection accounting; under dropping a detected class leaves
      // the region's live list (compacted in place: writes trail reads).
      std::size_t kept = 0;
      for (std::size_t k = 0; k < cls.size(); ++k) {
        const std::uint32_t ci = cls[k];
        const W diff = class_diff[k];
        if (diff.IsZero()) {
          cls[kept++] = ci;
          continue;
        }
        const std::uint32_t mbegin = plan.offsets[ci];
        const std::uint32_t mend = plan.offsets[ci + 1];
        const int first_bit = diff.FirstSetBit();
        const std::size_t first_pattern =
            base + static_cast<std::size_t>(first_bit);
        for (std::uint32_t mi = mbegin; mi < mend; ++mi) {
          const std::uint32_t fi = plan.members[mi];
          if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
            result.first_detect[fi] =
                static_cast<std::uint32_t>(first_pattern);
            result.detected_mask.Set(fi, true);
            ++result.num_detected;
          }
        }
        if (run.options.drop_detected) {
          result.detects_per_pattern[first_pattern] += mend - mbegin;
        } else {
          det_counts.AddWeighted(diff, mend - mbegin);
          cls[kept++] = ci;
        }
      }
      cls.resize(kept);
    };

    std::size_t gw = 0;  // compaction write index over `work`
    for (std::size_t gr = 0; gr < work.size(); ++gr) {
      process(work[gr]);
      if (work[gr].classes.empty()) continue;
      if (gw != gr) work[gw] = std::move(work[gr]);
      ++gw;
    }
    work.resize(gw);
    det_counts.ExpandInto(&result.detects_per_pattern[base]);
  }
}

/// The transition loop over one shard of fault ids (ascending): one
/// event-driven propagation per activated fault. No collapsing — the
/// launch condition is per-fault site history, so two transition faults
/// with identical faulty functions still activate on different patterns.
/// The launch bundle chains the per-fault history carry through lane
/// boundaries (ShiftLeftOneCarry), and the history bit advances to the
/// last VALID pattern of the wide block. It starts at the capture value,
/// so pattern 0 (which has no launch vector) never activates.
template <int L>
void SimulateTransitionShardWide(const TransitionRun& run,
                                 const WideTrim<L>& wtrim,
                                 std::vector<std::uint32_t> live,
                                 WideGoodCache<L>& wide_blocks,
                                 FaultSimResult& result) {
  using W = Wide<L>;
  using netlist::Gate;
  using netlist::NetId;

  const netlist::Netlist& nl = run.nl;
  const std::vector<TransitionFault>& faults = run.faults;
  const TrimPlan* tp = run.trim.plan;
  TrimCounters* counters = run.trim.counters;
  std::unordered_map<std::uint32_t, WideReplayEntry<L>> replay;

  std::vector<std::uint8_t> prev_site_bit(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    prev_site_bit[i] = faults[i].sa1 ? 0 : 1;  // != init value
  }

  WidePropagator<L> prop(nl);
  WideCounterPlanes<L> det_counts;

  for (std::size_t base = 0; base < run.patterns.size(); base += 64 * L) {
    if (live.empty()) break;
    if (run.options.cancel != nullptr && run.options.cancel->Expired()) return;
    const std::size_t wbi = base / (64 * L);

    // Per-fault early-exit: past its last launching block a fault can
    // never activate again, so it is settled for the rest of the run.
    if (tp != nullptr && tp->early_exit) {
      std::uint64_t exited = 0;
      std::size_t we = 0;
      for (const std::uint32_t fi : live) {
        if (tp->last_act[fi] >= static_cast<std::int64_t>(wbi * L)) {
          live[we++] = fi;
        } else {
          ++exited;
        }
      }
      if (exited != 0) {
        live.resize(we);
        if (counters != nullptr) {
          counters->faults_early_exited.fetch_add(exited,
                                                  std::memory_order_relaxed);
        }
        if (live.empty()) break;
      }
    }

    const WideReplayEntry<L>* load = nullptr;
    WideReplayEntry<L>* store = nullptr;
    std::size_t wsrc = wbi;
    if (wtrim.dedup) {
      wsrc = wtrim.repeat_of[wbi];
      if (wsrc != wbi) {
        load = &replay.at(static_cast<std::uint32_t>(wsrc));
        if (counters != nullptr) {
          counters->blocks_replayed.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (wtrim.has_repeat[wbi] != 0) {
        WideReplayEntry<L>& e = replay[static_cast<std::uint32_t>(wsrc)];
        e.diffs.assign(faults.size(), W::Zeros());
        e.carry_in.assign(faults.size(), 0);
        e.last_bit.assign(faults.size(), 0);
        store = &e;
      }
    }

    const typename WideGoodCache<L>::Block& block = wide_blocks.Get(wsrc);
    if (block.count == 0) break;
    const int count = block.count;
    const W valid = W::ValidMask(count);
    const std::vector<W>& good = block.values;

    std::size_t w = 0;
    for (std::size_t r = 0; r < live.size(); ++r) {
      const std::uint32_t fi = live[r];
      const TransitionFault& f = faults[fi];
      const Gate& g = nl.gate(f.gate);
      const W stuck = f.sa1 ? W::Ones() : W::Zeros();

      // A cached bundle replays only when this fault enters the block with
      // the same launch-history carry it was captured under; the carry-out
      // is carry-independent (last valid site bit), so the history still
      // advances on a hit. A mismatch recomputes against the source
      // block's good values — identical on every net that matters.
      W diff = W::Zeros();
      if (load != nullptr && load->carry_in[fi] == prev_site_bit[fi]) {
        diff = load->diffs[fi];
        prev_site_bit[fi] = load->last_bit[fi];
      } else {
        const NetId site_net =
            f.pin == Fault::kOutputPin ? f.gate : g.fanin[f.pin];
        const W site = good[site_net];

        const W launch = site.ShiftLeftOneCarry(prev_site_bit[fi] != 0);
        const std::uint8_t carry_out = site.Bit(count - 1) ? 1 : 0;
        if (store != nullptr) {
          store->carry_in[fi] = prev_site_bit[fi];
          store->last_bit[fi] = carry_out;
        }
        prev_site_bit[fi] = carry_out;

        const W act = (f.sa1 ? launch : ~launch) & (site ^ stuck) & valid;
        if (act.IsZero()) {
          live[w++] = fi;
          continue;
        }
        // The late value is a stuck-at of the initial value on the capture
        // vectors.
        if (f.pin == Fault::kOutputPin) {
          diff = prop.OutputDiff(good, f.gate, stuck);
        } else {
          W in[netlist::kMaxFanin];
          for (int i = 0; i < g.fanin_count(); ++i) {
            in[i] = i == f.pin ? stuck : good[g.fanin[i]];
          }
          const W out = EvalCellWide(g.type, in);
          if (out != good[f.gate]) diff = prop.OutputDiff(good, f.gate, out);
        }
        diff &= act;  // detection only on properly-launched capture vectors
        if (store != nullptr) store->diffs[fi] = diff;
      }

      if (diff.IsZero()) {
        live[w++] = fi;
        continue;
      }

      const int first_bit = diff.FirstSetBit();
      const std::size_t first_pattern =
          base + static_cast<std::size_t>(first_bit);
      if (result.first_detect[fi] == FaultSimResult::kNotDetected) {
        result.first_detect[fi] = static_cast<std::uint32_t>(first_pattern);
        result.detected_mask.Set(fi, true);
        ++result.num_detected;
      }
      if (run.options.drop_detected) {
        result.detects_per_pattern[first_pattern]++;
      } else {
        det_counts.Add(diff);
        live[w++] = fi;
      }
    }
    det_counts.ExpandInto(&result.detects_per_pattern[base]);
    live.resize(w);
    if (live.empty() && run.options.drop_detected) break;
  }
}

/// Runs `shard(work, result)` over the work list `live`: on the calling
/// thread, or stride-sharded over a worker pool with the deterministic
/// merge of fault/parallel.h. A cancelled run throws after every shard has
/// joined, so a partial result is never returned.
template <typename ShardFn>
FaultSimResult RunSharded(const std::vector<std::uint32_t>& live,
                          std::size_t num_faults, std::size_t num_patterns,
                          const FaultSimOptions& options, ShardFn&& shard) {
  FaultSimResult result = InitFaultSimResult(num_faults, num_patterns);
  const int threads = ResolveNumThreads(options.num_threads, live.size());
  if (threads <= 1) {
    shard(live, result);
  } else {
    const std::vector<std::vector<std::uint32_t>> shards =
        StrideShards(live, threads);
    std::vector<FaultSimResult> partial(
        threads, InitFaultSimResult(num_faults, num_patterns));
    RunOnShards(threads, [&](int t) { shard(shards[t], partial[t]); });
    MergeShardResults(partial, result);
  }
  AbortIfCancelled(options);
  return result;
}

/// Stuck-at: the work unit is a fanout-free region, since its single stem
/// propagation serves every class inside.
template <int L>
FaultSimResult RunStuckAtWideT(const StuckAtRun& run) {
  WideGoodCache<L> wide_blocks(run.good_blocks, run.trim.plan);
  const WideTrim<L> wtrim = BuildWideTrim<L>(run.trim.plan,
                                             run.patterns.size());
  std::vector<std::uint32_t> live(run.groups.num_groups());
  std::iota(live.begin(), live.end(), 0u);
  return RunSharded(live, run.faults.size(), run.patterns.size(), run.options,
                    [&](const std::vector<std::uint32_t>& groups,
                        FaultSimResult& result) {
                      SimulateFfrShardWide<L>(run, wtrim, groups, wide_blocks,
                                              result);
                    });
}

template <int L>
FaultSimResult RunTransitionWideT(const TransitionRun& run) {
  WideGoodCache<L> wide_blocks(run.good_blocks, run.trim.plan);
  const WideTrim<L> wtrim = BuildWideTrim<L>(run.trim.plan,
                                             run.patterns.size());
  return RunSharded(run.live, run.faults.size(), run.patterns.size(),
                    run.options,
                    [&](const std::vector<std::uint32_t>& faults,
                        FaultSimResult& result) {
                      SimulateTransitionShardWide<L>(run, wtrim, faults,
                                                     wide_blocks, result);
                    });
}

}  // namespace
}  // namespace gpustl::fault::internal
