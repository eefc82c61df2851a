#include "fault/parallel.h"

#include <exception>
#include <string>
#include <thread>

#include "common/chaos.h"
#include "common/error.h"

namespace gpustl::fault {

GoodBlockCache::GoodBlockCache(const netlist::Netlist& nl,
                               const netlist::PatternSet& patterns)
    : nl_(&nl), patterns_(&patterns) {
  const std::size_t num_blocks = (patterns.size() + 63) / 64;
  blocks_.resize(num_blocks);
  if (num_blocks > 0) {
    done_ = std::make_unique<std::atomic<char>[]>(num_blocks);
    for (std::size_t i = 0; i < num_blocks; ++i) {
      done_[i].store(0, std::memory_order_relaxed);
    }
  }
}

const GoodBlockCache::Block& GoodBlockCache::Get(std::size_t index) {
  // Probes past the pattern set (the wide transpose reads L sub-blocks at
  // a time) see a shared empty block, exactly like the old grow-past-the-
  // end behaviour.
  static const Block kPastTheEnd;
  if (index >= blocks_.size()) return kPastTheEnd;

  std::atomic<char>& done = done_[index];
  if (done.load(std::memory_order_acquire) == 0) {
    Stripe& stripe = stripes_[index % kStripes];
    const std::lock_guard<std::mutex> lock(stripe.mu);
    if (done.load(std::memory_order_relaxed) == 0) {
      if (stripe.sim == nullptr) {
        stripe.sim = std::make_unique<netlist::BitSimulator>(*nl_);
      }
      Block& b = blocks_[index];
      b.count = stripe.sim->LoadBlock(*patterns_, index * 64);
      if (b.count > 0) {
        stripe.sim->Eval();
        b.values = stripe.sim->values();
      }
      done.store(1, std::memory_order_release);
    }
  }
  return blocks_[index];
}

bool StemObsCache::Lookup(std::size_t block, std::uint32_t stem,
                          std::uint64_t* out) {
  Stripe& stripe = stripes_[block % kStripes];
  const std::lock_guard<std::mutex> lock(stripe.mu);
  const auto it = stripe.words.find(Key(block, stem));
  if (it == stripe.words.end()) return false;
  *out = it->second;
  return true;
}

void StemObsCache::Store(std::size_t block, std::uint32_t stem,
                         std::uint64_t word) {
  Stripe& stripe = stripes_[block % kStripes];
  const std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.words.emplace(Key(block, stem), word);
}

WarmStartCache::Shared WarmStartCache::Acquire(
    const netlist::Netlist& nl, const netlist::PatternSet& patterns,
    TrimCounters* counters) {
  // Content fingerprint over everything that determines the cached values.
  // Hashed here (not via store/fingerprint.h) because the fault library
  // sits below the store in the layering. The cc stamps are deliberately
  // excluded: good values and stem observability depend on the pattern
  // BITS only.
  Hasher128 h;
  h.AddHash(nl.fingerprint());
  h.AddU64(patterns.size());
  h.AddU64(static_cast<std::uint64_t>(patterns.width()));
  const std::size_t words = patterns.words_per_pattern();
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    h.AddBytes(patterns.Row(p), words * sizeof(std::uint64_t));
  }
  const Hash128 key = h.Finish();

  const std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.key == key) {
      e.stamp = ++next_stamp_;
      if (counters != nullptr) {
        counters->warm_good_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return e.shared;
    }
  }
  if (entries_.size() >= max_entries_) {
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].stamp < entries_[oldest].stamp) oldest = i;
    }
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(oldest));
  }
  Entry e;
  e.key = key;
  e.shared.good = std::make_shared<GoodBlockCache>(nl, patterns);
  e.shared.stem_obs = std::make_shared<StemObsCache>();
  e.stamp = ++next_stamp_;
  entries_.push_back(e);
  return entries_.back().shared;
}

int ResolveNumThreads(int requested, std::size_t work_items) {
  GPUSTL_ASSERT(requested >= 0, "num_threads must be >= 0");
  std::size_t n = requested == 0
                      ? std::max(1u, std::thread::hardware_concurrency())
                      : static_cast<std::size_t>(requested);
  if (n > work_items) n = work_items;
  return n == 0 ? 1 : static_cast<int>(n);
}

std::vector<std::vector<std::uint32_t>> StrideShards(
    const std::vector<std::uint32_t>& live, int shards) {
  GPUSTL_ASSERT(shards >= 1, "shard count must be positive");
  std::vector<std::vector<std::uint32_t>> out(shards);
  const std::size_t per_shard = live.size() / shards + 1;
  for (auto& shard : out) shard.reserve(per_shard);
  for (std::size_t i = 0; i < live.size(); ++i) {
    out[i % shards].push_back(live[i]);
  }
  return out;
}

void RunOnShards(int shards, const std::function<void(int)>& kernel) {
  // Chaos worker-throw decisions are drawn HERE, on the calling thread,
  // one per shard, before any worker spawns: drawing inside the workers
  // would make the injection schedule depend on thread interleaving and
  // break same-seed reproducibility.
  std::vector<char> inject(shards, 0);
  if (chaos::Armed()) {
    for (int t = 0; t < shards; ++t) {
      inject[t] = chaos::Fail(chaos::Site::kWorkerThrow) ? 1 : 0;
    }
  }

  std::vector<std::exception_ptr> errors(shards);
  auto guarded = [&](int t) {
    try {
      if (inject[t] != 0) {
        throw Error("chaos: injected worker failure in shard " +
                    std::to_string(t));
      }
      kernel(t);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  for (int t = 1; t < shards; ++t) workers.emplace_back(guarded, t);
  guarded(0);
  for (std::thread& w : workers) w.join();

  // Aggregate after the join: one failed shard rethrows its original
  // exception (the type carries the error classification); several are
  // folded into one Error naming every failed shard — previously only the
  // first was reported and the rest vanished.
  std::vector<int> failed;
  for (int t = 0; t < shards; ++t) {
    if (errors[t]) failed.push_back(t);
  }
  if (failed.empty()) return;
  if (failed.size() == 1) std::rethrow_exception(errors[failed[0]]);

  std::string msg = "parallel: " + std::to_string(failed.size()) + " of " +
                    std::to_string(shards) + " shards failed:";
  for (const int t : failed) {
    msg += "\n  shard " + std::to_string(t) + ": ";
    try {
      std::rethrow_exception(errors[t]);
    } catch (const std::exception& e) {
      msg += e.what();
    } catch (...) {
      msg += "unknown exception";
    }
  }
  throw Error(msg);
}

FaultSimResult InitFaultSimResult(std::size_t num_faults,
                                  std::size_t num_patterns) {
  FaultSimResult result;
  result.first_detect.assign(num_faults, FaultSimResult::kNotDetected);
  result.detects_per_pattern.assign(num_patterns, 0);
  result.detected_mask.Resize(num_faults, false);
  return result;
}

void MergeShardResults(const std::vector<FaultSimResult>& shards,
                       FaultSimResult& out) {
  for (const FaultSimResult& shard : shards) {
    out.num_detected += shard.num_detected;
    out.detected_mask |= shard.detected_mask;
    for (std::size_t fi = 0; fi < out.first_detect.size(); ++fi) {
      if (shard.first_detect[fi] != FaultSimResult::kNotDetected) {
        out.first_detect[fi] = shard.first_detect[fi];
      }
    }
    for (std::size_t p = 0; p < out.detects_per_pattern.size(); ++p) {
      out.detects_per_pattern[p] += shard.detects_per_pattern[p];
    }
  }
}

}  // namespace gpustl::fault
