// Shared fixtures of the fault-sim suites: random netlists, pattern sets
// and skip masks, and the field-by-field FaultSimResult comparison that
// holds the engine to the reference simulator (tests/reference_sim.h).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "fault/faultsim.h"
#include "netlist/cell.h"
#include "netlist/netlist.h"
#include "netlist/patterns.h"

namespace gpustl::fault::testutil {

/// A random combinational netlist: `num_gates` gates of random library
/// cells (constants included) over random already-built nets — ids ascend,
/// so it is acyclic by construction — with the last two gates plus three
/// random internal nets marked as outputs.
inline netlist::Netlist RandomNetlist(Rng& rng, int num_inputs, int num_gates) {
  using netlist::CellType;
  static constexpr CellType kTypes[] = {
      CellType::kBuf,   CellType::kInv,   CellType::kAnd2,  CellType::kAnd3,
      CellType::kAnd4,  CellType::kOr2,   CellType::kOr3,   CellType::kOr4,
      CellType::kNand2, CellType::kNand3, CellType::kNand4, CellType::kNor2,
      CellType::kNor3,  CellType::kNor4,  CellType::kXor2,  CellType::kXnor2,
      CellType::kMux2,  CellType::kAoi21, CellType::kAoi22, CellType::kOai21,
      CellType::kOai22, CellType::kConst0, CellType::kConst1};

  netlist::Netlist nl("rand");
  std::vector<netlist::NetId> nets;
  for (int i = 0; i < num_inputs; ++i) {
    nets.push_back(nl.AddInput("i" + std::to_string(i)));
  }
  for (int g = 0; g < num_gates; ++g) {
    const CellType type = kTypes[rng.below(std::size(kTypes))];
    std::vector<netlist::NetId> fanin(netlist::CellFaninCount(type));
    for (netlist::NetId& f : fanin) f = nets[rng.below(nets.size())];
    nets.push_back(nl.AddGate(type, fanin));
  }
  int out = 0;
  nl.MarkOutput(nets[nets.size() - 1], "o" + std::to_string(out++));
  nl.MarkOutput(nets[nets.size() - 2], "o" + std::to_string(out++));
  for (int k = 0; k < 3; ++k) {
    nl.MarkOutput(nets[num_inputs + rng.below(num_gates)],
                  "o" + std::to_string(out++));
  }
  nl.Freeze();
  return nl;
}

/// `count` random patterns of a module at most 64 inputs wide.
inline netlist::PatternSet RandomPatterns(Rng& rng, int width, int count) {
  netlist::PatternSet pats(width);
  const std::uint64_t mask = width >= 64 ? ~0ull : ((1ull << width) - 1);
  for (int p = 0; p < count; ++p) {
    pats.Add64(static_cast<std::uint64_t>(p), rng() & mask);
  }
  return pats;
}

/// Like RandomPatterns for any width (PatternSet masks the padding bits).
inline netlist::PatternSet RandomWidePatterns(Rng& rng, int width, int count) {
  netlist::PatternSet pats(width);
  std::vector<std::uint64_t> words((width + 63) / 64);
  for (int p = 0; p < count; ++p) {
    for (std::uint64_t& w : words) w = rng();
    pats.Add(static_cast<std::uint64_t>(p), words.data());
  }
  return pats;
}

/// Skips each fault with probability `p`.
inline BitVec RandomSkip(Rng& rng, std::size_t n, double p) {
  BitVec skip(n, false);
  for (std::size_t i = 0; i < n; ++i) skip.Set(i, rng.chance(p));
  return skip;
}

/// Skips all but about `keep` evenly spaced faults of `n`: a fixed sample
/// that keeps the per-fault reference affordable on the bundled modules.
inline BitVec SampleMask(std::size_t n, std::size_t keep) {
  const std::size_t stride = std::max<std::size_t>(1, n / keep);
  BitVec skip(n, true);
  for (std::size_t i = 0; i < n; i += stride) skip.Set(i, false);
  return skip;
}

inline void ExpectIdentical(const FaultSimResult& want,
                            const FaultSimResult& got,
                            const std::string& what) {
  EXPECT_EQ(want.first_detect, got.first_detect) << what;
  EXPECT_EQ(want.detects_per_pattern, got.detects_per_pattern) << what;
  EXPECT_EQ(want.num_detected, got.num_detected) << what;
  EXPECT_TRUE(want.detected_mask == got.detected_mask) << what;
}

}  // namespace gpustl::fault::testutil
