// Fault-model tests: universe enumeration, equivalence collapsing, PPSFP
// detection correctness on hand-analyzable circuits, fault dropping, the
// skip mask (cross-PTP dropping), and per-pattern report contents.
#include <gtest/gtest.h>

#include "circuits/blocks.h"
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fault/faultsim.h"
#include "fault/faultlist_io.h"
#include "fault/transition.h"
#include "netlist/logicsim.h"

namespace gpustl::fault {
namespace {

using netlist::CellType;
using netlist::NetId;
using netlist::Netlist;
using netlist::PatternSet;

/// y = a AND b — the classic stuck-at teaching example.
Netlist AndCircuit() {
  Netlist nl("and2");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  nl.MarkOutput(nl.AddGate(CellType::kAnd2, {a, b}), "y");
  nl.Freeze();
  return nl;
}

TEST(FaultEnumeration, CountsStemsAndBranches) {
  const Netlist nl = AndCircuit();
  const auto faults = EnumerateFaults(nl);
  // 3 nets (a, b, y) x 2 + 2 input pins x 2 = 10.
  EXPECT_EQ(faults.size(), 10u);
}

TEST(FaultEnumeration, SkipsConstCells) {
  Netlist nl("c");
  const NetId a = nl.AddInput("a");
  const NetId k = nl.AddGate(CellType::kConst1, {});
  nl.MarkOutput(nl.AddGate(CellType::kAnd2, {a, k}), "y");
  nl.Freeze();
  for (const Fault& f : EnumerateFaults(nl)) {
    EXPECT_NE(f.gate, k);
  }
}

TEST(FaultCollapsing, AndGateCollapses) {
  const Netlist nl = AndCircuit();
  const auto collapsed = CollapsedFaultList(nl);
  // Uncollapsed: 10. Equivalences: each input pin SA0 == output SA0 (also
  // single-fanout branch == stem). Collapsed set: a SA1, b SA1 (as pin or
  // stem), y SA0, y SA1, a SA0 folded... Expect strictly fewer faults and
  // at least the 4 classic representatives.
  EXPECT_LT(collapsed.size(), 10u);
  EXPECT_GE(collapsed.size(), 4u);
}

TEST(FaultCollapsing, InverterChainCollapsesToFew) {
  Netlist nl("chain");
  NetId n = nl.AddInput("a");
  for (int i = 0; i < 4; ++i) n = nl.AddGate(CellType::kInv, {n});
  nl.MarkOutput(n, "y");
  nl.Freeze();
  const auto collapsed = CollapsedFaultList(nl);
  // A pure inverter chain has only 2 equivalence classes... per stage the
  // output faults remain as representatives, but every input fault folds
  // into an output fault. Uncollapsed = 5 nets*2 + 4 pins*2 = 18.
  EXPECT_LE(collapsed.size(), 10u);
}

TEST(FaultName, ReadableNames) {
  const Netlist nl = AndCircuit();
  EXPECT_EQ(FaultName(nl, {2, Fault::kOutputPin, false}), "g2/Z SA0");
  EXPECT_EQ(FaultName(nl, {2, 0, true}), "g2/A1 SA1");
}

TEST(FaultSim, DetectsAndGateFaults) {
  const Netlist nl = AndCircuit();
  // Exhaustive patterns 00,01,10,11.
  PatternSet pats(2);
  for (std::uint64_t v = 0; v < 4; ++v) pats.Add64(v, v);

  const std::vector<Fault> faults = {
      {2, Fault::kOutputPin, false},  // y SA0: detected by 11 only
      {2, Fault::kOutputPin, true},   // y SA1: detected by 00,01,10
      {0, Fault::kOutputPin, true},   // a SA1: detected by pattern 10 (a=0,b=1)
  };
  const auto res = RunFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 3u);
  EXPECT_EQ(res.first_detect[0], 3u);
  EXPECT_EQ(res.first_detect[1], 0u);
  EXPECT_EQ(res.first_detect[2], 2u);
}

TEST(FaultSim, UndetectableFaultStaysUndetected) {
  // y = a AND (a OR b): the OR output SA1 is undetectable at y... actually
  // use a redundant consensus circuit: y = (a&b) | (a&!b) makes the b pins
  // partially redundant. Simpler: restrict the pattern set so a fault is
  // never excited.
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  pats.Add64(0, 0b11);  // only the 11 pattern
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, true}};  // y SA1
  const auto res = RunFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 0u);
  EXPECT_EQ(res.first_detect[0], FaultSimResult::kNotDetected);
}

TEST(FaultSim, InputPinFaultOnFanoutBranch) {
  // f = a; y1 = f AND b; y2 = f OR b. A SA1 on y1's 'a' branch is visible
  // at y1 only; the stem fault would also disturb y2.
  Netlist nl("fanout");
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId y1 = nl.AddGate(CellType::kAnd2, {a, b});
  const NetId y2 = nl.AddGate(CellType::kOr2, {a, b});
  nl.MarkOutput(y1, "y1");
  nl.MarkOutput(y2, "y2");
  nl.Freeze();

  PatternSet pats(2);
  pats.Add64(0, 0b10);  // a=0, b=1: branch SA1 flips y1 (0->1)

  const std::vector<Fault> branch = {{y1, 0, true}};
  const auto res = RunFaultSim(nl, pats, branch);
  EXPECT_EQ(res.num_detected, 1u);
}

TEST(FaultSim, DroppingStopsAfterFirstDetection) {
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  pats.Add64(0, 0b00);
  pats.Add64(1, 0b00);  // identical pattern twice
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, true}};

  const auto dropped = RunFaultSim(nl, pats, faults, nullptr,
                                   {.drop_detected = true});
  EXPECT_EQ(dropped.detects_per_pattern[0], 1u);
  EXPECT_EQ(dropped.detects_per_pattern[1], 0u);

  const auto full = RunFaultSim(nl, pats, faults, nullptr,
                                {.drop_detected = false});
  EXPECT_EQ(full.detects_per_pattern[0], 1u);
  EXPECT_EQ(full.detects_per_pattern[1], 1u);
  EXPECT_EQ(full.num_detected, 1u);  // still one unique fault
}

TEST(FaultSim, SkipMaskExcludesFaults) {
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  for (std::uint64_t v = 0; v < 4; ++v) pats.Add64(v, v);
  const std::vector<Fault> faults = {
      {2, Fault::kOutputPin, false},
      {2, Fault::kOutputPin, true},
  };
  BitVec skip(2, false);
  skip.Set(1, true);
  const auto res = RunFaultSim(nl, pats, faults, &skip);
  EXPECT_EQ(res.num_detected, 1u);
  EXPECT_TRUE(res.detected_mask.Get(0));
  EXPECT_FALSE(res.detected_mask.Get(1));
}

TEST(FaultSim, CoverageOnRandomAdderPatterns) {
  // An 8-bit adder with random patterns should reach high coverage of its
  // collapsed fault list — the generic sanity sweep.
  Netlist nl("adder");
  const auto a = netlist::AddInputBus(nl, "a", 8);
  const auto b = netlist::AddInputBus(nl, "b", 8);
  const auto sum =
      circuits::Adder(nl, a, b, circuits::ConstBit(nl, false));
  netlist::MarkOutputBus(nl, sum, "s");
  nl.Freeze();

  const auto faults = CollapsedFaultList(nl);
  PatternSet pats(16);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) pats.Add64(i, rng() & 0xFFFF);

  const auto res = RunFaultSim(nl, pats, faults);
  EXPECT_GT(CoveragePercent(res.num_detected, faults.size()), 90.0);
}

TEST(FaultSim, MoreThan64PatternsCrossBlocks) {
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  for (int i = 0; i < 70; ++i) pats.Add64(i, 0b00);
  pats.Add64(70, 0b11);  // the only detecting pattern, in the second block
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, false}};
  const auto res = RunFaultSim(nl, pats, faults);
  EXPECT_EQ(res.first_detect[0], 70u);
}

// --- Transition-delay fault model (extension) ---

TEST(TransitionSim, SlowToRiseNeedsLaunchAndCapture) {
  const Netlist nl = AndCircuit();
  // y: 0 -> 1 transition between patterns 0 and 1.
  PatternSet pats(2);
  pats.Add64(0, 0b00);  // y = 0 (launch)
  pats.Add64(1, 0b11);  // y = 1 (capture): STR on y detected here
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, false}};  // STR
  const auto res = RunTransitionFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 1u);
  EXPECT_EQ(res.first_detect[0], 1u);
}

TEST(TransitionSim, FirstPatternCannotCapture) {
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  pats.Add64(0, 0b11);  // y = 1 but there is no launch vector
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, false}};
  const auto res = RunTransitionFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 0u);
}

TEST(TransitionSim, StuckAtPatternOrderMatters) {
  // The same two vectors in the other order launch a falling transition,
  // which detects the slow-to-fall fault instead.
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  pats.Add64(0, 0b11);  // y = 1
  pats.Add64(1, 0b00);  // y = 0: STF capture
  const std::vector<Fault> str = {{2, Fault::kOutputPin, false}};
  const std::vector<Fault> stf = {{2, Fault::kOutputPin, true}};
  EXPECT_EQ(RunTransitionFaultSim(nl, pats, str).num_detected, 0u);
  EXPECT_EQ(RunTransitionFaultSim(nl, pats, stf).num_detected, 1u);
}

TEST(TransitionSim, NoToggleNoDetection) {
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  for (int i = 0; i < 10; ++i) pats.Add64(static_cast<std::uint64_t>(i), 0b11);
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, false},
                                     {2, Fault::kOutputPin, true}};
  const auto res = RunTransitionFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 0u);
}

TEST(TransitionSim, LaunchAcrossBlockBoundary) {
  // The launch vector is the last pattern of the previous 64-wide block.
  const Netlist nl = AndCircuit();
  PatternSet pats(2);
  for (int i = 0; i < 64; ++i) pats.Add64(static_cast<std::uint64_t>(i), 0b00);
  pats.Add64(64, 0b11);  // capture at the first pattern of block 2
  const std::vector<Fault> faults = {{2, Fault::kOutputPin, false}};
  const auto res = RunTransitionFaultSim(nl, pats, faults);
  EXPECT_EQ(res.num_detected, 1u);
  EXPECT_EQ(res.first_detect[0], 64u);
}

TEST(TransitionSim, CoverageIsSubsetOfStuckAt) {
  // Any pattern set detects at most as many transition faults as stuck-at
  // faults on the same sites (transition needs the extra launch condition).
  Netlist nl("adder");
  const auto a = netlist::AddInputBus(nl, "a", 8);
  const auto b = netlist::AddInputBus(nl, "b", 8);
  const auto sum = circuits::Adder(nl, a, b, circuits::ConstBit(nl, false));
  netlist::MarkOutputBus(nl, sum, "s");
  nl.Freeze();

  const auto faults = CollapsedFaultList(nl);
  PatternSet pats(16);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) pats.Add64(i, rng() & 0xFFFF);

  const auto sa = RunFaultSim(nl, pats, faults);
  const auto tr = RunTransitionFaultSim(nl, pats, faults);
  EXPECT_LE(tr.num_detected, sa.num_detected);
  EXPECT_GT(tr.num_detected, faults.size() / 2);  // random pairs toggle a lot
}

// --- Fault-list report persistence ---

TEST(FaultListIo, RoundTrips) {
  const Netlist nl = AndCircuit();
  const auto faults = CollapsedFaultList(nl);
  BitVec detected(faults.size(), false);
  detected.Set(0, true);
  detected.Set(faults.size() - 1, true);

  std::stringstream ss;
  WriteFaultList(ss, "and2", faults, detected);
  const BitVec back = ReadFaultList(ss, "and2", faults);
  EXPECT_EQ(back, detected);
}

TEST(FaultListIo, RejectsModuleMismatch) {
  const Netlist nl = AndCircuit();
  const auto faults = CollapsedFaultList(nl);
  std::stringstream ss;
  WriteFaultList(ss, "and2", faults, BitVec(faults.size(), false));
  EXPECT_THROW(ReadFaultList(ss, "other", faults), ReportError);
}

TEST(FaultListIo, RejectsStaleList) {
  const Netlist nl = AndCircuit();
  auto faults = CollapsedFaultList(nl);
  std::stringstream ss;
  WriteFaultList(ss, "and2", faults, BitVec(faults.size(), false));
  faults.pop_back();  // netlist "changed"
  EXPECT_THROW(ReadFaultList(ss, "and2", faults), ReportError);
}

TEST(FaultListIo, RejectsSiteMismatch) {
  const Netlist nl = AndCircuit();
  auto faults = CollapsedFaultList(nl);
  std::stringstream ss;
  WriteFaultList(ss, "and2", faults, BitVec(faults.size(), false));
  std::swap(faults.front(), faults.back());
  EXPECT_THROW(ReadFaultList(ss, "and2", faults), ReportError);
}

TEST(FaultListIo, RejectsMalformedHeader) {
  const Netlist nl = AndCircuit();
  const auto faults = CollapsedFaultList(nl);
  const auto read = [&](const std::string& text) {
    std::stringstream ss(text);
    return ReadFaultList(ss, "and2", faults);
  };
  EXPECT_THROW(read(""), ReportError);                      // empty stream
  EXPECT_THROW(read("$vcde and2 faults 6 detected 0\n"), ReportError);
  EXPECT_THROW(read("$faultlist and2 faults 6\n"), ReportError);
  EXPECT_THROW(read("$faultlist and2 faults six detected 0\n"), ReportError);
}

TEST(FaultListIo, RejectsTruncatedAndCorruptRows) {
  const Netlist nl = AndCircuit();
  const auto faults = CollapsedFaultList(nl);
  std::stringstream ss;
  WriteFaultList(ss, "and2", faults, BitVec(faults.size(), false));
  const std::string full = ss.str();

  // Cut the file mid-row, after the header, and before $end: all truncated.
  const auto read_prefix = [&](std::size_t n) {
    std::stringstream in(full.substr(0, n));
    return ReadFaultList(in, "and2", faults);
  };
  EXPECT_THROW(read_prefix(full.find('\n') + 1), ReportError);
  EXPECT_THROW(read_prefix(full.size() / 2), ReportError);
  EXPECT_THROW(read_prefix(full.rfind("$end")), ReportError);

  // Corrupt one row: non-numeric detected flag and a short row.
  const std::size_t row = full.find('\n') + 1;
  const std::size_t row_end = full.find('\n', row);
  std::string bad = full;
  bad[row_end - 1] = 'x';
  std::stringstream in1(bad);
  EXPECT_THROW(ReadFaultList(in1, "and2", faults), ReportError);
  std::stringstream in2(full.substr(0, row_end - 2) + "\n" +
                        full.substr(row_end + 1));
  EXPECT_THROW(ReadFaultList(in2, "and2", faults), ReportError);
}

TEST(Coverage, Percent) {
  EXPECT_DOUBLE_EQ(CoveragePercent(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(CoveragePercent(5, 10), 50.0);
  EXPECT_DOUBLE_EQ(CoveragePercent(0, 0), 0.0);
}

}  // namespace
}  // namespace gpustl::fault
