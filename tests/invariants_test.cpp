//===- tests/invariants_test.cpp - Cross-analysis invariants ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural invariants the analyses must satisfy on *any* program —
/// checked over random structured and irreducible graphs:
///
///  * insertion predicates are contained in the hoistability facts they
///    are derived from (Table 1's N-INSERT ⊆ N-HOISTABLE*, etc.);
///  * the flush placement predicates are mutually exclusive (an init is
///    never also reconstructed at the same point);
///  * LCM insertions only happen where the expression is anticipated,
///    deletions only where locally anticipated;
///  * redundancy facts only mention redundancy-eligible patterns.
///
//===----------------------------------------------------------------------===//

#include "ReferenceFacts.h"
#include "TestUtil.h"
#include "analysis/LcmAnalyses.h"
#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "ir/Patterns.h"
#include "transform/Initialization.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

FlowGraph preparedProgram(uint64_t Seed, bool Irreducible) {
  FlowGraph G = Irreducible ? generateIrreducibleCfg(Seed)
                            : generateStructuredProgram(Seed);
  G.splitCriticalEdges();
  return G;
}

} // namespace

class InvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantSweep, HoistabilityInsertionsAreWithinTheFacts) {
  for (bool Irreducible : {false, true}) {
    FlowGraph G = preparedProgram(GetParam(), Irreducible);
    AssignPatternTable Pats;
    Pats.build(G);
    if (Pats.size() == 0)
      continue;
    HoistabilityAnalysis H = HoistabilityAnalysis::run(G, Pats);
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      EXPECT_TRUE(
          H.entryInsert(B).isSubsetOf(H.entryHoistable(B).toBitVector()))
          << "N-INSERT ⊄ N-HOISTABLE at block " << B;
      EXPECT_TRUE(H.exitInsert(B).isSubsetOf(H.exitHoistable(B).toBitVector()))
          << "X-INSERT ⊄ X-HOISTABLE at block " << B;
      EXPECT_TRUE(H.exitInsert(B).isSubsetOf(H.locBlocked(B)))
          << "X-INSERT ⊄ LOC-BLOCKED at block " << B;
      EXPECT_TRUE(
          H.locHoistable(B).isSubsetOf(H.entryHoistable(B).toBitVector()))
          << "a candidate must be hoistable to its own entry, block " << B;
      // Footnote 6: no entry insertions at join nodes.
      if (G.block(B).Preds.size() > 1) {
        EXPECT_TRUE(H.entryInsert(B).none())
            << "entry insertion at join block " << B;
      }
    }
    // The end node's exit is never hoistable (boundary).
    EXPECT_TRUE(H.exitHoistable(G.end()).none());
  }
}

TEST_P(InvariantSweep, RedundancyOnlyMentionsEligiblePatterns) {
  for (bool Irreducible : {false, true}) {
    FlowGraph G = preparedProgram(GetParam(), Irreducible);
    AssignPatternTable Pats;
    Pats.build(G);
    if (Pats.size() == 0)
      continue;
    RedundancyAnalysis Red = RedundancyAnalysis::run(G, Pats);
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      const BitVector &Eligible = Pats.redundancyEligible();
      EXPECT_TRUE(Red.entry(B).toBitVector().isSubsetOf(Eligible));
      EXPECT_TRUE(Red.exit(B).toBitVector().isSubsetOf(Eligible));
    }
    // Nothing is redundant at the start node's entry.
    EXPECT_TRUE(Red.entry(G.start()).none());
  }
}

TEST_P(InvariantSweep, FlushPlacementPredicatesAreExclusive) {
  FlowGraph G = preparedProgram(GetParam(), false);
  runInitializationPhase(G);
  FlushAnalysis F = FlushAnalysis::run(G);
  if (F.universe().size() == 0)
    return;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    FlushAnalysis::BlockPlan Plan = F.plan(B);
    for (size_t Idx = 0; Idx < Plan.numInstrs(); ++Idx) {
      for (uint32_t Temp : Plan.initBefore(Idx))
        EXPECT_FALSE(holds(Plan.reconstruct(Idx), Temp))
            << "INIT and RECONSTRUCT overlap at block " << B << " instr "
            << Idx;
    }
    // Exit inits never at branching blocks (post-split impossibility).
    if (G.block(B).branchInstr()) {
      EXPECT_TRUE(Plan.InitAtExit.empty());
    }
  }
}

TEST_P(InvariantSweep, LcmInsertionsRespectAnticipabilityAndLocality) {
  FlowGraph G = preparedProgram(GetParam(), false);
  ExprPatternTable Exprs;
  Exprs.build(G);
  if (Exprs.size() == 0)
    return;
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (size_t SuccIdx = 0; SuccIdx < G.block(B).Succs.size(); ++SuccIdx) {
      BlockId Target = G.block(B).Succs[SuccIdx];
      EXPECT_TRUE(L.insertOnEdge(B, SuccIdx)
                      .isSubsetOf(L.antIn(Target).toBitVector()))
          << "insertion of a non-anticipated expression on edge " << B
          << "->" << Target << " (unsafe speculation)";
      EXPECT_TRUE(
          L.earliest(B, SuccIdx).isSubsetOf(L.antIn(Target).toBitVector()));
    }
    EXPECT_TRUE(L.deleteIn(B).isSubsetOf(L.antloc(B)))
        << "deleting a computation that is not locally anticipated";
  }
}

TEST_P(InvariantSweep, AvailabilityAndAnticipabilityBoundaries) {
  FlowGraph G = preparedProgram(GetParam(), true);
  ExprPatternTable Exprs;
  Exprs.build(G);
  if (Exprs.size() == 0)
    return;
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  EXPECT_TRUE(L.avIn(G.start()).none());
  EXPECT_TRUE(L.antOut(G.end()).none());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Range<uint64_t>(0, 15));
