//===- tests/analysis_test.cpp - Dataflow analyses tests -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct checks of the equation systems of Tables 1-3 and of the baseline
/// analyses (LCM, liveness, reaching copies) on hand-built programs.
///
//===----------------------------------------------------------------------===//

#include "ReferenceFacts.h"
#include "TestUtil.h"
#include "analysis/CopyAnalysis.h"
#include "analysis/LcmAnalyses.h"
#include "analysis/Liveness.h"
#include "analysis/PaperAnalyses.h"
#include "figures/PaperFigures.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

size_t patIdx(const FlowGraph &G, const AssignPatternTable &Pats,
              const char *Lhs, const char *RhsText) {
  for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
    const AssignPat &P = Pats.pattern(Idx);
    if (G.Vars.name(P.Lhs) == Lhs && printTerm(P.Rhs, G.Vars) == RhsText)
      return Idx;
  }
  return AssignPatternTable::npos;
}

} // namespace

//===----------------------------------------------------------------------===//
// Table 2: redundancy
//===----------------------------------------------------------------------===//

TEST(Redundancy, OccurrenceGeneratesDespiteSelfKill) {
  // X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT: the occurrence of
  // v := t itself modifies v, yet redundancy holds right after it.
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := 1
  out(x, y)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  RedundancyAnalysis R = RedundancyAnalysis::run(G, Pats);
  size_t X = patIdx(G, Pats, "x", "a + b");
  auto F = walkFacts(G, R, 0);
  EXPECT_FALSE(F.Before[0].test(X));
  EXPECT_TRUE(F.After[0].test(X));
  EXPECT_TRUE(F.Before[1].test(X)); // y := 1 is transparent
  EXPECT_TRUE(F.After[1].test(X));
}

TEST(Redundancy, MeetOverAllPathsAtJoins) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := a + b
  goto b3
b2:
  x := a + b
  goto b3
b3:
  x := a + b
  out(x)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  RedundancyAnalysis R = RedundancyAnalysis::run(G, Pats);
  size_t X = patIdx(G, Pats, "x", "a + b");
  EXPECT_TRUE(R.entry(3).test(X));

  // Remove the occurrence on one branch: no longer redundant at the join.
  FlowGraph G2 = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := a + b
  goto b3
b2:
  goto b3
b3:
  x := a + b
  out(x)
  halt
}
)");
  AssignPatternTable Pats2;
  Pats2.build(G2);
  RedundancyAnalysis R2 = RedundancyAnalysis::run(G2, Pats2);
  EXPECT_FALSE(R2.entry(3).test(patIdx(G2, Pats2, "x", "a + b")));
}

TEST(Redundancy, LoopCarriedRedundancy) {
  // In the running example, the loop body's y := c+d is redundant at its
  // entry (reached via node 1 on entry and via its own occurrence around
  // the loop).
  FlowGraph G = figure4();
  AssignPatternTable Pats;
  Pats.build(G);
  RedundancyAnalysis R = RedundancyAnalysis::run(G, Pats);
  size_t Y = patIdx(G, Pats, "y", "c + d");
  ASSERT_NE(Y, AssignPatternTable::npos);
  EXPECT_TRUE(R.entry(2).test(Y)); // loop body block
}

//===----------------------------------------------------------------------===//
// Table 1: hoistability
//===----------------------------------------------------------------------===//

TEST(Hoistability, EndNodeBoundaryIsFalse) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  goto b1
b1:
  out(x)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  HoistabilityAnalysis H = HoistabilityAnalysis::run(G, Pats);
  size_t X = patIdx(G, Pats, "x", "a + b");
  EXPECT_TRUE(H.entryHoistable(0).test(X));
  EXPECT_FALSE(H.exitHoistable(1).test(X));
  // The candidate can reach the start node's entry: N-INSERT at b0.
  EXPECT_TRUE(H.entryInsert(0).test(X));
}

TEST(Hoistability, LocalPredicates) {
  FlowGraph G = parse(R"(
graph {
b0:
  a := 1
  x := a + b
  y := 2
  out(x, y, a)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  HoistabilityAnalysis H = HoistabilityAnalysis::run(G, Pats);
  size_t X = patIdx(G, Pats, "x", "a + b");
  size_t A = patIdx(G, Pats, "a", "1");
  // x := a+b is preceded by a blocker: not a candidate.
  EXPECT_FALSE(H.locHoistable(0).test(X));
  EXPECT_TRUE(H.locBlocked(0).test(X));
  // a := 1 is the first instruction: a candidate.
  EXPECT_TRUE(H.locHoistable(0).test(A));
}

TEST(Hoistability, MeetRequiresAllSuccessors) {
  FlowGraph G = figure8();
  AssignPatternTable Pats;
  Pats.build(G);
  HoistabilityAnalysis H = HoistabilityAnalysis::run(G, Pats);
  size_t A = patIdx(G, Pats, "a", "x + y");
  ASSERT_NE(A, AssignPatternTable::npos);
  // a := x+y hoists out of b3 through both branch blocks...
  EXPECT_TRUE(H.entryHoistable(3).test(A));
  // ...is blocked inside b1 (x := y+z modifies x) — exit insertion there...
  EXPECT_TRUE(H.exitInsert(1).test(A));
  // ...and reaches the entry of the empty b2 branch.
  EXPECT_TRUE(H.entryInsert(2).test(A));
  // It must not reach b0's entry (b1 blocks it).
  EXPECT_FALSE(H.entryHoistable(0).test(A));
}

//===----------------------------------------------------------------------===//
// Table 3: delayability / usability / placement
//===----------------------------------------------------------------------===//

namespace {

/// Builds the canonical post-AM shape: an initialization whose use sits a
/// few instructions later.
FlowGraph flushExample() {
  return parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  c := 1
  x := h1
  y := h1
  out(x, y, c)
  halt
}
)");
}

} // namespace

TEST(Flush, DelayabilityStopsAtUsesAndBlockers) {
  FlowGraph G = flushExample();
  FlushAnalysis F = FlushAnalysis::run(G);
  ASSERT_EQ(F.universe().size(), 1u);
  auto D = walkFacts(G, F.delayability(), 0);
  EXPECT_TRUE(D.After[0].test(0));  // right after the init
  EXPECT_TRUE(D.Before[2].test(0)); // c := 1 is neutral
  EXPECT_FALSE(D.After[2].test(0)); // the use x := h1 ends the region
}

TEST(Flush, UsabilityCountsAnyFollowingUse) {
  FlowGraph G = flushExample();
  FlushAnalysis F = FlushAnalysis::run(G);
  auto U = walkFacts(G, F.usability(), 0);
  EXPECT_TRUE(U.After[0].test(0));  // used below
  EXPECT_TRUE(U.After[2].test(0));  // still one more use below
  EXPECT_FALSE(U.After[3].test(0)); // no further use
}

TEST(Flush, PlanKeepsMultiUseInitAndLeavesNoExitInits) {
  FlowGraph G = flushExample();
  FlushAnalysis F = FlushAnalysis::run(G);
  auto Plan = F.plan(0);
  // Init is re-placed immediately before the first use (index 2).
  EXPECT_TRUE(holds(Plan.initBefore(2), 0));
  EXPECT_TRUE(Plan.reconstruct(2).empty()); // two uses: no reconstruction
  EXPECT_TRUE(Plan.InitAtExit.empty());
}

TEST(Flush, SingleUseIsReconstructed) {
  FlowGraph G = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  c := 1
  x := h1
  out(x, c)
  halt
}
)");
  FlushAnalysis F = FlushAnalysis::run(G);
  auto Plan = F.plan(0);
  EXPECT_TRUE(holds(Plan.reconstruct(2), 0));
  EXPECT_TRUE(Plan.initBefore(2).empty());
}

TEST(Flush, DeadInitializationVanishes) {
  FlowGraph G = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  out(a)
  halt
}
)");
  FlushAnalysis F = FlushAnalysis::run(G);
  auto Plan = F.plan(0);
  EXPECT_TRUE(Plan.InitAtExit.empty());
  for (size_t Idx = 0; Idx < Plan.numInstrs(); ++Idx)
    EXPECT_TRUE(Plan.initBefore(Idx).empty());
}

TEST(Flush, BlockerForcesEarlyPlacement) {
  // The initialization cannot be delayed past a modification of an
  // operand; with a later use it must be placed right before the blocker.
  FlowGraph G = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  a := 2
  x := h1
  y := h1
  out(x, y)
  halt
}
)");
  FlushAnalysis F = FlushAnalysis::run(G);
  auto Plan = F.plan(0);
  EXPECT_TRUE(holds(Plan.initBefore(1), 0)); // before a := 2
  EXPECT_TRUE(Plan.initBefore(2).empty());
}

//===----------------------------------------------------------------------===//
// LCM analyses
//===----------------------------------------------------------------------===//

TEST(Lcm, DiamondInsertsOnEmptyBranchEdge) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := a + b
  goto b3
b2:
  goto b3
b3:
  y := a + b
  out(x, y)
  halt
}
)");
  ExprPatternTable Exprs;
  Exprs.build(G);
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  size_t E = Exprs.indexOf(G.block(1).Instrs[0].Rhs);
  ASSERT_NE(E, ExprPatternTable::npos);
  EXPECT_TRUE(L.antIn(3).test(E));
  EXPECT_TRUE(L.avOut(1).test(E));
  EXPECT_FALSE(L.avOut(2).test(E));
  // INSERT on the edge b2 -> b3, nowhere else.
  EXPECT_TRUE(L.insertOnEdge(2, 0).test(E));
  EXPECT_FALSE(L.insertOnEdge(1, 0).test(E));
  EXPECT_TRUE(L.deleteIn(3).test(E));
  EXPECT_FALSE(L.deleteIn(1).test(E));
}

TEST(Lcm, LoopInvariantNotDownSafeStaysPut) {
  // Classic safety: a+b computed only inside the loop body must not be
  // hoisted above the loop test.
  FlowGraph G = parse(R"(
program {
  i := 0;
  while (i < n) {
    x := a + b;
    i := i + 1;
  }
  out(x, i);
}
)");
  G.splitCriticalEdges();
  ExprPatternTable Exprs;
  Exprs.build(G);
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  Term AB = Term::binary(OpCode::Add, Operand::var(G.Vars.lookup("a")),
                         Operand::var(G.Vars.lookup("b")));
  size_t E = Exprs.indexOf(AB);
  ASSERT_NE(E, ExprPatternTable::npos);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (size_t S = 0; S < G.block(B).Succs.size(); ++S)
      EXPECT_FALSE(L.insertOnEdge(B, S).test(E))
          << "unsafe insertion on edge from " << B;
    EXPECT_FALSE(L.deleteIn(B).test(E));
  }
}

TEST(Lcm, TransparencyAndAntloc) {
  FlowGraph G = parse(R"(
graph {
b0:
  a := 1
  x := a + b
  y := a + b
  out(x, y)
  halt
}
)");
  ExprPatternTable Exprs;
  Exprs.build(G);
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  size_t E = Exprs.indexOf(G.block(0).Instrs[1].Rhs);
  EXPECT_FALSE(L.antloc(0).test(E)); // killed by a := 1 before computation
  EXPECT_FALSE(L.transp(0).test(E));
}

//===----------------------------------------------------------------------===//
// Liveness and reaching copies
//===----------------------------------------------------------------------===//

TEST(Liveness, LiveRangesOnDiamond) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  y := 2
  br b1 b2
b1:
  out(x)
  goto b3
b2:
  out(y)
  goto b3
b3:
  halt
}
)");
  LivenessAnalysis L = LivenessAnalysis::run(G);
  uint32_t X = index(G.Vars.lookup("x"));
  uint32_t Y = index(G.Vars.lookup("y"));
  EXPECT_TRUE(L.liveOut(0).test(X));
  EXPECT_TRUE(L.liveOut(0).test(Y));
  EXPECT_FALSE(L.liveIn(1).test(Y));
  EXPECT_FALSE(L.liveIn(2).test(X));
  EXPECT_FALSE(L.liveOut(1).test(X));
}

TEST(Copies, ReachingCopiesKilledByEitherSide) {
  FlowGraph G = parse(R"(
graph {
b0:
  t := a
  u := t
  a := 2
  x := t + u
  out(x)
  halt
}
)");
  CopyAnalysis C = CopyAnalysis::run(G);
  ASSERT_EQ(C.universe().size(), 2u);
  auto F = walkFacts(G, C, 0);
  // After a := 2 the copy t := a is dead, u := t still reaches.
  size_t TA = C.universe().occurrence(G.block(0).Instrs[0]);
  size_t UT = C.universe().occurrence(G.block(0).Instrs[1]);
  EXPECT_TRUE(F.Before[2].test(TA));
  EXPECT_FALSE(F.Before[3].test(TA));
  EXPECT_TRUE(F.Before[3].test(UT));
}
