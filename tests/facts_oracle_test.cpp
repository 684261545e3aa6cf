//===- tests/facts_oracle_test.cpp - Walk and sparse plan vs dense oracle -===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the sparse per-instruction machinery against the dense oracles
/// of ReferenceFacts.h: DataflowResult::walk against a stored replay at
/// every instruction, FlushAnalysis::plan against Table 3's whole-vector
/// formulas, and FlushUniverse's per-variable BLOCKED lists against the
/// definition — on random programs, from scratch and after incremental
/// edits, at universe widths on both sides of the one-word and the
/// 1024-bit marks.
///
//===----------------------------------------------------------------------===//

#include "ReferenceFacts.h"
#include "ReferenceSolver.h"
#include "TestUtil.h"
#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "support/Rng.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/Initialization.h"
#include "transform/RedundantAssignElim.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace am;
using namespace am::test;

namespace {

/// Success iff the walk over every block visits each instruction once, in
/// flow order, with exactly the oracle's facts.
::testing::AssertionResult walkMatchesOracle(const FlowGraph &G,
                                             const DataflowResult &R) {
  bool Forward = R.problem().direction() == Direction::Forward;
  FactWalk S;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    DenseFacts Ref = referenceFacts(G, R, B);
    size_t N = G.block(B).Instrs.size();
    size_t Visits = 0;
    std::string Error;
    R.walk(B, S, [&](size_t Idx, const BitVector &Before,
                     const BitVector &After) {
      size_t Expected = Forward ? Visits : N - 1 - Visits;
      ++Visits;
      if (!Error.empty())
        return;
      if (Idx != Expected)
        Error = "visited instr " + std::to_string(Idx) + ", expected " +
                std::to_string(Expected);
      else if (Before != Ref.Before[Idx])
        Error = "fact before instr " + std::to_string(Idx) + " differs";
      else if (After != Ref.After[Idx])
        Error = "fact after instr " + std::to_string(Idx) + " differs";
    });
    if (Error.empty() && Visits != N)
      Error = "visited " + std::to_string(Visits) + " of " +
              std::to_string(N) + " instrs";
    if (!Error.empty())
      return ::testing::AssertionFailure()
             << "block " << B << " (" << R.problem().numBits()
             << " bits): " << Error;
  }
  return ::testing::AssertionSuccess();
}

/// Success iff the sparse plan of every block equals the dense formulas.
::testing::AssertionResult planMatchesOracle(const FlowGraph &G,
                                             const FlushAnalysis &A) {
  FlushAnalysis::BlockPlan Plan; // reused, as production callers do
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    A.plan(B, Plan);
    DensePlan Ref = referencePlan(G, A, B);
    if (Plan.numInstrs() != Ref.InitBefore.size())
      return ::testing::AssertionFailure()
             << "block " << B << ": plan covers " << Plan.numInstrs()
             << " instrs";
    for (size_t Idx = 0; Idx < Plan.numInstrs(); ++Idx) {
      if (listOf(Plan.initBefore(Idx)) != bitsOf(Ref.InitBefore[Idx]))
        return ::testing::AssertionFailure()
               << "N-INIT differs at block " << B << " instr " << Idx;
      if (listOf(Plan.reconstruct(Idx)) != bitsOf(Ref.Reconstruct[Idx]))
        return ::testing::AssertionFailure()
               << "RECONSTRUCT differs at block " << B << " instr " << Idx;
    }
    if (Plan.InitAtExit != bitsOf(Ref.InitAtExit))
      return ::testing::AssertionFailure() << "X-INIT differs at block " << B;
  }
  return ::testing::AssertionSuccess();
}

/// Success iff blockedBy() equals BLOCKED's definition for every
/// instruction and every variable of \p G.
::testing::AssertionResult blockedMatchesOracle(const FlowGraph &G,
                                                const FlushUniverse &U) {
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (size_t Idx = 0; Idx < G.block(B).Instrs.size(); ++Idx) {
      const Instr &I = G.block(B).Instrs[Idx];
      if (listOf(U.blockedBy(I.definedVar())) !=
          bitsOf(referenceBlocked(U, I)))
        return ::testing::AssertionFailure()
               << "BLOCKED differs at block " << B << " instr " << Idx;
    }
  for (uint32_t V = 0; V < G.Vars.size(); ++V) {
    std::vector<uint32_t> Expect;
    for (size_t Idx = 0; Idx < U.size(); ++Idx)
      if (U.temp(Idx) == makeVarId(V) || U.expr(Idx).usesVar(makeVarId(V)))
        Expect.push_back(static_cast<uint32_t>(Idx));
    if (listOf(U.blockedBy(makeVarId(V))) != Expect)
      return ::testing::AssertionFailure()
             << "blockedBy(" << G.Vars.name(makeVarId(V)) << ") differs";
  }
  return ::testing::AssertionSuccess();
}

/// A problem of exactly \p Width bits whose gen/kill are pseudo-random
/// functions of the instruction's contents alone (so an unchanged
/// instruction keeps its transfer, as the solver's cache requires).
/// Every eleventh instruction kills the whole universe, so word-boundary
/// masking is exercised along with the single-bit transfers.
class HashProblem : public DataflowProblem {
public:
  HashProblem(size_t Width, Direction Dir, Meet M)
      : Width(Width), Dir(Dir), M(M) {}

  Direction direction() const override { return Dir; }
  Meet meet() const override { return M; }
  size_t numBits() const override { return Width; }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out.clearAndResize(Width);
    size_t H = hashOf(I);
    for (size_t K = 0; Width && K < 3; ++K)
      Out.set((H + K * 7919) % Width);
  }

  void kill(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out.clearAndResize(Width);
    size_t H = hashOf(I);
    if (H % 11 == 0) {
      Out.setAll();
      return;
    }
    for (size_t K = 0; Width && K < 3; ++K)
      Out.set((H / 7 + K * 104729) % Width);
  }

private:
  static size_t hashOf(const Instr &I) {
    size_t H = static_cast<size_t>(I.K) * 0x9E3779B97F4A7C15ull;
    if (I.isAssign())
      H ^= hashTerm(I.Rhs) * 31 + index(I.Lhs);
    if (I.isBranch())
      H ^= hashTerm(I.CondL) * 17 + hashTerm(I.CondR);
    return H ^ (H >> 29);
  }

  size_t Width;
  Direction Dir;
  Meet M;
};

/// One random local edit: drop an instruction (never a branch), or
/// duplicate one, stamping the block dirty.
void editOnce(FlowGraph &G, Rng &R) {
  for (unsigned Try = 0; Try < 64; ++Try) {
    BlockId B = static_cast<BlockId>(R.index(G.numBlocks()));
    auto &Instrs = G.block(B).Instrs;
    if (Instrs.empty())
      continue;
    size_t Idx = R.index(Instrs.size());
    if (Instrs[Idx].isBranch())
      continue;
    if (R.chance(0.5))
      Instrs.erase(Instrs.begin() + static_cast<long>(Idx));
    else
      Instrs.insert(Instrs.begin() + static_cast<long>(Idx), Instrs[Idx]);
    G.touchBlock(B);
    return;
  }
}

GenOptions genOptions(unsigned Stmts, unsigned Vars, unsigned Pool) {
  GenOptions Opts;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = Vars;
  Opts.PatternPoolSize = Pool;
  return Opts;
}

} // namespace

//===----------------------------------------------------------------------===//
// The walk at exact widths, every direction and meet
//===----------------------------------------------------------------------===//

class WalkOracle
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(WalkOracle, MatchesDenseReplayFromScratchAndAfterEdits) {
  auto [Width, Seed] = GetParam();
  for (Direction Dir : {Direction::Forward, Direction::Backward}) {
    for (Meet M : {Meet::All, Meet::Any}) {
      FlowGraph G = generateStructuredProgram(Seed, genOptions(150, 6, 12));
      HashProblem P(Width, Dir, M);
      DataflowSolver Solver;
      DataflowResult R = Solver.solve(G, P);
      ASSERT_TRUE(matchesReference(G, R));
      ASSERT_TRUE(walkMatchesOracle(G, R)) << "from scratch";
      Rng Edits(Seed * 31 + 7);
      for (unsigned Round = 0; Round < 4; ++Round) {
        for (unsigned E = 0; E < 3; ++E)
          editOnce(G, Edits);
        R = Solver.solve(G, P);
        ASSERT_TRUE(matchesReference(G, R)) << "after edit round " << Round;
        ASSERT_TRUE(walkMatchesOracle(G, R)) << "after edit round " << Round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WalkOracle,
                         ::testing::Combine(::testing::Values(0, 64, 65, 1100),
                                            ::testing::Values(1, 2, 3)));

//===----------------------------------------------------------------------===//
// The paper's analyses and the flush plan on random programs
//===----------------------------------------------------------------------===//

struct Shape {
  const char *Name;
  unsigned Stmts, Vars, Pool;
  /// Lower bound the flush universe must reach, so the shape really
  /// covers the width it is named for.
  size_t MinTemps;
};

void PrintTo(const Shape &S, std::ostream *OS) { *OS << S.Name; }

class SparseFactsOracle
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {};

TEST_P(SparseFactsOracle, WalkPlanAndBlockedMatchOracleAcrossAmRounds) {
  auto [S, Seed] = GetParam();
  FlowGraph G =
      generateStructuredProgram(Seed, genOptions(S.Stmts, S.Vars, S.Pool));
  G.splitCriticalEdges();
  runInitializationPhase(G);

  FlushAnalysis Initial = FlushAnalysis::run(G);
  EXPECT_GE(Initial.universe().size(), S.MinTemps);
  ASSERT_TRUE(blockedMatchesOracle(G, Initial.universe()));
  ASSERT_TRUE(walkMatchesOracle(G, Initial.delayability()));
  ASSERT_TRUE(walkMatchesOracle(G, Initial.usability()));
  ASSERT_TRUE(planMatchesOracle(G, Initial));

  // The AM rounds edit the graph in place; the shared context's solvers
  // then take the incremental path.
  AmContext Ctx;
  for (unsigned Round = 1; Round <= 40; ++Round) {
    Ctx.refreshPatterns(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    if (Pats.size() == 0)
      break;
    RedundancyAnalysis Red = RedundancyAnalysis::run(
        G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
    ASSERT_TRUE(walkMatchesOracle(G, Red.result())) << "round " << Round;
    HoistabilityAnalysis Hoist =
        HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                  Ctx.hoistLocals(), Ctx.patternGeneration());
    ASSERT_TRUE(walkMatchesOracle(G, Hoist.result())) << "round " << Round;
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    if (Eliminated == 0 && !Hoisted)
      break;
  }

  FlushAnalysis Final = FlushAnalysis::run(G);
  ASSERT_TRUE(blockedMatchesOracle(G, Final.universe()));
  ASSERT_TRUE(walkMatchesOracle(G, Final.delayability()));
  ASSERT_TRUE(walkMatchesOracle(G, Final.usability()));
  ASSERT_TRUE(planMatchesOracle(G, Final));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseFactsOracle,
    ::testing::Combine(
        ::testing::Values(Shape{"narrow", 60, 4, 6, 1},
                          Shape{"word", 600, 10, 90, 65},
                          Shape{"wide", 6000, 40, 1800, 1025}),
        ::testing::Values(1, 2)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param).Name) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

TEST(SparseFactsOracle, EmptyUniversePlansNothing) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a
  br b1 b2
b1:
  y := x
  goto b3
b2:
  y := 1
  goto b3
b3:
  out(y)
  halt
}
)");
  FlushAnalysis A = FlushAnalysis::run(G);
  ASSERT_EQ(A.universe().size(), 0u);
  ASSERT_TRUE(blockedMatchesOracle(G, A.universe()));
  ASSERT_TRUE(walkMatchesOracle(G, A.delayability()));
  ASSERT_TRUE(walkMatchesOracle(G, A.usability()));
  ASSERT_TRUE(planMatchesOracle(G, A));
}
