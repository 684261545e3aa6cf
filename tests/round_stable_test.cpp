//===- tests/round_stable_test.cpp - Round-stable AM dataflow state -------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the state the AM rounds reuse instead of rebuilding:
///
///  * the pattern table keeps its indices when a rebuild finds the same
///    pattern set (ranking the patterns by first occurrence instead), and
///    renumbers when the set changes or the context is reset;
///  * a shared AmContext — stable indices, incremental solves — gives the
///    same output bytes, remarks and (up to the index permutation) facts
///    as a fresh context per pass, on random programs up to a universe of
///    more than 1024 patterns;
///  * after the first round an incremental transfer refresh recomposes
///    exactly the dirty blocks;
///  * results read the engine's planes in place, and keep reading their
///    own facts when their solver solves again (copy-on-write), which the
///    AM fixpoint never triggers.
///
//===----------------------------------------------------------------------===//

#include "ReferenceSolver.h"
#include "TestUtil.h"
#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/Initialization.h"
#include "transform/RedundantAssignElim.h"

#include <gtest/gtest.h>

#include <regex>
#include <tuple>

using namespace am;
using namespace am::test;

namespace {

uint64_t counter(const char *Name) {
  return stats::Registry::get().counterValue(Name);
}

/// Index of every pattern of \p A in \p B (npos where \p B lacks it).
std::vector<size_t> indexMap(const AssignPatternTable &A,
                             const AssignPatternTable &B) {
  std::vector<size_t> Map(A.size());
  for (size_t Idx = 0; Idx < A.size(); ++Idx)
    Map[Idx] = B.indexOf(A.pattern(Idx).Lhs, A.pattern(Idx).Rhs);
  return Map;
}

/// Success iff bit i of \p A equals bit Map[i] of \p B for every i.
template <typename FactA, typename FactB>
::testing::AssertionResult sameUnderMap(const FactA &A, const FactB &B,
                                        const std::vector<size_t> &Map) {
  if (A.size() != B.size() || A.size() != Map.size())
    return ::testing::AssertionFailure() << "widths differ";
  for (size_t Idx = 0; Idx < A.size(); ++Idx)
    if (A.test(Idx) != B.test(Map[Idx]))
      return ::testing::AssertionFailure() << "pattern " << Idx << " differs";
  return ::testing::AssertionSuccess();
}

FlowGraph initializedProgram(uint64_t Seed, unsigned Stmts, unsigned Vars,
                             unsigned Pool) {
  GenOptions Opts;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = Vars;
  Opts.PatternPoolSize = Pool;
  FlowGraph G = generateStructuredProgram(Seed, Opts);
  G.splitCriticalEdges();
  runInitializationPhase(G);
  return G;
}

/// The first block holding two assignments of different patterns.
struct Site {
  BlockId B;
  size_t I, J; ///< Two assignments of different patterns, I < J.
};
Site twoPatternSite(const FlowGraph &G) {
  AssignPatternTable Pats;
  Pats.build(G);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    for (size_t I = 0; I < Instrs.size(); ++I)
      for (size_t J = I + 1; J < Instrs.size(); ++J) {
        size_t PI = Pats.occurrence(Instrs[I]), PJ = Pats.occurrence(Instrs[J]);
        if (PI != AssignPatternTable::npos && PJ != AssignPatternTable::npos &&
            PI != PJ)
          return {B, I, J};
      }
  }
  return {0, 0, 0};
}

} // namespace

//===----------------------------------------------------------------------===//
// Stable numbering
//===----------------------------------------------------------------------===//

TEST(PatternTableTest, ReorderOnlyRebuildKeepsIndicesAndRanksFirstOccurrence) {
  FlowGraph G = parse(R"(program {
    x := a + b;
    y := c + d;
    z := a + b;
    out(x, y, z);
  })");
  AmContext Ctx;
  Ctx.refreshPatterns(G);
  const AssignPatternTable &Pats = Ctx.patterns();
  uint64_t Gen = Ctx.patternGeneration();
  std::vector<AssignPat> Before;
  for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
    EXPECT_EQ(Pats.rank(Idx), Idx) << "a fresh table ranks by index";
    Before.push_back(Pats.pattern(Idx));
  }
  ASSERT_EQ(Before.size(), 3u);

  // Reverse the block: same pattern set, opposite first-occurrence order.
  Site S = twoPatternSite(G);
  auto &Instrs = G.block(S.B).Instrs;
  std::reverse(Instrs.begin(), Instrs.end());
  G.touchBlock(S.B);
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen);
  AssignPatternTable Fresh;
  EXPECT_TRUE(Fresh.build(G));
  ASSERT_EQ(Pats.size(), Before.size());
  for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
    EXPECT_TRUE(Pats.pattern(Idx) == Before[Idx]) << "index " << Idx;
    EXPECT_EQ(Pats.rank(Idx),
              Fresh.indexOf(Pats.pattern(Idx).Lhs, Pats.pattern(Idx).Rhs))
        << "rank is the first-occurrence position";
  }
  EXPECT_NE(Pats.rank(0), 0u) << "the reversal moved the first pattern";

  // A rebuild of the unchanged program reports no renumbering either.
  AssignPatternTable Again;
  Again.build(G);
  EXPECT_FALSE(Again.build(G));
}

TEST(PatternTableTest, SetChangeRenumbersInFirstOccurrenceOrder) {
  FlowGraph G = parse(R"(program {
    x := a + b;
    y := c + d;
    z := e + f;
    out(x, y, z);
  })");
  AssignPatternTable Pats;
  Pats.build(G);
  Site S = twoPatternSite(G);
  auto &Instrs = G.block(S.B).Instrs;
  // Swap the first two (a reorder), then drop the third pattern.
  std::swap(Instrs[S.I], Instrs[S.J]);
  Instrs.erase(Instrs.begin() + static_cast<long>(S.J) + 1);
  G.touchBlock(S.B);
  EXPECT_TRUE(Pats.build(G));
  AssignPatternTable Fresh;
  Fresh.build(G);
  ASSERT_EQ(Pats.size(), 2u);
  for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
    EXPECT_TRUE(Pats.pattern(Idx) == Fresh.pattern(Idx));
    EXPECT_EQ(Pats.rank(Idx), Idx);
  }
}

TEST(AmContextTest, ResetRestartsFirstOccurrenceNumbering) {
  FlowGraph G = parse(R"(program {
    x := a + b;
    y := c + d;
    out(x, y);
  })");
  AmContext Ctx;
  Ctx.refreshPatterns(G);
  Site S = twoPatternSite(G);
  std::swap(G.block(S.B).Instrs[S.I], G.block(S.B).Instrs[S.J]);
  G.touchBlock(S.B);
  Ctx.refreshPatterns(G);
  ASSERT_EQ(Ctx.patterns().rank(0), 1u) << "kept across the reorder";

  Ctx.reset();
  Ctx.refreshPatterns(G);
  AssignPatternTable Fresh;
  Fresh.build(G);
  for (size_t Idx = 0; Idx < Ctx.patterns().size(); ++Idx) {
    EXPECT_TRUE(Ctx.patterns().pattern(Idx) == Fresh.pattern(Idx));
    EXPECT_EQ(Ctx.patterns().rank(Idx), Idx);
  }
}

//===----------------------------------------------------------------------===//
// Shared context vs a fresh context per pass
//===----------------------------------------------------------------------===//

namespace {

struct Shape {
  const char *Name;
  unsigned Stmts, Vars, Pool;
  /// Lower bound the AM universe must reach, so the shape covers the
  /// width it is named for.
  size_t MinPats;
};

void PrintTo(const Shape &S, std::ostream *OS) { *OS << S.Name; }

/// Remarks JSON with solve serials made relative to the run's first one
/// (serials are process-wide; both runs solve equally often).
std::string relativeSolves(const std::string &Json) {
  static const std::regex Solve("\"solve\":\\s*([0-9]+)");
  uint64_t Base = 0;
  for (std::sregex_iterator It(Json.begin(), Json.end(), Solve), End;
       It != End; ++It) {
    uint64_t V = std::stoull((*It)[1]);
    if (V != 0 && (Base == 0 || V < Base))
      Base = V;
  }
  std::string Out;
  auto Last = Json.cbegin();
  for (std::sregex_iterator It(Json.begin(), Json.end(), Solve), End;
       It != End; ++It) {
    uint64_t V = std::stoull((*It)[1]);
    Out.append(Last, (*It)[0].first);
    Out += "\"solve\":" + std::to_string(V ? V - Base + 1 : 0);
    Last = (*It)[0].second;
  }
  Out.append(Last, Json.cend());
  return Out;
}

/// Runs the AM phase on a copy of \p Base with remark collection on:
/// through one shared context, or with a fresh context for every pass.
/// Returns the final program and the remarks JSON.
std::pair<std::string, std::string> runWithRemarks(const FlowGraph &Base,
                                                   bool Shared) {
  remarks::Sink &Sink = remarks::Sink::get();
  Sink.clear();
  remarks::CollectionScope On;
  FlowGraph W = Base;
  if (Shared) {
    AmContext Ctx;
    runAssignmentMotionPhase(W, Ctx);
  } else {
    for (uint32_t Round = 1; Round < 256; ++Round) {
      Sink.setRound(Round);
      AmContext RaeCtx, AhtCtx;
      unsigned Eliminated = runRedundantAssignmentElimination(W, RaeCtx);
      bool Hoisted = runAssignmentHoisting(W, AhtCtx);
      if (Eliminated == 0 && !Hoisted)
        break;
    }
    Sink.setRound(0);
  }
  std::pair<std::string, std::string> Out{printGraph(W),
                                          relativeSolves(Sink.toJsonString())};
  Sink.clear();
  return Out;
}

} // namespace

class RoundStableAm
    : public ::testing::TestWithParam<std::tuple<Shape, uint64_t>> {};

TEST_P(RoundStableAm, SharedContextMatchesFreshContextPerPass) {
  auto [S, Seed] = GetParam();
  FlowGraph G = initializedProgram(Seed, S.Stmts, S.Vars, S.Pool);
  FlowGraph Fresh = G;

  AmContext Ctx;
  uint64_t FirstGen = 0;
  for (unsigned Round = 1;; ++Round) {
    ASSERT_LT(Round, 256u) << "AM fixpoint did not stabilize";
    std::string Where = "round " + std::to_string(Round);
    Ctx.refreshPatterns(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    if (Round == 1) {
      FirstGen = Ctx.patternGeneration();
      EXPECT_GE(Pats.size(), S.MinPats);
    }
    AssignPatternTable FreshPats;
    FreshPats.build(Fresh);
    ASSERT_EQ(Pats.size(), FreshPats.size()) << Where;
    std::vector<size_t> Map = indexMap(Pats, FreshPats);
    for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
      ASSERT_NE(Map[Idx], AssignPatternTable::npos) << Where;
      ASSERT_EQ(Pats.rank(Idx), Map[Idx]) << Where << ": rank of " << Idx;
    }

    // Per-round facts agree under the index permutation.
    if (Pats.size() != 0) {
      RedundancyAnalysis Red = RedundancyAnalysis::run(
          G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
      RedundancyAnalysis FreshRed = RedundancyAnalysis::run(Fresh, FreshPats);
      HoistabilityAnalysis Hoist =
          HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                    Ctx.hoistLocals(), Ctx.patternGeneration());
      HoistabilityAnalysis FreshHoist =
          HoistabilityAnalysis::run(Fresh, FreshPats);
      for (BlockId B = 0; B < G.numBlocks(); ++B) {
        std::string At = Where + ", block " + std::to_string(B);
        ASSERT_TRUE(sameUnderMap(Red.entry(B), FreshRed.entry(B), Map)) << At;
        ASSERT_TRUE(sameUnderMap(Red.exit(B), FreshRed.exit(B), Map)) << At;
        ASSERT_TRUE(sameUnderMap(Hoist.entryHoistable(B),
                                 FreshHoist.entryHoistable(B), Map))
            << At;
        ASSERT_TRUE(sameUnderMap(Hoist.exitHoistable(B),
                                 FreshHoist.exitHoistable(B), Map))
            << At;
        ASSERT_TRUE(sameUnderMap(Hoist.locBlocked(B), FreshHoist.locBlocked(B),
                                 Map))
            << At;
        ASSERT_TRUE(sameUnderMap(Hoist.locHoistable(B),
                                 FreshHoist.locHoistable(B), Map))
            << At;
        ASSERT_TRUE(sameUnderMap(Hoist.entryInsert(B),
                                 FreshHoist.entryInsert(B), Map))
            << At;
        ASSERT_TRUE(sameUnderMap(Hoist.exitInsert(B), FreshHoist.exitInsert(B),
                                 Map))
            << At;
      }
    }

    // Each pass leaves both programs byte-identical.
    AmContext RaeCtx, AhtCtx;
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    ASSERT_EQ(Eliminated, runRedundantAssignmentElimination(Fresh, RaeCtx))
        << Where;
    ASSERT_EQ(printGraph(G), printGraph(Fresh)) << Where << " after rae";
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    ASSERT_EQ(Hoisted, runAssignmentHoisting(Fresh, AhtCtx)) << Where;
    ASSERT_EQ(printGraph(G), printGraph(Fresh)) << Where << " after aht";
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  // rae deletes only occurrences another occurrence of the same pattern
  // reaches, and aht re-inserts what it removes: the universe never
  // changes, so the fixpoint numbers its patterns once.
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), FirstGen);

  // The remark stream matches too.
  FlowGraph Base = initializedProgram(Seed, S.Stmts, S.Vars, S.Pool);
  auto [SharedOut, SharedRemarks] = runWithRemarks(Base, /*Shared=*/true);
  auto [FreshOut, FreshRemarks] = runWithRemarks(Base, /*Shared=*/false);
  EXPECT_EQ(SharedOut, FreshOut);
  EXPECT_NE(SharedRemarks.find("\"solve\":"), std::string::npos)
      << "the phase should emit remarks citing solves";
  EXPECT_EQ(SharedRemarks, FreshRemarks);
  EXPECT_EQ(SharedOut, printGraph(G));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundStableAm,
    ::testing::Combine(
        ::testing::Values(Shape{"narrow", 60, 4, 6, 1},
                          Shape{"word", 600, 10, 90, 65},
                          Shape{"wide", 3000, 40, 1500, 1025}),
        ::testing::Values(1, 2, 3)),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param).Name) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Incremental refresh cost
//===----------------------------------------------------------------------===//

namespace {

/// Blocks stamped after \p Since that have a row in a \p Forward solve
/// (the reachable ones: unreachable blocks share the identity dummy).
uint64_t dirtyRows(const FlowGraph &G, Tick Since, bool Forward) {
  std::vector<BlockId> Order =
      Forward ? G.reversePostorder() : G.reverseGraphReversePostorder();
  uint64_t N = 0;
  for (BlockId B : Order)
    N += G.blockTick(B) > Since;
  return N;
}

} // namespace

TEST(RoundStableAm, RefreshAfterFirstRoundRecomposesOnlyDirtyBlocks) {
  FlowGraph G = initializedProgram(5, 600, 10, 90);
  AmContext Ctx;
  // Round 1 builds every transfer.
  Tick RaeSolved = G.modTick();
  runRedundantAssignmentElimination(G, Ctx);
  Tick AhtSolved = G.modTick();
  runAssignmentHoisting(G, Ctx);
  uint64_t Gen = Ctx.patternGeneration();
  unsigned Rounds = 1;
  while (true) {
    ++Rounds;
    uint64_t Before = counter("dfa.transfers_recomputed");
    uint64_t Expect = dirtyRows(G, RaeSolved, /*Forward=*/true);
    RaeSolved = G.modTick();
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    EXPECT_EQ(counter("dfa.transfers_recomputed") - Before, Expect)
        << "rae, round " << Rounds;

    Before = counter("dfa.transfers_recomputed");
    Expect = dirtyRows(G, AhtSolved, /*Forward=*/false);
    AhtSolved = G.modTick();
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    EXPECT_EQ(counter("dfa.transfers_recomputed") - Before, Expect)
        << "aht, round " << Rounds;
    if (Eliminated == 0 && !Hoisted)
      break;
    ASSERT_LT(Rounds, 256u);
  }
  EXPECT_GE(Rounds, 3u) << "the program should need several rounds";
  EXPECT_EQ(Ctx.patternGeneration(), Gen);
}

//===----------------------------------------------------------------------===//
// Zero-copy results
//===----------------------------------------------------------------------===//

TEST(ZeroCopyResult, OutlivesASecondSolveOfItsSolver) {
  FlowGraph G = initializedProgram(7, 400, 8, 60);
  AssignPatternTable Pats;
  Pats.build(G);
  ASSERT_GT(Pats.size(), 64u) << "wide lanes";
  DataflowSolver Solver;
  RedundancyAnalysis First = RedundancyAnalysis::run(G, Pats, Solver, 1);
  std::vector<BitVector> Entry, Exit;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    Entry.push_back(First.entry(B).toBitVector());
    Exit.push_back(First.exit(B).toBitVector());
  }

  // A universe-preserving edit that changes a fact the first result
  // holds: append an occurrence of an eligible pattern to a block whose
  // exit lacks it.
  BlockId Target = G.numBlocks();
  Instr Copy = Instr::skip();
  for (BlockId B = 0; B < G.numBlocks() && Target == G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs) {
      size_t Pat = Pats.occurrence(I);
      if (Pat == AssignPatternTable::npos ||
          !Pats.redundancyEligible().test(Pat))
        continue;
      for (BlockId T = 0; T < G.numBlocks(); ++T)
        if (!First.exit(T).test(Pat) && !G.block(T).Instrs.empty() &&
            !G.block(T).Instrs.back().isBranch()) {
          Target = T;
          Copy = I;
          break;
        }
      break;
    }
  ASSERT_LT(Target, G.numBlocks());
  G.block(Target).Instrs.push_back(Copy);
  G.touchBlock(Target);
  ASSERT_FALSE(Pats.build(G)) << "the edit keeps the pattern set";
  uint64_t Cloned = counter("dfa.planes_cloned");
  RedundancyAnalysis Second = RedundancyAnalysis::run(G, Pats, Solver, 1);
  EXPECT_EQ(counter("dfa.planes_cloned") - Cloned, 1u);
  EXPECT_TRUE(matchesReference(G, Second.result()));

  bool Changed = false;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    EXPECT_EQ(First.entry(B), Entry[B]) << "block " << B;
    EXPECT_EQ(First.exit(B), Exit[B]) << "block " << B;
    Changed |= !(Second.exit(B) == Exit[B]);
  }
  EXPECT_TRUE(Changed) << "the edit should change some fact";

  // With no older result alive, the next solve writes in place.
  First = RedundancyAnalysis();
  G.touchBlock(Target);
  Cloned = counter("dfa.planes_cloned");
  Second = RedundancyAnalysis();
  RedundancyAnalysis Third = RedundancyAnalysis::run(G, Pats, Solver, 1);
  EXPECT_EQ(counter("dfa.planes_cloned") - Cloned, 0u);
  EXPECT_TRUE(matchesReference(G, Third.result()));
}

namespace {

/// "Definitely assigned" over the program's variables: a forward
/// all-path problem independent of any pattern table.
class Assigned : public DataflowProblem {
public:
  explicit Assigned(const FlowGraph &G) : NumVars(G.Vars.size()) {}
  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return NumVars; }
  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out.clearAndResize(NumVars);
    if (isValid(I.definedVar()))
      Out.set(index(I.definedVar()));
  }
  void kill(BlockId, size_t, const Instr &, BitVector &Out) const override {
    Out.clearAndResize(NumVars);
  }

private:
  size_t NumVars;
};

} // namespace

TEST(ZeroCopyResult, ThrowawaySolveOutlivesItsSolver) {
  FlowGraph G = initializedProgram(8, 300, 6, 40);
  Assigned P(G);
  // am::solve's solver is gone when the result is read; a copy of the
  // result shares the planes and outlives the original.
  auto R = std::make_unique<DataflowResult>(solve(G, P));
  EXPECT_TRUE(matchesReference(G, *R));
  DataflowResult Copy = *R;
  R.reset();
  EXPECT_TRUE(matchesReference(G, Copy));
}

TEST(ZeroCopyResult, AmFixpointClonesNoPlanes) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    FlowGraph G = initializedProgram(Seed, 1200, 12, 200);
    AmContext Ctx;
    uint64_t Cloned = counter("dfa.planes_cloned");
    uint64_t Incremental = counter("dfa.solves.incremental");
    AmPhaseStats Stats = runAssignmentMotionPhase(G, Ctx);
    EXPECT_GE(Stats.Iterations, 2u);
    EXPECT_GT(counter("dfa.solves.incremental"), Incremental);
    EXPECT_EQ(counter("dfa.planes_cloned") - Cloned, 0u) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Per-occurrence decisions against their definitions
//===----------------------------------------------------------------------===//

namespace {

std::vector<FlowGraph> oracleCorpus() {
  std::vector<FlowGraph> Corpus;
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    Corpus.push_back(initializedProgram(Seed, 300, 8, 40));
  for (uint64_t Seed = 100; Seed < 106; ++Seed) {
    FlowGraph G = generateIrreducibleCfg(Seed);
    G.splitCriticalEdges();
    Corpus.push_back(std::move(G));
  }
  return Corpus;
}

} // namespace

/// rae decides N-REDUNDANT per occurrence; the program it leaves must be
/// the one the walked Table 2 facts prescribe, at every round (including
/// unreachable blocks, whose entry is the optimistic all-true value).
TEST(RaePerOccurrence, MatchesWalkedNRedundant) {
  unsigned Checked = 0;
  for (FlowGraph &G : oracleCorpus()) {
    for (unsigned Round = 0; Round < 64; ++Round) {
      AssignPatternTable Pats;
      Pats.build(G);
      if (Pats.size() == 0)
        break;
      RedundancyAnalysis Red = RedundancyAnalysis::run(G, Pats);
      FlowGraph Expect = G;
      unsigned ExpectRemoved = 0;
      FactWalk Walk;
      for (BlockId B = 0; B < G.numBlocks(); ++B) {
        std::vector<bool> Remove(G.block(B).Instrs.size(), false);
        Red.walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                              const BitVector &) {
          size_t Pat = Pats.occurrence(G.block(B).Instrs[Idx]);
          Remove[Idx] = Pat != AssignPatternTable::npos && Before.test(Pat);
        });
        std::vector<Instr> Kept;
        for (size_t Idx = 0; Idx < Remove.size(); ++Idx)
          if (!Remove[Idx])
            Kept.push_back(Expect.block(B).Instrs[Idx]);
        ExpectRemoved += static_cast<unsigned>(Remove.size() - Kept.size());
        Expect.block(B).Instrs = std::move(Kept);
      }
      unsigned Removed = runRedundantAssignmentElimination(G);
      ASSERT_EQ(Removed, ExpectRemoved) << "round " << Round;
      ASSERT_EQ(printGraph(G), printGraph(Expect)) << "round " << Round;
      Checked += Removed;
      bool Hoisted = runAssignmentHoisting(G);
      if (Removed == 0 && !Hoisted)
        break;
    }
  }
  EXPECT_GT(Checked, 0u) << "the corpus should exercise eliminations";
}

/// LOC-BLOCKED is the union of the block's per-instruction blockedBy sets
/// and LOC-HOISTABLE the occurrences no earlier instruction blocks
/// (Definition 3.2), through the shared context's incremental refreshes.
TEST(HoistLocalsPerVariable, MatchPerInstructionDefinition) {
  for (FlowGraph &G : oracleCorpus()) {
    AmContext Ctx;
    for (unsigned Round = 0; Round < 64; ++Round) {
      Ctx.refreshPatterns(G);
      const AssignPatternTable &Pats = Ctx.patterns();
      if (Pats.size() == 0)
        break;
      HoistabilityAnalysis H =
          HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                    Ctx.hoistLocals(), Ctx.patternGeneration());
      BitVector Blocked = Pats.makeVector(), Hoistable = Pats.makeVector(),
                Scratch = Pats.makeVector();
      for (BlockId B = 0; B < G.numBlocks(); ++B) {
        Blocked.resetAll();
        Hoistable.resetAll();
        for (const Instr &I : G.block(B).Instrs) {
          size_t Pat = Pats.occurrence(I);
          if (Pat != AssignPatternTable::npos && !Blocked.test(Pat))
            Hoistable.set(Pat);
          Pats.blockedBy(I, Scratch);
          Blocked |= Scratch;
        }
        ASSERT_EQ(H.locBlocked(B), Blocked) << "round " << Round << " b" << B;
        ASSERT_EQ(H.locHoistable(B), Hoistable)
            << "round " << Round << " b" << B;
      }
      unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
      bool Hoisted = runAssignmentHoisting(G, Ctx);
      if (Eliminated == 0 && !Hoisted)
        break;
    }
  }
}
