//===- analysis/PaperAnalyses.cpp - Tables 1-3 implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/PaperAnalyses.h"
#include "support/Profiler.h"
#include "support/ThreadPool.h"

using namespace am;

namespace {

//===----------------------------------------------------------------------===//
// Table 2: X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT
//===----------------------------------------------------------------------===//

class RedundancyProblem : public DataflowProblem {
public:
  RedundancyProblem(const AssignPatternTable &Pats) : Pats(Pats) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return Pats.size(); }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out.clearAndResize(Pats.size());
    size_t Idx = Pats.occurrence(I);
    // Only patterns `v := t` with v not an operand of t can be redundant
    // (Table 2 precondition).
    if (Idx != AssignPatternTable::npos && Pats.redundancyEligible().test(Idx))
      Out.set(Idx);
  }

  void kill(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Pats.killedBy(I, Out);
  }

private:
  const AssignPatternTable &Pats;
};

//===----------------------------------------------------------------------===//
// Table 1: N-HOISTABLE = LOC-HOISTABLE + X-HOISTABLE · ¬LOC-BLOCKED,
// decomposed to instruction granularity (gen at occurrences, kill at
// blockers; the within-block composition reproduces the candidate rule:
// only occurrences not preceded by a blocker count).
//===----------------------------------------------------------------------===//

class HoistabilityProblem : public DataflowProblem {
public:
  HoistabilityProblem(const AssignPatternTable &Pats) : Pats(Pats) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return Pats.size(); }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out.clearAndResize(Pats.size());
    size_t Idx = Pats.occurrence(I);
    if (Idx != AssignPatternTable::npos)
      Out.set(Idx);
  }

  void kill(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Pats.blockedBy(I, Out);
  }

private:
  const AssignPatternTable &Pats;
};

//===----------------------------------------------------------------------===//
// Table 3 problems
//===----------------------------------------------------------------------===//

/// X-DELAYABLE = IS-INST + N-DELAYABLE · ¬USED · ¬BLOCKED (forward, all).
class DelayabilityProblem : public DataflowProblem {
public:
  DelayabilityProblem(const FlushUniverse &U) : U(U) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return U.size(); }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    U.isInst(I, Out);
  }

  void kill(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    // thread_local (not a member): kill() is invoked concurrently from
    // the transfer-composition workers, which share one problem instance.
    static thread_local BitVector Tmp;
    U.used(I, Out);
    U.blocked(I, Tmp);
    Out |= Tmp;
  }

private:
  const FlushUniverse &U;
};

/// N-USABLE = USED + ¬IS-INST · X-USABLE (backward, any).  Solved as a
/// least fixpoint: "h is used on some program continuation before being
/// re-initialized" — the liveness-style semantics footnote 7 describes.
class UsabilityProblem : public DataflowProblem {
public:
  UsabilityProblem(const FlushUniverse &U) : U(U) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Any; }
  size_t numBits() const override { return U.size(); }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    U.used(I, Out);
  }

  void kill(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    U.isInst(I, Out);
  }

private:
  const FlushUniverse &U;
};

} // namespace

//===----------------------------------------------------------------------===//
// RedundancyAnalysis
//===----------------------------------------------------------------------===//

RedundancyAnalysis RedundancyAnalysis::run(const FlowGraph &G,
                                           const AssignPatternTable &Pats) {
  AM_PROF_SCOPE("analysis.redundancy");
  RedundancyAnalysis A;
  A.Problem = std::make_unique<RedundancyProblem>(Pats);
  A.Result = solve(G, *A.Problem);
  return A;
}

RedundancyAnalysis RedundancyAnalysis::run(const FlowGraph &G,
                                           const AssignPatternTable &Pats,
                                           DataflowSolver &Solver,
                                           uint64_t PatsGen) {
  AM_PROF_SCOPE("analysis.redundancy");
  RedundancyAnalysis A;
  A.Problem = std::make_unique<RedundancyProblem>(Pats);
  A.Result = Solver.solve(G, *A.Problem, PatsGen);
  return A;
}

//===----------------------------------------------------------------------===//
// HoistLocalPredicates
//===----------------------------------------------------------------------===//

void HoistLocalPredicates::computeBlock(const FlowGraph &G,
                                        const AssignPatternTable &Pats,
                                        BlockId B, BitVector &Scratch) {
  size_t Bits = Pats.size();
  BitVector &Hoistable = LocHoistable[B];
  BitVector &BlockedSoFar = LocBlocked[B];
  Hoistable.clearAndResize(Bits);
  BlockedSoFar.clearAndResize(Bits);
  for (const Instr &I : G.block(B).Instrs) {
    // A hoisting candidate is an occurrence not preceded (within the
    // block) by an instruction blocking it.
    size_t Idx = Pats.occurrence(I);
    if (Idx != AssignPatternTable::npos && !BlockedSoFar.test(Idx))
      Hoistable.set(Idx);
    Pats.blockedBy(I, Scratch);
    BlockedSoFar |= Scratch;
  }
}

void HoistLocalPredicates::refresh(const FlowGraph &G,
                                   const AssignPatternTable &Pats,
                                   uint64_t PatsGen) {
  size_t NumBlocks = G.numBlocks();
  bool Incremental = Valid && CachedG == &G && CachedGen == PatsGen &&
                     CachedBits == Pats.size() &&
                     LocBlocked.size() <= NumBlocks;
  LocBlocked.resize(NumBlocks);
  LocHoistable.resize(NumBlocks);
  if (!Incremental) {
    // Full rebuild: each block's predicates depend only on that block's
    // instructions and the (const) pattern table, so contiguous block
    // ranges go to the pool with one scratch vector per range.
    threads::pool().parallelRanges(NumBlocks, [&](size_t Begin, size_t End) {
      BitVector Scratch;
      for (size_t B = Begin; B < End; ++B)
        computeBlock(G, Pats, static_cast<BlockId>(B), Scratch);
    });
  } else {
    for (BlockId B = 0; B < NumBlocks; ++B) {
      if (G.blockTick(B) > RefreshTick)
        computeBlock(G, Pats, B, Tmp);
    }
  }
  CachedG = &G;
  CachedGen = PatsGen;
  CachedBits = Pats.size();
  RefreshTick = G.modTick();
  Valid = true;
}

//===----------------------------------------------------------------------===//
// HoistabilityAnalysis
//===----------------------------------------------------------------------===//

HoistabilityAnalysis HoistabilityAnalysis::run(const FlowGraph &G,
                                               const AssignPatternTable &Pats) {
  AM_PROF_SCOPE("analysis.hoistability");
  HoistabilityAnalysis A;
  A.G = &G;
  A.Problem = std::make_unique<HoistabilityProblem>(Pats);
  A.Result = solve(G, *A.Problem);
  A.OwnedLocals = std::make_unique<HoistLocalPredicates>();
  A.OwnedLocals->refresh(G, Pats, /*PatsGen=*/0);
  A.Locals = A.OwnedLocals.get();
  return A;
}

HoistabilityAnalysis HoistabilityAnalysis::run(const FlowGraph &G,
                                               const AssignPatternTable &Pats,
                                               DataflowSolver &Solver,
                                               HoistLocalPredicates &Locals,
                                               uint64_t PatsGen) {
  AM_PROF_SCOPE("analysis.hoistability");
  HoistabilityAnalysis A;
  A.G = &G;
  A.Problem = std::make_unique<HoistabilityProblem>(Pats);
  A.Result = Solver.solve(G, *A.Problem, PatsGen);
  Locals.refresh(G, Pats, PatsGen);
  A.Locals = &Locals;
  return A;
}

BitVector HoistabilityAnalysis::entryInsert(BlockId B) const {
  BitVector Insert = entryHoistable(B);
  if (B == G->start())
    // The start node has no predecessors: its entry is the hoisting
    // frontier for everything still hoistable there.
    return Insert;
  BitVector AnyPredStops(Insert.size());
  for (BlockId P : G->block(B).Preds) {
    BitVector NotHoistable = exitHoistable(P);
    NotHoistable.flipAll();
    AnyPredStops |= NotHoistable;
  }
  Insert &= AnyPredStops;
  return Insert;
}

BitVector HoistabilityAnalysis::exitInsert(BlockId B) const {
  BitVector Insert = exitHoistable(B);
  Insert &= locBlocked(B);
  return Insert;
}

//===----------------------------------------------------------------------===//
// FlushUniverse
//===----------------------------------------------------------------------===//

void FlushUniverse::build(const FlowGraph &G) {
  Temps.clear();
  VarToIdx.assign(G.Vars.size(), npos);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      if (!I.isAssign() || !I.Rhs.isNonTrivial())
        continue;
      if (!G.Vars.isTemp(I.Lhs))
        continue;
      ExprId E = G.Exprs.lookup(I.Rhs);
      if (!isValid(E) || G.Vars.tempFor(I.Lhs) != E)
        continue;
      if (VarToIdx[index(I.Lhs)] != npos)
        continue;
      VarToIdx[index(I.Lhs)] = Temps.size();
      Temps.push_back({I.Lhs, I.Rhs});
    }
  }
}

size_t FlushUniverse::indexOfTemp(VarId V) const {
  size_t Idx = index(V);
  return Idx < VarToIdx.size() ? VarToIdx[Idx] : npos;
}

void FlushUniverse::isInst(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Temps.size());
  if (!I.isAssign())
    return;
  size_t Idx = indexOfTemp(I.Lhs);
  if (Idx != npos && I.Rhs == Temps[Idx].Expr)
    Out.set(Idx);
}

void FlushUniverse::used(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Temps.size());
  I.forEachUsedVar([&](VarId V) {
    size_t Idx = indexOfTemp(V);
    if (Idx != npos)
      Out.set(Idx);
  });
}

void FlushUniverse::blocked(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Temps.size());
  VarId Def = I.definedVar();
  if (!isValid(Def))
    return;
  for (size_t Idx = 0; Idx < Temps.size(); ++Idx) {
    if (Temps[Idx].Var == Def || Temps[Idx].Expr.usesVar(Def))
      Out.set(Idx);
  }
}

//===----------------------------------------------------------------------===//
// FlushAnalysis
//===----------------------------------------------------------------------===//

FlushAnalysis FlushAnalysis::run(const FlowGraph &G) {
  FlushAnalysis A;
  A.G = &G;
  A.UniversePtr = std::make_unique<FlushUniverse>();
  A.UniversePtr->build(G);
  A.DelayProblem = std::make_unique<DelayabilityProblem>(*A.UniversePtr);
  A.UsableProblem = std::make_unique<UsabilityProblem>(*A.UniversePtr);
  {
    AM_PROF_SCOPE("analysis.delayability");
    A.Delay = solve(G, *A.DelayProblem);
  }
  {
    AM_PROF_SCOPE("analysis.usability");
    A.Usable = solve(G, *A.UsableProblem);
  }
  return A;
}

FlushAnalysis::BlockPlan FlushAnalysis::plan(BlockId B) const {
  const FlushUniverse &U = *UniversePtr;
  const auto &Instrs = G->block(B).Instrs;
  DataflowResult::InstrFacts D = Delay.instrFacts(B);
  DataflowResult::InstrFacts Us = Usable.instrFacts(B);

  BlockPlan Plan;
  Plan.InitBefore.resize(Instrs.size());
  Plan.Reconstruct.resize(Instrs.size());

  BitVector Used = U.makeVector(), Blocked = U.makeVector();
  for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
    U.used(Instrs[Idx], Used);
    U.blocked(Instrs[Idx], Blocked);
    // N-LATEST = N-DELAYABLE* · (USED + BLOCKED).
    BitVector NLatest = D.Before[Idx];
    NLatest &= (Used | Blocked);
    // N-INIT = N-LATEST · X-USABLE;  RECONSTRUCT = USED · N-LATEST ·
    // ¬X-USABLE (usability *after* the instruction: its own use does not
    // justify an initialization by itself).
    const BitVector &XUsable = Us.After[Idx];
    Plan.InitBefore[Idx] = NLatest & XUsable;
    Plan.Reconstruct[Idx] = Used & NLatest & ~XUsable;
  }

  // X-LATEST = X-DELAYABLE* · ∃succ ¬N-DELAYABLE*, guarded by usability at
  // the exit so dead initializations vanish instead of being inserted.
  BitVector InitAtExit = Delay.exit(B);
  BitVector AnySuccStops(U.size());
  for (BlockId S : G->block(B).Succs) {
    BitVector NotDelay = Delay.entry(S);
    NotDelay.flipAll();
    AnySuccStops |= NotDelay;
  }
  InitAtExit &= AnySuccStops;
  InitAtExit &= Usable.exit(B);
  Plan.InitAtExit = InitAtExit;
  return Plan;
}
