//===- analysis/PaperAnalyses.cpp - Tables 1-3 implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/PaperAnalyses.h"
#include "support/Profiler.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>

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
    U.used(I, Out);
    for (uint32_t Idx : U.blockedBy(I.definedVar()))
      Out.set(Idx);
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
                                        BlockId B, BlockScratch &S) {
  constexpr uint8_t Defined = 1, Used = 2;
  size_t Bits = Pats.size();
  BitVector &Hoistable = LocHoistable[B];
  BitVector &Blocked = LocBlocked[B];
  Hoistable.clearAndResize(Bits);
  Blocked.clearAndResize(Bits);
  S.Flags.resize(G.Vars.size(), 0);
  auto Mark = [&](VarId V, uint8_t F) {
    uint8_t &Flags = S.Flags[index(V)];
    if (Flags == 0)
      S.Seen.push_back(V);
    Flags |= F;
  };
  for (const Instr &I : G.block(B).Instrs) {
    // A hoisting candidate is an occurrence not preceded (within the
    // block) by an instruction blocking it: `x := t` is blocked once x or
    // an operand of t was defined, or x was used, earlier in the block —
    // AssignPatternTable::blockedBy's relation (Definition 3.2), asked
    // per occurrence.
    size_t Idx = Pats.occurrence(I);
    if (Idx != AssignPatternTable::npos) {
      const AssignPat &P = Pats.pattern(Idx);
      bool IsBlocked = S.Flags[index(P.Lhs)] != 0;
      P.Rhs.forEachVar(
          [&](VarId V) { IsBlocked |= (S.Flags[index(V)] & Defined) != 0; });
      if (!IsBlocked)
        Hoistable.set(Idx);
    }
    VarId Def = I.definedVar();
    if (isValid(Def))
      Mark(Def, Defined);
    I.forEachUsedVar([&](VarId V) { Mark(V, Used); });
  }
  // LOC-BLOCKED is the union of the block's blockedBy sets: the patterns
  // a defined variable blocks (as left-hand side or operand) and those a
  // used variable blocks (as left-hand side), once per distinct variable.
  for (VarId V : S.Seen) {
    uint8_t Flags = S.Flags[index(V)];
    S.Flags[index(V)] = 0;
    Blocked |= Pats.lhsPats(V);
    if (Flags & Defined)
      Blocked |= Pats.rhsUsePats(V);
  }
  S.Seen.clear();
}

void HoistLocalPredicates::computeBlocks(const FlowGraph &G,
                                         const AssignPatternTable &Pats,
                                         size_t N, const BlockId *Blocks) {
  // Each block's predicates depend only on that block's instructions and
  // the (const) pattern table, so contiguous ranges go to the pool with
  // per-thread scratch; a handful of blocks is not worth the trip.
  auto Range = [&](size_t Begin, size_t End) {
    static thread_local BlockScratch S;
    for (size_t I = Begin; I < End; ++I)
      computeBlock(G, Pats, Blocks ? Blocks[I] : static_cast<BlockId>(I), S);
  };
  if (N >= 64)
    threads::pool().parallelRanges(N, Range);
  else
    Range(0, N);
}

void HoistLocalPredicates::refresh(const FlowGraph &G,
                                   const AssignPatternTable &Pats,
                                   uint64_t PatsGen) {
  AM_PROF_SCOPE("hoist.locals");
  size_t NumBlocks = G.numBlocks();
  bool Incremental = Valid && CachedG == &G && CachedGen == PatsGen &&
                     CachedBits == Pats.size() &&
                     LocBlocked.size() <= NumBlocks;
  LocBlocked.resize(NumBlocks);
  LocHoistable.resize(NumBlocks);
  if (!Incremental) {
    computeBlocks(G, Pats, NumBlocks, nullptr);
  } else {
    Dirty.clear();
    for (BlockId B = 0; B < NumBlocks; ++B)
      if (G.blockTick(B) > RefreshTick)
        Dirty.push_back(B);
    computeBlocks(G, Pats, Dirty.size(), Dirty.data());
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

void HoistabilityAnalysis::entryInsert(BlockId B, BitVector &Out) const {
  Out.clearAndResize(Result.problem().numBits());
  auto Set = [&](size_t W, uint64_t Bits) { Out.setWord(W, Bits); };
  forEachEntryInsertWord(B, Set);
}

void HoistabilityAnalysis::exitInsert(BlockId B, BitVector &Out) const {
  Out.clearAndResize(Result.problem().numBits());
  auto Set = [&](size_t W, uint64_t Bits) { Out.setWord(W, Bits); };
  forEachExitInsertWord(B, Set);
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

  // blockedBy() per variable.  Visiting temps in index order keeps every
  // list ascending; the back() check dedupes a variable occurring twice
  // in one temp (`a + a`).
  BlockedByVar.assign(G.Vars.size(), {});
  for (uint32_t Idx = 0; Idx < Temps.size(); ++Idx) {
    auto Note = [&](VarId V) {
      std::vector<uint32_t> &List = BlockedByVar[index(V)];
      if (List.empty() || List.back() != Idx)
        List.push_back(Idx);
    };
    Note(Temps[Idx].Var);
    Temps[Idx].Expr.forEachVar(Note);
  }
}

size_t FlushUniverse::indexOfTemp(VarId V) const {
  size_t Idx = index(V);
  return Idx < VarToIdx.size() ? VarToIdx[Idx] : npos;
}

size_t FlushUniverse::instOf(const Instr &I) const {
  if (!I.isAssign())
    return npos;
  size_t Idx = indexOfTemp(I.Lhs);
  return Idx != npos && I.Rhs == Temps[Idx].Expr ? Idx : npos;
}

void FlushUniverse::isInst(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Temps.size());
  size_t Idx = instOf(I);
  if (Idx != npos)
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

std::span<const uint32_t> FlushUniverse::blockedBy(VarId V) const {
  size_t Idx = index(V);
  return Idx < BlockedByVar.size() ? std::span<const uint32_t>(BlockedByVar[Idx])
                                   : std::span<const uint32_t>();
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

void FlushAnalysis::plan(BlockId B, BlockPlan &Out) const {
  const FlushUniverse &U = *UniversePtr;
  const auto &Instrs = G->block(B).Instrs;

  // N-LATEST = N-DELAYABLE* · (USED + BLOCKED) can only hold at an
  // instruction's USED ∪ BLOCKED candidates: collect them, ascending.
  Cands.clear();
  CandOff.assign(1, 0);
  for (const Instr &I : Instrs) {
    size_t First = Cands.size();
    for (uint32_t Idx : U.blockedBy(I.definedVar()))
      Cands.push_back(Candidate{Idx, false, false});
    I.forEachUsedVar([&](VarId V) {
      size_t Idx = U.indexOfTemp(V);
      if (Idx == FlushUniverse::npos)
        return;
      auto It = std::lower_bound(
          Cands.begin() + static_cast<std::ptrdiff_t>(First), Cands.end(),
          Idx, [](const Candidate &C, size_t T) { return C.Temp < T; });
      if (It == Cands.end() || It->Temp != Idx)
        It = Cands.insert(It, Candidate{static_cast<uint32_t>(Idx), false, false});
      It->Used = true;
    });
    CandOff.push_back(static_cast<uint32_t>(Cands.size()));
  }

  // X-USABLE at the candidates (usability *after* the instruction: its
  // own use does not justify an initialization by itself).
  Usable.walk(B, Walk,
              [&](size_t Idx, const BitVector &, const BitVector &After) {
                for (uint32_t C = CandOff[Idx]; C != CandOff[Idx + 1]; ++C)
                  Cands[C].XUsable = After.test(Cands[C].Temp);
              });

  // N-INIT = N-LATEST · X-USABLE;  RECONSTRUCT = USED · N-LATEST ·
  // ¬X-USABLE.
  Out.Off.assign(1, 0);
  Out.Temps.clear();
  Delay.walk(B, Walk,
             [&](size_t Idx, const BitVector &Before, const BitVector &) {
               uint32_t Begin = CandOff[Idx], End = CandOff[Idx + 1];
               for (uint32_t C = Begin; C != End; ++C)
                 if (Cands[C].XUsable && Before.test(Cands[C].Temp))
                   Out.Temps.push_back(Cands[C].Temp);
               Out.Off.push_back(static_cast<uint32_t>(Out.Temps.size()));
               for (uint32_t C = Begin; C != End; ++C)
                 if (Cands[C].Used && !Cands[C].XUsable &&
                     Before.test(Cands[C].Temp))
                   Out.Temps.push_back(Cands[C].Temp);
               Out.Off.push_back(static_cast<uint32_t>(Out.Temps.size()));
             });

  exitInits(B, Out.InitAtExit);
}

void FlushAnalysis::exitInits(BlockId B, std::vector<uint32_t> &Out) const {
  // X-LATEST = X-DELAYABLE* · ∃succ ¬N-DELAYABLE*, guarded by usability at
  // the exit so dead initializations vanish instead of being inserted.
  Out.clear();
  const auto &Succs = G->block(B).Succs;
  FactRow DelayExit = Delay.exit(B);
  FactRow UsableExit = Usable.exit(B);
  for (size_t W = 0, E = DelayExit.numWords(); W != E; ++W) {
    uint64_t Bits = DelayExit.word(W) & UsableExit.word(W);
    if (Bits == 0)
      continue;
    uint64_t AnySuccStops = 0;
    for (BlockId S : Succs)
      AnySuccStops |= ~Delay.entry(S).word(W);
    for (Bits &= AnySuccStops; Bits != 0; Bits &= Bits - 1)
      Out.push_back(static_cast<uint32_t>(W * 64 + std::countr_zero(Bits)));
  }
}
