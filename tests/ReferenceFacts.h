//===- tests/ReferenceFacts.h - Dense per-instruction fact oracle -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracles the sparse per-instruction machinery is tested against,
/// kept in the dense form the library no longer uses:
///
///  * referenceFacts: one stored |universe|-wide fact before and after
///    every instruction of a block, replayed from the block-boundary fact;
///  * referenceBlocked: FlushUniverse's BLOCKED by its definition, one
///    scan over every temporary;
///  * referencePlan: the flush placement predicates of Table 3 evaluated
///    as whole-vector formulas over those dense facts.
///
/// Plus walkFacts, which records DataflowResult::walk's facts into the
/// same dense shape so tests can index them.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TESTS_REFERENCEFACTS_H
#define AM_TESTS_REFERENCEFACTS_H

#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"

#include <cstdint>
#include <span>
#include <vector>

namespace am::test {

/// Facts at every instruction boundary of one block: Before[i] is the fact
/// immediately before instruction i, After[i] immediately after.
struct DenseFacts {
  std::vector<BitVector> Before;
  std::vector<BitVector> After;
};

/// Replays block \p B's gen/kill from the solution's boundary fact and
/// stores every intermediate fact.
inline DenseFacts referenceFacts(const FlowGraph &G, const DataflowResult &R,
                                 BlockId B) {
  const DataflowProblem &P = R.problem();
  const auto &Instrs = G.block(B).Instrs;
  size_t N = Instrs.size();
  DenseFacts F;
  F.Before.resize(N);
  F.After.resize(N);
  BitVector Gen(P.numBits()), Kill(P.numBits());
  if (P.direction() == Direction::Forward) {
    BitVector Cur = R.entry(B).toBitVector();
    for (size_t Idx = 0; Idx < N; ++Idx) {
      F.Before[Idx] = Cur;
      P.gen(B, Idx, Instrs[Idx], Gen);
      P.kill(B, Idx, Instrs[Idx], Kill);
      Cur.andNot(Kill);
      Cur |= Gen;
      F.After[Idx] = Cur;
    }
  } else {
    BitVector Cur = R.exit(B).toBitVector();
    for (size_t Idx = N; Idx-- > 0;) {
      F.After[Idx] = Cur;
      P.gen(B, Idx, Instrs[Idx], Gen);
      P.kill(B, Idx, Instrs[Idx], Kill);
      Cur.andNot(Kill);
      Cur |= Gen;
      F.Before[Idx] = Cur;
    }
  }
  return F;
}

/// The facts an analysis' walk() visits in block \p B, stored densely.
/// \p A is a DataflowResult or any analysis forwarding walk().
template <typename Walkable>
DenseFacts walkFacts(const FlowGraph &G, const Walkable &A, BlockId B) {
  size_t N = G.block(B).Instrs.size();
  DenseFacts F;
  F.Before.resize(N);
  F.After.resize(N);
  FactWalk S;
  A.walk(B, S, [&](size_t Idx, const BitVector &Before,
                   const BitVector &After) {
    F.Before[Idx] = Before;
    F.After[Idx] = After;
  });
  return F;
}

/// BLOCKED by definition: the temporaries h_e with h_e or an operand of e
/// modified by \p I.
inline BitVector referenceBlocked(const FlushUniverse &U, const Instr &I) {
  BitVector Out = U.makeVector();
  VarId Def = I.definedVar();
  if (!isValid(Def))
    return Out;
  for (size_t Idx = 0; Idx < U.size(); ++Idx)
    if (U.temp(Idx) == Def || U.expr(Idx).usesVar(Def))
      Out.set(Idx);
  return Out;
}

/// Table 3's placement predicates for one block, as dense vectors.
struct DensePlan {
  std::vector<BitVector> InitBefore;  ///< N-INIT per instruction.
  std::vector<BitVector> Reconstruct; ///< RECONSTRUCT per instruction.
  BitVector InitAtExit;               ///< X-INIT.
};

inline DensePlan referencePlan(const FlowGraph &G, const FlushAnalysis &A,
                               BlockId B) {
  const FlushUniverse &U = A.universe();
  const auto &Instrs = G.block(B).Instrs;
  DenseFacts D = referenceFacts(G, A.delayability(), B);
  DenseFacts Us = referenceFacts(G, A.usability(), B);
  DensePlan Plan;
  BitVector Used = U.makeVector();
  for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
    U.used(Instrs[Idx], Used);
    // N-LATEST = N-DELAYABLE* · (USED + BLOCKED).
    BitVector NLatest = D.Before[Idx];
    NLatest &= (Used | referenceBlocked(U, Instrs[Idx]));
    // N-INIT = N-LATEST · X-USABLE;  RECONSTRUCT = USED · N-LATEST ·
    // ¬X-USABLE.
    const BitVector &XUsable = Us.After[Idx];
    Plan.InitBefore.push_back(NLatest & XUsable);
    Plan.Reconstruct.push_back(Used & NLatest & ~XUsable);
  }
  // X-LATEST = X-DELAYABLE* · ∃succ ¬N-DELAYABLE*, guarded by X-USABLE.
  Plan.InitAtExit = A.delayability().exit(B).toBitVector();
  BitVector AnySuccStops = U.makeVector();
  for (BlockId S : G.block(B).Succs) {
    BitVector NotDelay = A.delayability().entry(S).toBitVector();
    NotDelay.flipAll();
    AnySuccStops |= NotDelay;
  }
  Plan.InitAtExit &= AnySuccStops;
  Plan.InitAtExit &= A.usability().exit(B).toBitVector();
  return Plan;
}

/// The ascending set bits of \p V, for comparison with sparse lists.
inline std::vector<uint32_t> bitsOf(const BitVector &V) {
  std::vector<uint32_t> Out;
  V.forEachSetBit([&](size_t Idx) { Out.push_back(static_cast<uint32_t>(Idx)); });
  return Out;
}

inline std::vector<uint32_t> listOf(std::span<const uint32_t> S) {
  return {S.begin(), S.end()};
}

/// True if the ascending list \p S holds \p Idx.
inline bool holds(std::span<const uint32_t> S, size_t Idx) {
  for (uint32_t X : S)
    if (X == Idx)
      return true;
  return false;
}

} // namespace am::test

#endif // AM_TESTS_REFERENCEFACTS_H
