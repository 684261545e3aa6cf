//===- tests/ReferenceSolver.h - Round-robin dataflow oracle ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle every solver test compares DataflowSolver against: the
/// textbook round-robin fixpoint, with no caching, no composed transfers
/// and no packing.  Each sweep re-evaluates every block of the
/// (reverse-graph) reverse postorder, replaying its instructions' gen/kill
/// one by one, until a sweep changes no transferred side — then every meet
/// side was recomputed from final neighbor values, so the whole solution
/// is consistent.  Blocks outside the order (unreachable ones) keep the
/// optimistic initial value, as in the engine.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TESTS_REFERENCESOLVER_H
#define AM_TESTS_REFERENCESOLVER_H

#include "dfa/Dataflow.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace am::test {

struct ReferenceSolution {
  std::vector<BitVector> Entry, Exit;
  uint64_t Sweeps = 0;
  uint64_t BlocksProcessed = 0;
};

inline ReferenceSolution referenceSolve(const FlowGraph &G,
                                        const DataflowProblem &P) {
  bool Forward = P.direction() == Direction::Forward;
  bool MeetAll = P.meet() == Meet::All;
  BitVector Init(P.numBits());
  if (MeetAll)
    Init.setAll();
  BitVector Boundary;
  P.boundary(Boundary);
  BlockId BoundaryBlock = Forward ? G.start() : G.end();

  // In = meet side (entry for forward problems), Out = transferred side.
  std::vector<BitVector> In(G.numBlocks(), Init), Out(G.numBlocks(), Init);
  std::vector<BlockId> Order =
      Forward ? G.reversePostorder() : G.reverseGraphReversePostorder();
  ReferenceSolution S;
  BitVector Gen, Kill;
  for (bool Changed = true; Changed;) {
    Changed = false;
    ++S.Sweeps;
    for (BlockId B : Order) {
      ++S.BlocksProcessed;
      // Init is the meet's identity, so a block without meet edges keeps
      // the optimistic value.
      BitVector NewIn = B == BoundaryBlock ? Boundary : Init;
      if (B != BoundaryBlock)
        for (BlockId E : Forward ? G.block(B).Preds : G.block(B).Succs) {
          if (MeetAll)
            NewIn &= Out[E];
          else
            NewIn |= Out[E];
        }
      BitVector Cur = NewIn;
      const auto &Instrs = G.block(B).Instrs;
      for (size_t Step = 0; Step < Instrs.size(); ++Step) {
        size_t Idx = Forward ? Step : Instrs.size() - 1 - Step;
        P.gen(B, Idx, Instrs[Idx], Gen);
        P.kill(B, Idx, Instrs[Idx], Kill);
        Cur.andNot(Kill);
        Cur |= Gen;
      }
      Changed |= Cur != Out[B];
      In[B] = std::move(NewIn);
      Out[B] = std::move(Cur);
    }
  }
  S.Entry = Forward ? In : Out;
  S.Exit = Forward ? Out : In;
  return S;
}

/// Success iff \p R holds the reference solution of its problem over \p G
/// at every block entry and exit; otherwise names the first mismatch.
inline ::testing::AssertionResult matchesReference(const FlowGraph &G,
                                                   const DataflowResult &R) {
  ReferenceSolution Ref = referenceSolve(G, R.problem());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    if (R.entry(B) != Ref.Entry[B])
      return ::testing::AssertionFailure()
             << "entry of block " << B << " differs ("
             << R.problem().numBits() << " bits)";
    if (R.exit(B) != Ref.Exit[B])
      return ::testing::AssertionFailure()
             << "exit of block " << B << " differs ("
             << R.problem().numBits() << " bits)";
  }
  return ::testing::AssertionSuccess();
}

} // namespace am::test

#endif // AM_TESTS_REFERENCESOLVER_H
