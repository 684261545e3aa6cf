//===- transform/CopyPropagation.cpp - CP implementation --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/CopyPropagation.h"
#include "analysis/CopyAnalysis.h"

using namespace am;

namespace {

/// One propagation pass; returns the number of rewritten uses.
unsigned propagateOnce(FlowGraph &G) {
  CopyAnalysis Analysis = CopyAnalysis::run(G);
  const CopyUniverse &U = Analysis.universe();
  if (U.size() == 0)
    return 0;

  unsigned Rewritten = 0;
  FactWalk Walk;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    // The walk computes instruction Idx's transfer before visiting it, so
    // rewriting Idx's operands in the visit leaves the facts those of the
    // analyzed program.
    Analysis.walk(B, Walk, [&](size_t Idx, const BitVector &Reaching,
                               const BitVector &) {
      if (Reaching.none())
        return;
      auto RewriteOperand = [&](Operand &O) {
        if (!O.isVar())
          return;
        for (size_t C = 0; C < U.size(); ++C) {
          if (U.dst(C) == O.Var && Reaching.test(C)) {
            O.Var = U.src(C);
            ++Rewritten;
            return;
          }
        }
      };
      Instr &I = Instrs[Idx];
      if (I.isAssign()) {
        RewriteOperand(I.Rhs.A);
        if (I.Rhs.isNonTrivial())
          RewriteOperand(I.Rhs.B);
      } else if (I.isBranch()) {
        RewriteOperand(I.CondL.A);
        if (I.CondL.isNonTrivial())
          RewriteOperand(I.CondL.B);
        RewriteOperand(I.CondR.A);
        if (I.CondR.isNonTrivial())
          RewriteOperand(I.CondR.B);
      }
    });
  }
  return Rewritten;
}

} // namespace

unsigned am::runCopyPropagation(FlowGraph &G) {
  unsigned Total = 0;
  // Copy chains (x := y; z := x; use z) resolve in at most |V| passes;
  // cap defensively.
  for (unsigned Pass = 0; Pass < G.Vars.size() + 2; ++Pass) {
    unsigned Rewritten = propagateOnce(G);
    Total += Rewritten;
    if (Rewritten == 0)
      break;
  }
  return Total;
}
