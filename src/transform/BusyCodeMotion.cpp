//===- transform/BusyCodeMotion.cpp - BCM implementation -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/BusyCodeMotion.h"
#include "analysis/LcmAnalyses.h"
#include "transform/Normalize.h"

using namespace am;

FlowGraph am::runBusyCodeMotion(const FlowGraph &G) {
  FlowGraph Work = G;
  removeSkips(Work);
  Work.splitCriticalEdges();

  ExprPatternTable Exprs;
  Exprs.build(Work);
  if (Exprs.size() == 0)
    return simplified(Work);

  LcmAnalysis Lcm = LcmAnalysis::run(Work, Exprs);
  size_t Bits = Exprs.size();

  // Local COMP ("computed and still available at the block's exit").
  std::vector<BitVector> Comp(Work.numBlocks(), BitVector(Bits));
  {
    BitVector Computed(Bits), Killed(Bits);
    for (BlockId B = 0; B < Work.numBlocks(); ++B) {
      BitVector KilledAfter(Bits);
      const auto &Instrs = Work.block(B).Instrs;
      for (size_t Idx = Instrs.size(); Idx-- > 0;) {
        Exprs.computedBy(Instrs[Idx], Computed);
        Exprs.killedBy(Instrs[Idx], Killed);
        Computed.andNot(Killed); // self-killing computations don't count
        Computed.andNot(KilledAfter);
        Comp[B] |= Computed;
        KilledAfter |= Killed;
      }
    }
  }

  // Availability of the temporaries under BCM placement:
  //   HAVAILIN(b)  = ∧ over in-edges (EARLIEST(m,b) ∨ HAVAILOUT(m)),
  //                  with HAVAILIN(s) = ANTIN(s)  (insertion at s's entry);
  //   HAVAILOUT(b) = COMP(b) ∨ (HAVAILIN(b) ∧ TRANSP(b)).
  // Greatest fixpoint.
  std::vector<std::vector<std::pair<BlockId, size_t>>> InEdges(
      Work.numBlocks());
  for (BlockId B = 0; B < Work.numBlocks(); ++B)
    for (size_t SuccIdx = 0; SuccIdx < Work.block(B).Succs.size(); ++SuccIdx)
      InEdges[Work.block(B).Succs[SuccIdx]].emplace_back(B, SuccIdx);

  std::vector<BitVector> HAvailIn(Work.numBlocks(), BitVector(Bits, true));
  std::vector<BitVector> HAvailOut(Work.numBlocks(), BitVector(Bits, true));
  std::vector<BlockId> Order = Work.reversePostorder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Order) {
      BitVector NewIn(Bits, true);
      if (B == Work.start()) {
        Lcm.antIn(B).copyTo(NewIn);
      } else {
        for (const auto &[M, SuccIdx] : InEdges[B]) {
          BitVector Edge = Lcm.earliest(M, SuccIdx);
          Edge |= HAvailOut[M];
          NewIn &= Edge;
        }
      }
      BitVector NewOut = NewIn;
      NewOut &= Lcm.transp(B);
      NewOut |= Comp[B];
      if (NewIn != HAvailIn[B] || NewOut != HAvailOut[B]) {
        HAvailIn[B] = NewIn;
        HAvailOut[B] = NewOut;
        Changed = true;
      }
    }
  }

  // Record insertions: the earliest edges, plus the entry of s.
  std::vector<std::vector<size_t>> AtEnd(Work.numBlocks());
  std::vector<std::vector<size_t>> AtEntry(Work.numBlocks());
  AtEntry[Work.start()] = Lcm.antIn(Work.start()).toBitVector().setBits();
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    const auto &Succs = Work.block(B).Succs;
    for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx) {
      BitVector Ins = Lcm.earliest(B, SuccIdx);
      if (Ins.none())
        continue;
      for (size_t E : Ins.setBits()) {
        if (Succs.size() == 1)
          AtEnd[B].push_back(E);
        else
          AtEntry[Succs[SuccIdx]].push_back(E);
      }
    }
  }

  auto TempFor = [&](size_t E) {
    ExprId Id = Work.Exprs.intern(Exprs.term(E));
    return Work.Exprs.temporary(Id, Work.Vars);
  };

  // Rewrite blocks exactly like the LCM transform, with HAVAILIN as the
  // entry availability.
  BitVector Killed(Bits);
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    BasicBlock &BB = Work.block(B);
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size() + AtEntry[B].size() + AtEnd[B].size());
    auto EmitInit = [&](size_t E) {
      NewInstrs.push_back(Instr::assign(TempFor(E), Exprs.term(E)));
    };
    for (size_t E : AtEntry[B])
      EmitInit(E);
    BitVector Avail = HAvailIn[B];
    for (const Instr &I : BB.Instrs) {
      Instr NewI = I;
      auto RewriteTerm = [&](Term &T) {
        if (!T.isNonTrivial())
          return;
        size_t E = Exprs.indexOf(T);
        if (E == ExprPatternTable::npos)
          return;
        if (!Avail.test(E)) {
          EmitInit(E);
          Avail.set(E);
        }
        T = Term::var(TempFor(E));
      };
      if (NewI.isAssign()) {
        RewriteTerm(NewI.Rhs);
      } else if (NewI.isBranch()) {
        RewriteTerm(NewI.CondL);
        RewriteTerm(NewI.CondR);
      }
      NewInstrs.push_back(std::move(NewI));
      Exprs.killedBy(I, Killed);
      Avail.andNot(Killed);
    }
    for (size_t E : AtEnd[B])
      EmitInit(E);
    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      Work.touchBlock(B);
    }
  }

  removeSkips(Work);
  return simplified(Work);
}
