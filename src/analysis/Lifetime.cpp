//===- analysis/Lifetime.cpp - Live-range metrics ---------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lifetime.h"
#include "analysis/Liveness.h"

using namespace am;

LifetimeStats am::computeLifetimeStats(const FlowGraph &G) {
  LifetimeStats Stats;
  LivenessAnalysis Live = LivenessAnalysis::run(G);

  // Which variable indices are temporaries?
  BitVector TempMask(G.Vars.size());
  for (uint32_t V = 0; V < G.Vars.size(); ++V)
    if (G.Vars.isTemp(makeVarId(V)))
      TempMask.set(V);

  BitVector LiveTemps;
  auto Note = [&](const BitVector &LiveSet) {
    Stats.TotalLifetimePoints += LiveSet.count();
    LiveTemps = LiveSet;
    LiveTemps &= TempMask;
    size_t N = LiveTemps.count();
    Stats.TempLifetimePoints += N;
    Stats.MaxLiveTemps = std::max(Stats.MaxLiveTemps,
                                  static_cast<uint32_t>(N));
  };

  FactWalk Walk;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    // Count the point before every instruction plus the block exit; empty
    // blocks contribute their single entry/exit point.
    Live.walk(B, Walk, [&](size_t, const BitVector &Before,
                           const BitVector &) { Note(Before); });
    Note(Live.liveOut(B).toBitVector());
    for (const Instr &I : G.block(B).Instrs)
      if (I.isAssign() && G.Vars.isTemp(I.Lhs))
        ++Stats.TempAssignments;
  }
  return Stats;
}
