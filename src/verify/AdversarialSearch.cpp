//===- verify/AdversarialSearch.cpp - Optimality fuzzing --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "verify/AdversarialSearch.h"
#include "analysis/PaperAnalyses.h"
#include "ir/Patterns.h"
#include "transform/AssignmentHoisting.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"

using namespace am;

unsigned am::eliminateRandomRedundant(FlowGraph &G, Rng &R, double KeepProb) {
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() == 0)
    return 0;
  RedundancyAnalysis Redundancy = RedundancyAnalysis::run(G, Pats);

  unsigned NumEliminated = 0;
  FactWalk Walk;
  std::vector<bool> Remove;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    if (Instrs.empty())
      continue;
    Remove.assign(Instrs.size(), false);
    Redundancy.walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                                 const BitVector &) {
      size_t Pat = Pats.occurrence(Instrs[Idx]);
      bool Redundant = Pat != AssignPatternTable::npos && Before.test(Pat);
      if (Redundant && R.chance(KeepProb)) {
        Remove[Idx] = true;
        ++NumEliminated;
      }
    });
    std::vector<Instr> Kept;
    Kept.reserve(Instrs.size());
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx)
      if (!Remove[Idx])
        Kept.push_back(std::move(Instrs[Idx]));
    Instrs = std::move(Kept);
  }
  return NumEliminated;
}

FlowGraph am::randomUniverseMember(const FlowGraph &G, uint64_t Seed,
                                   const DerivationOptions &Opts) {
  Rng R(Seed);
  FlowGraph Work = G;
  removeSkips(Work);
  Work.splitCriticalEdges();
  runInitializationPhase(Work);

  for (unsigned Step = 0; Step < Opts.Steps; ++Step) {
    if (R.chance(Opts.EliminationProb)) {
      eliminateRandomRedundant(Work, R);
      continue;
    }
    // Hoist a random subset of the patterns.
    runAssignmentHoisting(Work, [&](const AssignPatternTable &Pats) {
      BitVector Allowed(Pats.size());
      for (size_t Idx = 0; Idx < Pats.size(); ++Idx)
        if (R.chance(0.5))
          Allowed.set(Idx);
      return Allowed;
    });
  }
  if (R.chance(Opts.FlushProb))
    runFinalFlush(Work);
  return Work;
}
