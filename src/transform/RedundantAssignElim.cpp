//===- transform/RedundantAssignElim.cpp - rae implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/RedundantAssignElim.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "report/Recorder.h"
#include "support/Profiler.h"
#include "support/Remarks.h"
#include "transform/AssignmentMotion.h"
#include "verify/FaultInjector.h"

#include <algorithm>

using namespace am;

namespace {

/// Names the occurrence that makes the kill at \p Idx redundant: the
/// nearest preceding same-pattern occurrence in the block, or — when the
/// redundancy flows in over the block entry — the predecessors whose exit
/// carries the X-REDUNDANT bit.  Purely for remark payloads.
std::string describeDefiner(const FlowGraph &G, BlockId B, size_t Idx,
                            size_t Pat, const AssignPatternTable &Pats,
                            const RedundancyAnalysis &Redundancy) {
  const auto &Instrs = G.block(B).Instrs;
  for (size_t Prev = Idx; Prev-- > 0;) {
    if (Pats.occurrence(Instrs[Prev]) == Pat)
      return "#" + std::to_string(Instrs[Prev].Id) + " (same block)";
  }
  std::string Out;
  for (BlockId P : G.block(B).Preds) {
    if (Redundancy.exit(P).test(Pat)) {
      if (!Out.empty())
        Out += ", ";
      Out += "exit(b" + std::to_string(P) + ")";
    }
  }
  return Out.empty() ? std::string("entry") : Out;
}

} // namespace

unsigned am::runRedundantAssignmentElimination(FlowGraph &G, AmContext &Ctx) {
  AM_PROF_SCOPE("rae");
  AM_REMARK_PASS_SCOPE("rae");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  Ctx.refreshPatterns(G);
  const AssignPatternTable &Pats = Ctx.patterns();
  if (Pats.size() == 0)
    return 0;
  RedundancyAnalysis Redundancy = RedundancyAnalysis::run(
      G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureRedundancy(G, Pats, Redundancy, Rec->round());

  // Record all decisions first, then mutate.  N-REDUNDANT is decided per
  // occurrence, never replayed across the universe: within a block, the
  // Table 2 transfer X = EXECUTED + ASS-TRANSP · N leaves pattern p set
  // before instruction Idx iff its last earlier eligible occurrence is at
  // or after the last earlier modification of p's left-hand side or
  // operands (an occurrence kills and generates p at once, and the
  // generation wins), or — with neither earlier in the block — iff p
  // holds at the block entry.  Positions are stored one-based, 0 = none.
  AM_PROF_SCOPE("rae.rewrite");
  unsigned NumEliminated = 0;
  std::vector<bool> Remove;
  std::vector<size_t> Occurrence;
  std::vector<size_t> LastDef(G.Vars.size(), 0);
  std::vector<size_t> LastOcc(Pats.size(), 0);
  const BitVector &Eligible = Pats.redundancyEligible();
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    // N-REDUNDANT is only needed where an occurrence could actually be
    // eliminated.
    Occurrence.clear();
    bool HasOccurrence = false;
    for (const Instr &I : Instrs) {
      Occurrence.push_back(Pats.occurrence(I));
      HasOccurrence |= Occurrence.back() != AssignPatternTable::npos;
    }
    if (!HasOccurrence)
      continue;
    Remove.assign(Instrs.size(), false);
    unsigned RemovedHere = 0;
    FactRow Entry = Redundancy.entry(B);
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      size_t Pat = Occurrence[Idx];
      VarId Def = Instrs[Idx].definedVar();
      if (Pat == AssignPatternTable::npos) {
        if (isValid(Def))
          LastDef[index(Def)] = Idx + 1;
        continue;
      }
      const AssignPat &P = Pats.pattern(Pat);
      size_t Kill = LastDef[index(P.Lhs)];
      P.Rhs.forEachVar(
          [&](VarId V) { Kill = std::max(Kill, LastDef[index(V)]); });
      size_t Gen = LastOcc[Pat];
      bool Redundant = Gen != 0 ? Gen >= Kill : Kill == 0 && Entry.test(Pat);
      if (Eligible.test(Pat))
        LastOcc[Pat] = Idx + 1;
      LastDef[index(Def)] = Idx + 1;
      if (!Redundant)
        if (fault::FaultInjector *FI = fault::FaultInjector::current())
          // rae-flip: treat one non-redundant occurrence as redundant, as
          // if a N-REDUNDANT dataflow bit were flipped.
          Redundant = FI->fire(fault::FaultClass::RaeFlipBit);
      if (!Redundant)
        continue;
      Remove[Idx] = true;
      ++RemovedHere;
      if (AM_REMARKS_ENABLED()) {
        // A removal always commits (the list shrinks), so the remark
        // can be emitted directly.
        remarks::Remark R;
        R.K = remarks::Kind::Eliminate;
        R.InstrId = Instrs[Idx].Id;
        R.Block = B;
        R.InstrIndex = static_cast<uint32_t>(Idx);
        R.Terminal = true;
        R.Pattern = printInstr(Instrs[Idx], G.Vars);
        if (Instrs[Idx].isAssign())
          R.Var = G.Vars.name(Instrs[Idx].Lhs);
        R.Solve = Redundancy.solveSerial();
        R.fact("N-REDUNDANT", "1")
            .fact("defined_by",
                  describeDefiner(G, B, Idx, Pat, Pats, Redundancy));
        remarks::Sink::get().add(std::move(R));
      }
    }
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      if (Occurrence[Idx] != AssignPatternTable::npos)
        LastOcc[Occurrence[Idx]] = 0;
      if (isValid(Instrs[Idx].definedVar()))
        LastDef[index(Instrs[Idx].definedVar())] = 0;
    }
    if (RemovedHere == 0)
      continue;
    NumEliminated += RemovedHere;
    std::vector<Instr> Kept;
    Kept.reserve(Instrs.size() - RemovedHere);
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx)
      if (!Remove[Idx])
        Kept.push_back(std::move(Instrs[Idx]));
    Instrs = std::move(Kept);
    G.touchBlock(B);
  }
  return NumEliminated;
}

unsigned am::runRedundantAssignmentElimination(FlowGraph &G) {
  AmContext Ctx;
  return runRedundantAssignmentElimination(G, Ctx);
}
