//===- transform/AssignmentHoisting.cpp - aht implementation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/AssignmentHoisting.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "report/Recorder.h"
#include "support/Profiler.h"
#include "support/Remarks.h"
#include "transform/AssignmentMotion.h"
#include "verify/FaultInjector.h"

#include <algorithm>
#include <bit>

using namespace am;

namespace {

/// A remark buffered during the rebuild of one block.  Remarks are only
/// published if the block's rebuild actually commits (NewInstrs differs
/// from the old list): a remove+reinsert that reproduces the identical
/// instruction sequence is a no-op whose old instructions — and old ids —
/// survive, so publishing its remarks would fabricate history.
struct PendingRemark {
  remarks::Remark R;
  size_t Pat;     // pattern index, for post-hoc parent linking
  bool IsInsert;  // inserted instance (Parents filled after the loop)
};

} // namespace

bool am::runAssignmentHoisting(FlowGraph &G, AmContext &Ctx,
                               const HoistFilter &Filter) {
  assert(!G.hasCriticalEdges() &&
         "assignment hoisting requires split critical edges");
  AM_PROF_SCOPE("aht");
  AM_REMARK_PASS_SCOPE("aht");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  Ctx.refreshPatterns(G);
  const AssignPatternTable &Pats = Ctx.patterns();
  if (Pats.size() == 0)
    return false;
  HoistabilityAnalysis Hoist =
      HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(), Ctx.hoistLocals(),
                                Ctx.patternGeneration());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureHoistability(G, Pats, Hoist, Rec->round());

  // Without a filter every pattern is allowed and the restriction is
  // skipped outright.
  BitVector Allowed;
  if (Filter)
    Allowed = Filter(Pats);
  auto IsAllowed = [&](size_t Pat) { return !Filter || Allowed.test(Pat); };
  // Appends the allowed patterns of one insertion word to a list.
  auto AppendTo = [&](std::vector<size_t> &List) {
    return [&](size_t W, uint64_t Bits) {
      if (Filter)
        Bits &= Allowed.word(W);
      for (; Bits != 0; Bits &= Bits - 1)
        List.push_back(W * 64 + static_cast<size_t>(std::countr_zero(Bits)));
    };
  };

  // Phase 1: record all decisions against the frozen graph.
  struct BlockDecision {
    /// Exit-inserts realized here on behalf of a branching predecessor
    /// whose condition blocks the pattern: (pattern, pred block).
    std::vector<std::pair<size_t, BlockId>> FromPreds;
    std::vector<size_t> AtEntry;      // N-INSERT
    std::vector<uint32_t> Remove;     // hoisting candidates, ascending
    std::vector<size_t> BeforeBranch; // X-INSERT, branch does not block
    std::vector<size_t> AtEnd;        // X-INSERT, no branch instruction

    bool empty() const {
      return FromPreds.empty() && AtEntry.empty() && Remove.empty() &&
             BeforeBranch.empty() && AtEnd.empty();
    }
  };
  std::vector<BlockDecision> Decisions(G.numBlocks());
  // Insertions are emitted in first-occurrence (rank) order, not index
  // order: the table keeps its indices across rounds, and the output must
  // not depend on that history.
  auto ByRank = [&](size_t A, size_t B) { return Pats.rank(A) < Pats.rank(B); };
  auto SortByRank = [&](std::vector<size_t> &List) {
    std::sort(List.begin(), List.end(), ByRank);
  };

  {
    AM_PROF_SCOPE("aht.decide");
    // Scratch, reused for every block.
    BitVector Tmp = Pats.makeVector();
    std::vector<size_t> ExitIns;
    // Position of the first instruction of the current block that defines
    // / uses each variable (npos: none yet).  `x := t` is blocked before
    // instruction Idx iff x or an operand of t was defined, or x was used,
    // earlier in the block: AssignPatternTable::blockedBy's relation
    // (Definition 3.2), asked per occurrence instead of per universe.
    constexpr size_t npos = AssignPatternTable::npos;
    std::vector<size_t> FirstDef(G.Vars.size(), npos);
    std::vector<size_t> FirstUse(G.Vars.size(), npos);
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      const BasicBlock &BB = G.block(B);
      BlockDecision &D = Decisions[B];

      Hoist.forEachEntryInsertWord(B, AppendTo(D.AtEntry));
      // Footnote 6: after edge splitting there are never entry insertions
      // at join nodes.
      assert((D.AtEntry.empty() || BB.Preds.size() <= 1 || B == G.start()) &&
             "unexpected entry insertion at a join node");
      SortByRank(D.AtEntry);

      // Hoisting candidates: occurrences not preceded by a blocker within
      // their block.  The cached LOC-HOISTABLE predicate tells us whether
      // the per-instruction scan can find anything at all.
      bool AnyCandidate = Hoist.locHoistable(B).any();
      if (AnyCandidate && Filter) {
        Tmp = Hoist.locHoistable(B);
        Tmp &= Allowed;
        AnyCandidate = Tmp.any();
      }
      if (AnyCandidate) {
        for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
          const Instr &I = BB.Instrs[Idx];
          size_t Pat = Pats.occurrence(I);
          if (Pat != npos && IsAllowed(Pat)) {
            const AssignPat &P = Pats.pattern(Pat);
            size_t First = std::min(FirstDef[index(P.Lhs)],
                                    FirstUse[index(P.Lhs)]);
            P.Rhs.forEachVar(
                [&](VarId V) { First = std::min(First, FirstDef[index(V)]); });
            bool Blocked = First != npos;
            if (Blocked)
              if (fault::FaultInjector *FI = fault::FaultInjector::current())
                // aht-skip-block: skip one blockage check, hoisting the
                // occurrence past its in-block blocker.
                Blocked = !FI->fire(fault::FaultClass::AhtSkipBlockage);
            if (!Blocked) {
              D.Remove.push_back(static_cast<uint32_t>(Idx));
            } else if (AM_REMARKS_ENABLED()) {
              // The occurrence stays put this round: something earlier in
              // the block blocks its pattern.  Informational
              // (non-terminal) and true whether or not the block's
              // rebuild commits, so it is published directly.
              remarks::Remark R;
              R.K = remarks::Kind::Blocked;
              R.InstrId = I.Id;
              R.Block = B;
              R.InstrIndex = static_cast<uint32_t>(Idx);
              R.Pattern = printInstr(I, G.Vars);
              if (I.isAssign())
                R.Var = G.Vars.name(I.Lhs);
              R.Solve = Hoist.solveSerial();
              R.fact("LOC-BLOCKED", "1");
              if (BB.Instrs[First].Id != 0)
                R.fact("blocked_by",
                       "#" + std::to_string(BB.Instrs[First].Id));
              remarks::Sink::get().add(std::move(R));
            }
          }
          VarId Def = I.definedVar();
          if (isValid(Def) && FirstDef[index(Def)] == npos)
            FirstDef[index(Def)] = Idx;
          I.forEachUsedVar([&](VarId V) {
            if (FirstUse[index(V)] == npos)
              FirstUse[index(V)] = Idx;
          });
        }
        for (const Instr &I : BB.Instrs) {
          if (isValid(I.definedVar()))
            FirstDef[index(I.definedVar())] = npos;
          I.forEachUsedVar([&](VarId V) { FirstUse[index(V)] = npos; });
        }
      }

      // Exit insertions.
      const Instr *Br = BB.branchInstr();
      if (!Br) {
        Hoist.forEachExitInsertWord(B, AppendTo(D.AtEnd));
        SortByRank(D.AtEnd);
        continue;
      }
      ExitIns.clear();
      Hoist.forEachExitInsertWord(B, AppendTo(ExitIns));
      if (ExitIns.empty())
        continue;
      BitVector &BranchBlocks = Tmp;
      Pats.blockedBy(*Br, BranchBlocks);
      for (size_t Pat : ExitIns) {
        if (!BranchBlocks.test(Pat)) {
          D.BeforeBranch.push_back(Pat);
          continue;
        }
        // The branch condition itself blocks the pattern: place the
        // insertion after the condition, i.e. at the entry of every
        // successor (each has a single predecessor after edge splitting).
        for (BlockId S : BB.Succs) {
          assert(G.block(S).Preds.size() == 1 &&
                 "successor of a branching block must have a unique pred");
          Decisions[S].FromPreds.push_back({Pat, B});
        }
      }
      SortByRank(D.BeforeBranch);
    }
    // Each block's FromPreds came from its unique predecessor.
    for (BlockDecision &D : Decisions)
      std::sort(D.FromPreds.begin(), D.FromPreds.end(),
                [&](const auto &A, const auto &B) {
                  return ByRank(A.first, B.first);
                });
  }

  // Phase 2: rebuild the instruction lists.
  AM_PROF_SCOPE("aht.rewrite");
  bool Changed = false;
  std::vector<PendingRemark> Accepted;
  // Committed removed-occurrence ids per pattern; inserted instances of a
  // pattern descend from the occurrences hoisted away this round.
  std::vector<std::vector<uint32_t>> RemovedIds;
  if (AM_REMARKS_ENABLED())
    RemovedIds.resize(Pats.size());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BlockDecision &D = Decisions[B];
    // A block without decisions would be rebuilt into itself.
    if (D.empty())
      continue;
    BasicBlock &BB = G.block(B);

    std::vector<PendingRemark> Pending;
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size() + D.AtEntry.size() +
                      D.FromPreds.size() + D.AtEnd.size() +
                      D.BeforeBranch.size());
    auto Emit = [&](size_t Pat, remarks::Placement Place,
                    BlockId FromBlock, const char *Predicate) {
      NewInstrs.push_back(
          Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
      if (AM_REMARKS_ENABLED()) {
        Instr &New = NewInstrs.back();
        New.Id = remarks::Sink::get().freshId();
        PendingRemark P;
        P.Pat = Pat;
        P.IsInsert = true;
        P.R.K = remarks::Kind::Hoist;
        P.R.Act = remarks::Action::Insert;
        P.R.InstrId = New.Id;
        P.R.Block = B;
        P.R.InstrIndex = static_cast<uint32_t>(NewInstrs.size() - 1);
        P.R.Place = Place;
        if (FromBlock != static_cast<BlockId>(-1))
          P.R.FromBlock = FromBlock;
        P.R.Pattern = printInstr(New, G.Vars);
        P.R.Var = G.Vars.name(Pats.pattern(Pat).Lhs);
        P.R.Solve = Hoist.solveSerial();
        P.R.fact(Predicate, "1");
        Pending.push_back(std::move(P));
      }
    };
    // Predecessor-exit insertions precede this block's own entry point.
    for (auto [Pat, Pred] : D.FromPreds)
      Emit(Pat, remarks::Placement::FromPred, Pred, "X-INSERT");
    std::vector<size_t> Misplaced;
    for (size_t Pat : D.AtEntry) {
      if (fault::FaultInjector *FI = fault::FaultInjector::current())
        // aht-misplace: realize one entry insertion at the block *end*.
        if (FI->fire(fault::FaultClass::AhtMisplaceInsert)) {
          Misplaced.push_back(Pat);
          continue;
        }
      Emit(Pat, remarks::Placement::Entry, static_cast<BlockId>(-1),
           "N-INSERT");
    }
    const Instr *Br = BB.branchInstr();
    size_t NextRemove = 0;
    for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
      if (NextRemove < D.Remove.size() && D.Remove[NextRemove] == Idx) {
        ++NextRemove;
        if (AM_REMARKS_ENABLED()) {
          PendingRemark P;
          P.Pat = Pats.occurrence(BB.Instrs[Idx]);
          P.IsInsert = false;
          P.R.K = remarks::Kind::Hoist;
          P.R.Act = remarks::Action::Remove;
          P.R.InstrId = BB.Instrs[Idx].Id;
          P.R.Block = B;
          P.R.InstrIndex = static_cast<uint32_t>(Idx);
          P.R.Terminal = true;
          P.R.Pattern = printInstr(BB.Instrs[Idx], G.Vars);
          if (BB.Instrs[Idx].isAssign())
            P.R.Var = G.Vars.name(BB.Instrs[Idx].Lhs);
          P.R.Solve = Hoist.solveSerial();
          P.R.fact("LOC-HOISTABLE", "1").fact("candidate", "1");
          Pending.push_back(std::move(P));
        }
        continue;
      }
      if (Br && &BB.Instrs[Idx] == Br)
        for (size_t Pat : D.BeforeBranch)
          Emit(Pat, remarks::Placement::BeforeBranch,
               static_cast<BlockId>(-1), "X-INSERT");
      NewInstrs.push_back(BB.Instrs[Idx]);
    }
    for (size_t Pat : D.AtEnd)
      Emit(Pat, remarks::Placement::Exit, static_cast<BlockId>(-1),
           "X-INSERT");
    for (size_t Pat : Misplaced)
      Emit(Pat, remarks::Placement::Entry, static_cast<BlockId>(-1),
           "N-INSERT");

    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      G.touchBlock(B);
      Changed = true;
      if (AM_REMARKS_ENABLED()) {
        for (PendingRemark &P : Pending) {
          if (!P.IsInsert && P.Pat != AssignPatternTable::npos)
            RemovedIds[P.Pat].push_back(P.R.InstrId);
          Accepted.push_back(std::move(P));
        }
      }
    }
    // A non-committing rebuild drops its pending remarks: the old
    // instructions (and their ids) are still the program.
  }

  if (AM_REMARKS_ENABLED()) {
    for (PendingRemark &P : Accepted) {
      if (P.IsInsert && P.Pat < RemovedIds.size())
        P.R.Parents = RemovedIds[P.Pat];
      remarks::Sink::get().add(std::move(P.R));
    }
  }
  return Changed;
}

bool am::runAssignmentHoisting(FlowGraph &G, const HoistFilter &Filter) {
  AmContext Ctx;
  return runAssignmentHoisting(G, Ctx, Filter);
}
