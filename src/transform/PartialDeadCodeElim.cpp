//===- transform/PartialDeadCodeElim.cpp - PDE implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/PartialDeadCodeElim.h"
#include "analysis/Liveness.h"
#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

using namespace am;

namespace {

/// Sinking delayability: a pattern occurrence can be delayed (sunk) past
/// an instruction unless the instruction blocks it — uses or modifies the
/// left-hand side, or modifies an operand (the blocking relation is the
/// same in both motion directions).  Forward, all-path, greatest fixpoint:
/// X-DELAY = OCCURRENCE + N-DELAY · ¬BLOCKED.
class SinkDelayProblem : public DataflowProblem {
public:
  explicit SinkDelayProblem(const AssignPatternTable &Pats) : Pats(Pats) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return Pats.size(); }

  void gen(BlockId, size_t, const Instr &I, BitVector &Out) const override {
    Out = Pats.makeVector();
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

} // namespace

bool am::runAssignmentSinking(FlowGraph &G) {
  assert(!G.hasCriticalEdges() &&
         "assignment sinking requires split critical edges");
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() == 0)
    return false;
  SinkDelayProblem Problem(Pats);
  DataflowResult Delay = solve(G, Problem);
  LivenessAnalysis Live = LivenessAnalysis::run(G);

  // Phase 1: record decisions against the frozen graph.
  struct BlockDecision {
    /// (instruction, pattern) insertions, ordered by instruction and then
    /// ascending pattern.
    std::vector<std::pair<uint32_t, uint32_t>> InsertBefore;
    BitVector InsertAtExit;
    std::vector<bool> RemoveInstr;
  };
  std::vector<BlockDecision> Decisions(G.numBlocks());
  BitVector Latest = Pats.makeVector();
  FactWalk Walk;

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    BlockDecision &D = Decisions[B];
    D.RemoveInstr.assign(Instrs.size(), false);
    // Every occurrence is deleted; the latest points re-materialize the
    // ones that are still needed.  N-LATEST = N-DELAY* · BLOCKED ...
    auto &Ins = D.InsertBefore;
    Delay.walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                            const BitVector &) {
      if (Pats.occurrence(Instrs[Idx]) != AssignPatternTable::npos)
        D.RemoveInstr[Idx] = true;
      Pats.blockedBy(Instrs[Idx], Latest);
      Latest &= Before;
      Latest.forEachSetBit([&](size_t Pat) {
        Ins.push_back({static_cast<uint32_t>(Idx), static_cast<uint32_t>(Pat)});
      });
    });
    // ... guarded by liveness of the left-hand side immediately before
    // the blocking instruction.
    if (!Ins.empty()) {
      std::vector<bool> Keep(Ins.size(), false);
      size_t Cursor = Ins.size();
      Live.walk(B, Walk, [&](size_t Idx, const BitVector &LiveBefore,
                             const BitVector &) {
        for (; Cursor > 0 && Ins[Cursor - 1].first == Idx; --Cursor)
          Keep[Cursor - 1] =
              LiveBefore.test(index(Pats.pattern(Ins[Cursor - 1].second).Lhs));
      });
      size_t Kept = 0;
      for (size_t K = 0; K < Ins.size(); ++K)
        if (Keep[K])
          Ins[Kept++] = Ins[K];
      Ins.resize(Kept);
    }

    // X-LATEST = X-DELAY* · ∃succ ¬N-DELAY*, guarded by liveness at exit.
    BitVector AtExit = Delay.exit(B).toBitVector();
    BitVector AnySuccStops(Pats.size());
    for (BlockId S : G.block(B).Succs) {
      BitVector NotDelay = Delay.entry(S).toBitVector();
      NotDelay.flipAll();
      AnySuccStops |= NotDelay;
    }
    AtExit &= AnySuccStops;
    D.InsertAtExit = Pats.makeVector();
    for (size_t Pat : AtExit.setBits())
      if (Live.liveOut(B).test(index(Pats.pattern(Pat).Lhs)))
        D.InsertAtExit.set(Pat);
  }

  // Phase 2: rebuild.  Exit insertions at multi-successor blocks cannot
  // occur (each successor has a unique predecessor after edge splitting,
  // so delayability never stops at such an exit).
  bool Changed = false;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    BasicBlock &BB = G.block(B);
    const BlockDecision &D = Decisions[B];
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size());
    auto Emit = [&](size_t Pat) {
      NewInstrs.push_back(
          Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
    };
    size_t NextInsert = 0;
    for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
      for (; NextInsert < D.InsertBefore.size() &&
             D.InsertBefore[NextInsert].first == Idx;
           ++NextInsert)
        Emit(D.InsertBefore[NextInsert].second);
      if (!D.RemoveInstr[Idx])
        NewInstrs.push_back(BB.Instrs[Idx]);
    }
    assert((D.InsertAtExit.none() || !BB.branchInstr()) &&
           "exit insertion at a branching block");
    for (size_t Pat : D.InsertAtExit.setBits())
      Emit(Pat);
    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      G.touchBlock(B);
      Changed = true;
    }
  }
  return Changed;
}

PdeStats am::runPartialDeadCodeElim(FlowGraph &G, unsigned MaxRounds) {
  PdeStats Stats;
  int Before = static_cast<int>(G.numInstrs());
  unsigned Cap = MaxRounds ? MaxRounds
                           : static_cast<unsigned>(G.numInstrs() +
                                                   G.numBlocks() + 16);
  while (Stats.Rounds < Cap) {
    ++Stats.Rounds;
    if (!runAssignmentSinking(G))
      break;
  }
  Stats.Removed = Before - static_cast<int>(G.numInstrs());
  return Stats;
}
