//===- verify/RemarkVerifier.cpp - Replay remark justifications ----------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The verifier re-drives the uniform pipeline stage by stage, snapshotting
// the graph before every transform invocation and checking the remarks
// that invocation emitted against from-scratch analyses of the snapshot.
// Subject remarks (eliminations, removals, deletions, decompositions,
// reconstructions) are located in the *pre*-stage snapshot by their
// recorded (block, index) and must carry the instruction's stable id;
// insertion remarks (hoist inserts, sunk initializations) are located in
// the *post*-stage graph the same way.
//
//===----------------------------------------------------------------------===//

#include "verify/RemarkVerifier.h"

#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "support/Remarks.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"
#include "transform/RedundantAssignElim.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>

using namespace am;
using namespace am::remarks;

namespace {

/// True if the ascending temp list \p Temps holds \p Idx.
bool contains(std::span<const uint32_t> Temps, size_t Idx) {
  return std::binary_search(Temps.begin(), Temps.end(), Idx);
}

/// Fresh, from-scratch analyses of one pre-stage snapshot.  Each is built
/// on the first remark that needs it and shared by the rest of the
/// stage's remarks, so a stage costs a constant number of solves however
/// many remarks it emitted.
class StageFacts {
public:
  explicit StageFacts(const FlowGraph &Before) : Before(Before) {}

  const AssignPatternTable &patterns() {
    if (!Pats)
      Pats.emplace().build(Before);
    return *Pats;
  }

  /// Pattern-table index of a remark's pattern text, or npos.  Remarks
  /// carry the printed pattern, which is the stable identity across
  /// snapshots (bit indices are not).
  size_t patternByText(const std::string &Text) {
    if (!ByText) {
      ByText.emplace();
      const AssignPatternTable &P = patterns();
      for (size_t Idx = 0; Idx < P.size(); ++Idx)
        ByText->emplace(Before.Vars.name(P.pattern(Idx).Lhs) + " := " +
                            printTerm(P.pattern(Idx).Rhs, Before.Vars),
                        Idx);
    }
    auto It = ByText->find(Text);
    return It == ByText->end() ? AssignPatternTable::npos : It->second;
  }

  /// N-REDUNDANT of pattern \p Pat immediately before instruction \p Idx
  /// of block \p B.
  bool redundantBefore(BlockId B, size_t Idx, size_t Pat) {
    if (!Redundancy)
      Redundancy.emplace(RedundancyAnalysis::run(Before, patterns()));
    bool Set = false;
    Redundancy->walk(B, Walk, [&](size_t At, const BitVector &Fact,
                                  const BitVector &) {
      if (At == Idx)
        Set = Fact.test(Pat);
    });
    return Set;
  }

  const HoistabilityAnalysis &hoistability() {
    if (!Hoist)
      Hoist.emplace(HoistabilityAnalysis::run(Before, patterns()));
    return *Hoist;
  }

  const FlushAnalysis &flush() {
    if (!Flush)
      Flush.emplace(FlushAnalysis::run(Before));
    return *Flush;
  }

  const FlushAnalysis::BlockPlan &plan(BlockId B) {
    auto [It, New] = Plans.try_emplace(B);
    if (New)
      flush().plan(B, It->second);
    return It->second;
  }

private:
  const FlowGraph &Before;
  std::optional<AssignPatternTable> Pats;
  std::optional<std::unordered_map<std::string, size_t>> ByText;
  std::optional<RedundancyAnalysis> Redundancy;
  std::optional<HoistabilityAnalysis> Hoist;
  std::optional<FlushAnalysis> Flush;
  std::unordered_map<BlockId, FlushAnalysis::BlockPlan> Plans;
  FactWalk Walk;
};

class Verifier {
public:
  explicit Verifier(RemarkVerifyReport &Report) : Report(Report) {}

  /// Checks the remarks emitted between \p FirstRemark and the current
  /// sink size against \p Before (pre-stage) and \p After (post-stage).
  void checkStage(const char *Stage, size_t FirstRemark,
                  const FlowGraph &Before, const FlowGraph &After) {
    StageFacts Facts(Before);
    for (const Remark &R : Sink::get().remarksFrom(FirstRemark))
      checkRemark(Stage, R, Facts, Before, After);
  }

private:
  RemarkVerifyReport &Report;

  void fail(const char *Stage, const Remark &R, const std::string &Why) {
    std::ostringstream OS;
    OS << Stage << ": " << kindName(R.K) << " #" << R.InstrId << " at b"
       << R.Block << "[" << R.InstrIndex << "]";
    if (!R.Pattern.empty())
      OS << " `" << R.Pattern << "`";
    OS << ": " << Why;
    Report.Failures.push_back(OS.str());
    ++Report.Failed;
  }

  /// The instruction a subject remark points at, or nullptr (with a
  /// recorded failure) when the (block, index, id) triple does not
  /// resolve in \p G.
  const Instr *subject(const char *Stage, const Remark &R, const FlowGraph &G,
                       const char *Which) {
    if (R.Block >= G.numBlocks()) {
      fail(Stage, R, std::string("block out of range in ") + Which);
      return nullptr;
    }
    const auto &Instrs = G.block(R.Block).Instrs;
    if (R.InstrIndex >= Instrs.size()) {
      fail(Stage, R, std::string("instruction index out of range in ") + Which);
      return nullptr;
    }
    const Instr &I = Instrs[R.InstrIndex];
    if (I.Id != R.InstrId) {
      fail(Stage, R,
           "instruction id mismatch (found #" + std::to_string(I.Id) +
               std::string(") in ") + Which);
      return nullptr;
    }
    return &I;
  }

  void checkRemark(const char *Stage, const Remark &R, StageFacts &Facts,
                   const FlowGraph &Before, const FlowGraph &After) {
    ++Report.Checked;
    switch (R.K) {
    case Kind::Decompose:
      checkDecompose(Stage, R, Before);
      return;
    case Kind::Eliminate:
      checkEliminate(Stage, R, Facts, Before);
      return;
    case Kind::Hoist:
      if (R.Act == Action::Remove)
        checkHoistRemove(Stage, R, Facts, Before);
      else
        checkHoistInsert(Stage, R, Facts, Before, After);
      return;
    case Kind::Blocked:
      checkBlocked(Stage, R, Facts, Before);
      return;
    case Kind::DeleteInit:
      checkDeleteInit(Stage, R, Facts, Before);
      return;
    case Kind::SinkInit:
      checkSinkInit(Stage, R, Facts, Before, After);
      return;
    case Kind::Reconstruct:
      checkReconstruct(Stage, R, Facts, Before);
      return;
    case Kind::Rollback:
      // Administrative: records that a guarded pipeline discarded a pass's
      // result.  No position or facts to cross-check against the graphs.
      return;
    }
  }

  void checkDecompose(const char *Stage, const Remark &R,
                      const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    if (R.Terminal) {
      if (!I->isAssign() || !I->Rhs.isNonTrivial())
        fail(Stage, R, "decomposed assignment has no non-trivial rhs");
      return;
    }
    if (!I->isBranch() || (!I->CondL.isNonTrivial() && !I->CondR.isNonTrivial()))
      fail(Stage, R, "decomposed branch has no non-trivial operand");
  }

  void checkEliminate(const char *Stage, const Remark &R, StageFacts &Facts,
                      const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    size_t Pat = Facts.patterns().occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "eliminated instruction is not a pattern occurrence");
      return;
    }
    if (!Facts.redundantBefore(R.Block, R.InstrIndex, Pat))
      fail(Stage, R, "N-REDUNDANT not set in a fresh redundancy analysis");
  }

  void checkHoistRemove(const char *Stage, const Remark &R,
                        StageFacts &Facts, const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    const AssignPatternTable &Pats = Facts.patterns();
    size_t Pat = Pats.occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "removed instruction is not a pattern occurrence");
      return;
    }
    if (!Facts.hoistability().locHoistable(R.Block).test(Pat)) {
      fail(Stage, R, "LOC-HOISTABLE not set in a fresh hoistability analysis");
      return;
    }
    // A hoisting candidate must be the first unblocked occurrence: no
    // earlier instruction of the block may block the pattern.
    BitVector Blocked = Pats.makeVector();
    const auto &Instrs = Before.block(R.Block).Instrs;
    for (size_t Idx = 0; Idx < R.InstrIndex; ++Idx) {
      Pats.blockedBy(Instrs[Idx], Blocked);
      if (Blocked.test(Pat)) {
        fail(Stage, R, "a preceding instruction blocks the removed pattern");
        return;
      }
    }
  }

  void checkHoistInsert(const char *Stage, const Remark &R,
                        StageFacts &Facts, const FlowGraph &Before,
                        const FlowGraph &After) {
    if (!subject(Stage, R, After, "post-stage graph"))
      return;
    const AssignPatternTable &Pats = Facts.patterns();
    size_t Pat = Facts.patternByText(R.Pattern);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "inserted pattern does not occur in the pre-stage graph");
      return;
    }
    const HoistabilityAnalysis &Fresh = Facts.hoistability();
    switch (R.Place) {
    case Placement::Entry:
      if (!Fresh.entryInsert(R.Block).test(Pat))
        fail(Stage, R, "N-INSERT not set in a fresh hoistability analysis");
      return;
    case Placement::Exit:
      if (!Fresh.exitInsert(R.Block).test(Pat))
        fail(Stage, R, "X-INSERT not set in a fresh hoistability analysis");
      return;
    case Placement::BeforeBranch: {
      if (!Fresh.exitInsert(R.Block).test(Pat)) {
        fail(Stage, R, "X-INSERT not set in a fresh hoistability analysis");
        return;
      }
      const Instr *Br = Before.block(R.Block).branchInstr();
      if (Br) {
        BitVector BranchBlocks = Pats.makeVector();
        Pats.blockedBy(*Br, BranchBlocks);
        if (BranchBlocks.test(Pat))
          fail(Stage, R, "branch blocks the pattern; insertion should have "
                         "moved to the successors");
      }
      return;
    }
    case Placement::FromPred: {
      // Realized at this block's entry on behalf of a branching
      // predecessor whose condition blocks the pattern.
      BlockId Pred = R.FromBlock;
      if (Pred >= Before.numBlocks()) {
        fail(Stage, R, "from_block out of range");
        return;
      }
      if (!Fresh.exitInsert(Pred).test(Pat)) {
        fail(Stage, R, "X-INSERT not set at the branching predecessor");
        return;
      }
      const Instr *Br = Before.block(Pred).branchInstr();
      if (!Br) {
        fail(Stage, R, "from_block has no branch instruction");
        return;
      }
      BitVector BranchBlocks = Pats.makeVector();
      Pats.blockedBy(*Br, BranchBlocks);
      if (!BranchBlocks.test(Pat))
        fail(Stage, R, "predecessor branch does not block the pattern");
      return;
    }
    case Placement::None:
      fail(Stage, R, "hoist insertion without a placement");
      return;
    }
  }

  void checkBlocked(const char *Stage, const Remark &R, StageFacts &Facts,
                    const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    const AssignPatternTable &Pats = Facts.patterns();
    size_t Pat = Pats.occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "blocked instruction is not a pattern occurrence");
      return;
    }
    BitVector Blocked = Pats.makeVector();
    const auto &Instrs = Before.block(R.Block).Instrs;
    for (size_t Idx = 0; Idx < R.InstrIndex; ++Idx) {
      Pats.blockedBy(Instrs[Idx], Blocked);
      if (Blocked.test(Pat))
        return; // justified: an earlier instruction blocks the pattern
    }
    fail(Stage, R, "no preceding instruction blocks the pattern");
  }

  void checkDeleteInit(const char *Stage, const Remark &R, StageFacts &Facts,
                       const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    if (Facts.flush().universe().instOf(*I) == FlushUniverse::npos)
      fail(Stage, R, "IS-INST does not hold: not an initialization instance");
  }

  /// Resolves the temp named by the remark's Var in the fresh universe.
  size_t tempOf(const char *Stage, const Remark &R, const FlowGraph &G,
                const FlushUniverse &U) {
    VarId V = G.Vars.lookup(R.Var);
    if (V == VarId::Invalid) {
      fail(Stage, R, "unknown temporary `" + R.Var + "`");
      return FlushUniverse::npos;
    }
    size_t Idx = U.indexOfTemp(V);
    if (Idx == FlushUniverse::npos)
      fail(Stage, R, "`" + R.Var + "` is not in the flush universe");
    return Idx;
  }

  void checkSinkInit(const char *Stage, const Remark &R, StageFacts &Facts,
                     const FlowGraph &Before, const FlowGraph &After) {
    if (!subject(Stage, R, After, "post-stage graph"))
      return;
    size_t TempIdx = tempOf(Stage, R, Before, Facts.flush().universe());
    if (TempIdx == FlushUniverse::npos)
      return;
    const std::string &Via = R.factValue("via");
    // The remark's (block, index) locate the initialization in the
    // rebuilt block, so the justification is checked at the temp level:
    // the cited placement predicate must fire for this temp somewhere in
    // the recorded block of the pre-stage plan.
    BlockId B = R.Block;
    if (B >= Before.numBlocks()) {
      // The fallback FromPred path writes into a successor; the plan to
      // consult is the predecessor's.
      fail(Stage, R, "block out of range in pre-stage graph");
      return;
    }
    const FlushAnalysis::BlockPlan &Plan = Facts.plan(B);
    if (Via == "N-INIT" || Via == "RECONSTRUCT-multi-use") {
      for (size_t Idx = 0; Idx < Plan.numInstrs(); ++Idx)
        if (contains(Via == "N-INIT" ? Plan.initBefore(Idx)
                                     : Plan.reconstruct(Idx),
                     TempIdx))
          return;
      fail(Stage, R,
           Via + " does not fire for this temp in a fresh flush analysis");
      return;
    }
    if (Via == "X-INIT") {
      if (R.Place == Placement::FromPred) {
        if (R.FromBlock >= Before.numBlocks() ||
            !contains(Facts.plan(R.FromBlock).InitAtExit, TempIdx))
          fail(Stage, R, "X-INIT not set at the branching predecessor");
        return;
      }
      if (!contains(Plan.InitAtExit, TempIdx))
        fail(Stage, R, "X-INIT not set in a fresh flush analysis");
      return;
    }
    fail(Stage, R, "unknown via fact `" + Via + "`");
  }

  void checkReconstruct(const char *Stage, const Remark &R,
                        StageFacts &Facts, const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    size_t TempIdx = tempOf(Stage, R, Before, Facts.flush().universe());
    if (TempIdx == FlushUniverse::npos)
      return;
    if (!contains(Facts.plan(R.Block).reconstruct(R.InstrIndex), TempIdx))
      fail(Stage, R, "RECONSTRUCT not set in a fresh flush analysis");
  }
};

} // namespace

RemarkVerifyReport am::verifyUniformRemarks(const FlowGraph &Input) {
  RemarkVerifyReport Report;
  CollectionScope Collect(true);
  Sink::get().clear();

  FlowGraph Work = Input;
  ensureInstrIds(Work);

  // Mirror runUniformEmAm with default options, pausing between stages.
  removeSkips(Work);
  Work.splitCriticalEdges();
  if (Work.hasCriticalEdges()) {
    Report.Output = simplified(Work);
    return Report;
  }

  Verifier V(Report);
  auto RunStage = [&](const char *Stage, auto &&Fn) {
    FlowGraph Before = Work;
    size_t Watermark = Sink::get().size();
    Fn();
    V.checkStage(Stage, Watermark, Before, Work);
  };

  RunStage("init", [&] { runInitializationPhase(Work); });

  // The AM fixpoint, stage-checked per pass per round.  The loop mirrors
  // runAssignmentMotionPhase: rae then aht, shared incremental context,
  // until neither changes.  The defensive cap mirrors the driver's.
  AmContext Ctx;
  uint64_t Instrs = Work.numInstrs();
  uint64_t Cap = Instrs * Instrs + Work.numBlocks() + 16;
  for (uint64_t Round = 1; Round <= Cap; ++Round) {
    Sink::get().setRound(static_cast<uint32_t>(Round));
    unsigned Eliminated = 0;
    RunStage("rae",
             [&] { Eliminated = runRedundantAssignmentElimination(Work, Ctx); });
    bool Hoisted = false;
    RunStage("aht", [&] { Hoisted = runAssignmentHoisting(Work, Ctx); });
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  Sink::get().setRound(0);

  RunStage("flush", [&] { runFinalFlush(Work); });

  Report.Output = simplified(Work);
  return Report;
}
