//===- analysis/PaperAnalyses.h - Tables 1-3 of the paper ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three dataflow analyses of Knoop/Rüthing/Steffen, "The Power of
/// Assignment Motion" (PLDI'95):
///
///  * Table 2 — redundant assignment analysis (forward, all-path):
///      N-REDUNDANT = false at s's first instruction, else ∧ preds
///      X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT
///  * Table 1 — hoistability analysis (backward, all-path) plus the
///    N-INSERT / X-INSERT insertion predicates;
///  * Table 3 — final-flush analyses over temporary initializations:
///    delayability (forward, all-path, greatest), usability (backward,
///    any-path, least), latestness, and the N-INIT / X-INIT / RECONSTRUCT
///    placement predicates.
///
/// All results are computed against a frozen snapshot of the graph: callers
/// must not mutate the graph while reading facts, and the referenced
/// pattern tables must outlive the analysis object.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_PAPERANALYSES_H
#define AM_ANALYSIS_PAPERANALYSES_H

#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

#include <cstdint>
#include <memory>
#include <span>

namespace am {

//===----------------------------------------------------------------------===//
// Table 2: redundancy
//===----------------------------------------------------------------------===//

/// Redundant-assignment facts.  A bit (for pattern a at a point p) means:
/// every path from s to p contains an occurrence of a with no modification
/// of a's left-hand side or operands in between — i.e. an occurrence of a
/// at p would be redundant (Definition 3.4).
class RedundancyAnalysis {
public:
  /// Runs the analysis.  \p Pats must outlive the returned object.
  static RedundancyAnalysis run(const FlowGraph &G,
                                const AssignPatternTable &Pats);

  /// As above, against a caller-owned reusable solver.  \p PatsGen
  /// identifies the pattern table's contents (see DataflowSolver): pass
  /// the generation the table reported so the solver's caches survive
  /// rounds whose rebuild left the universe unchanged.
  static RedundancyAnalysis run(const FlowGraph &G,
                                const AssignPatternTable &Pats,
                                DataflowSolver &Solver, uint64_t PatsGen);

  /// N-/X-REDUNDANT at every instruction boundary of \p B, replayed in
  /// program order (see DataflowResult::walk).
  template <typename Fn> void walk(BlockId B, FactWalk &S, Fn &&Visit) const {
    Result.walk(B, S, Visit);
  }

  FactRow entry(BlockId B) const { return Result.entry(B); }
  FactRow exit(BlockId B) const { return Result.exit(B); }

  /// The raw solution, for tests.
  const DataflowResult &result() const { return Result; }

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

//===----------------------------------------------------------------------===//
// Table 1: hoistability
//===----------------------------------------------------------------------===//

/// The hoistability analysis' block-local predicates (LOC-BLOCKED and
/// LOC-HOISTABLE), cacheable across rounds of the AM fixpoint: a refresh
/// recomputes only blocks the graph stamped dirty since the previous
/// refresh, mirroring the solver's transfer cache one layer up.  Both
/// are formed per block from the variables its instructions define and
/// use, never from a per-instruction blockedBy set.
class HoistLocalPredicates {
public:
  /// Brings the predicates up to date for \p G / \p Pats.  \p PatsGen
  /// identifies the pattern table's contents; a changed generation (or
  /// graph identity / width) rebuilds everything.
  void refresh(const FlowGraph &G, const AssignPatternTable &Pats,
               uint64_t PatsGen);

  const BitVector &locBlocked(BlockId B) const { return LocBlocked[B]; }
  const BitVector &locHoistable(BlockId B) const { return LocHoistable[B]; }

  /// Forgets the cached graph identity so the next refresh rebuilds
  /// everything — required before reusing the cache for a different
  /// graph (AmContext::reset); capacity is kept.
  void invalidate() {
    Valid = false;
    CachedG = nullptr;
  }

private:
  /// Per-variable flags of one block's scan (bit 0: defined so far, bit
  /// 1: used so far) and the variables flagged, for the reset.
  struct BlockScratch {
    std::vector<uint8_t> Flags;
    std::vector<VarId> Seen;
  };
  void computeBlock(const FlowGraph &G, const AssignPatternTable &Pats,
                    BlockId B, BlockScratch &S);
  /// Recomputes blocks Blocks[0..N) on the pool (one scratch per range).
  void computeBlocks(const FlowGraph &G, const AssignPatternTable &Pats,
                     size_t N, const BlockId *Blocks);

  std::vector<BitVector> LocBlocked;
  std::vector<BitVector> LocHoistable;
  const FlowGraph *CachedG = nullptr;
  uint64_t CachedGen = 0;
  size_t CachedBits = 0;
  Tick RefreshTick = 0;
  bool Valid = false;
  std::vector<BlockId> Dirty; ///< Refresh scratch.
};

/// Hoistability facts and insertion points.  A bit at a block boundary
/// means some hoisting candidate of the pattern can be moved (backwards,
/// against control flow) to that boundary while preserving semantics.
class HoistabilityAnalysis {
public:
  /// Runs the analysis.  \p Pats must outlive the returned object.
  static HoistabilityAnalysis run(const FlowGraph &G,
                                  const AssignPatternTable &Pats);

  /// As above, against a caller-owned reusable solver and block-local
  /// predicate cache (both must outlive the returned object).  \p PatsGen
  /// as for RedundancyAnalysis::run.
  static HoistabilityAnalysis run(const FlowGraph &G,
                                  const AssignPatternTable &Pats,
                                  DataflowSolver &Solver,
                                  HoistLocalPredicates &Locals,
                                  uint64_t PatsGen);

  /// N-HOISTABLE* / X-HOISTABLE* (greatest solution).
  FactRow entryHoistable(BlockId B) const { return Result.entry(B); }
  FactRow exitHoistable(BlockId B) const { return Result.exit(B); }

  /// LOC-BLOCKED: patterns blocked by some instruction of the block.
  const BitVector &locBlocked(BlockId B) const {
    return Locals->locBlocked(B);
  }

  /// LOC-HOISTABLE: patterns with a hoisting candidate in the block.
  const BitVector &locHoistable(BlockId B) const {
    return Locals->locHoistable(B);
  }

  /// N-INSERT = N-HOISTABLE* · ∃pred ¬X-HOISTABLE*: calls
  /// \p F(WordIdx, Word) for every nonzero word, ascending, without
  /// materializing the set.  The start node's entry is the hoisting
  /// frontier when hoistability reaches it.
  template <typename Fn> void forEachEntryInsertWord(BlockId B, Fn F) const {
    const auto &Preds = G->block(B).Preds;
    bool Frontier = B == G->start();
    entryHoistable(B).forEachWord([&](size_t W, uint64_t Insert) {
      if (Insert == 0)
        return;
      if (!Frontier) {
        uint64_t AnyPredStops = 0;
        for (BlockId P : Preds)
          AnyPredStops |= ~exitHoistable(P).word(W);
        Insert &= AnyPredStops;
      }
      if (Insert != 0)
        F(W, Insert);
    });
  }

  /// X-INSERT = X-HOISTABLE* · LOC-BLOCKED, word by word as above.
  template <typename Fn> void forEachExitInsertWord(BlockId B, Fn F) const {
    const BitVector &Blocked = locBlocked(B);
    exitHoistable(B).forEachWord([&](size_t W, uint64_t Exit) {
      if (uint64_t Insert = Exit & Blocked.word(W))
        F(W, Insert);
    });
  }

  /// N-INSERT of \p B, written into \p Out (whose storage is reused).
  void entryInsert(BlockId B, BitVector &Out) const;

  /// X-INSERT of \p B, into \p Out.
  void exitInsert(BlockId B, BitVector &Out) const;

  BitVector entryInsert(BlockId B) const {
    BitVector Out;
    entryInsert(B, Out);
    return Out;
  }
  BitVector exitInsert(BlockId B) const {
    BitVector Out;
    exitInsert(B, Out);
    return Out;
  }

  /// The raw solution, for tests.
  const DataflowResult &result() const { return Result; }

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  const FlowGraph *G = nullptr;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
  /// Points at OwnedLocals or a caller-provided cache.
  const HoistLocalPredicates *Locals = nullptr;
  std::unique_ptr<HoistLocalPredicates> OwnedLocals;
};

//===----------------------------------------------------------------------===//
// Table 3: final flush
//===----------------------------------------------------------------------===//

/// The universe the flush analyses range over: the temporaries h_e whose
/// initialization `h_e := e` occurs in the program.
class FlushUniverse {
public:
  void build(const FlowGraph &G);

  size_t size() const { return Temps.size(); }
  VarId temp(size_t Idx) const { return Temps[Idx].Var; }
  const Term &expr(size_t Idx) const { return Temps[Idx].Expr; }

  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t indexOfTemp(VarId V) const;

  /// IS-INST: the temporaries whose initialization \p I is an instance of.
  void isInst(const Instr &I, BitVector &Out) const;

  /// The one temporary whose initialization \p I is an instance of, or
  /// npos (IS-INST as an index).
  size_t instOf(const Instr &I) const;

  /// USED: the temporaries \p I reads.
  void used(const Instr &I, BitVector &Out) const;

  /// BLOCKED of an instruction defining \p V: the temporaries h_e whose
  /// initialization cannot be moved (sunk) across it, because h_e itself
  /// or an operand of e is modified — every h_e with h_e == V or V an
  /// operand of e, ascending.
  std::span<const uint32_t> blockedBy(VarId V) const;

  BitVector makeVector() const { return BitVector(Temps.size()); }

private:
  struct TempInfo {
    VarId Var;
    Term Expr;
  };
  std::vector<TempInfo> Temps;
  std::vector<size_t> VarToIdx; // dense var index -> temp index or npos
  std::vector<std::vector<uint32_t>> BlockedByVar; // blockedBy(), per var
};

/// Delayability + usability facts (Table 3) with the derived latestness
/// and placement predicates, at instruction granularity.
class FlushAnalysis {
public:
  static FlushAnalysis run(const FlowGraph &G);

  const FlushUniverse &universe() const { return *UniversePtr; }

  /// Placement decisions for one block, index-aligned with its
  /// instructions at the time of analysis.  Sparse: each instruction
  /// lists the (ascending) temp indices it places, in one CSR.
  struct BlockPlan {
    /// Instruction i's N-INIT temps (inits immediately before i) are
    /// Temps[Off[2i] .. Off[2i+1]); its RECONSTRUCT temps (uses rewritten
    /// to the original expression) are Temps[Off[2i+1] .. Off[2i+2]).
    std::vector<uint32_t> Off;
    std::vector<uint32_t> Temps;
    /// Temps whose init goes at the block's exit (X-INIT), ascending.
    std::vector<uint32_t> InitAtExit;

    size_t numInstrs() const { return Off.empty() ? 0 : Off.size() / 2; }
    std::span<const uint32_t> initBefore(size_t I) const {
      return {Temps.data() + Off[2 * I], Temps.data() + Off[2 * I + 1]};
    }
    std::span<const uint32_t> reconstruct(size_t I) const {
      return {Temps.data() + Off[2 * I + 1], Temps.data() + Off[2 * I + 2]};
    }
  };

  /// Computes the placement plan for block \p B into \p Out (whose
  /// storage is reused).  Not thread-safe: it reuses the analysis' walk
  /// scratch.
  void plan(BlockId B, BlockPlan &Out) const;

  BlockPlan plan(BlockId B) const {
    BlockPlan Out;
    plan(B, Out);
    return Out;
  }

  /// Raw delayability facts (greatest solution), for tests.
  const DataflowResult &delayability() const { return Delay; }

  /// Raw usability facts (least solution), for tests.
  const DataflowResult &usability() const { return Usable; }

private:
  const FlowGraph *G = nullptr;
  std::unique_ptr<FlushUniverse> UniversePtr;
  std::unique_ptr<DataflowProblem> DelayProblem;
  std::unique_ptr<DataflowProblem> UsableProblem;
  DataflowResult Delay;
  DataflowResult Usable;

  /// X-INIT of \p B (ascending) into \p Out.
  void exitInits(BlockId B, std::vector<uint32_t> &Out) const;

  /// One USED ∪ BLOCKED candidate of an instruction: the only temps its
  /// N-LATEST (and so N-INIT / RECONSTRUCT) can contain.
  struct Candidate {
    uint32_t Temp;
    bool Used;
    bool XUsable;
  };
  // plan() scratch, reused across calls.
  mutable FactWalk Walk;
  mutable std::vector<Candidate> Cands;
  mutable std::vector<uint32_t> CandOff;
};

} // namespace am

#endif // AM_ANALYSIS_PAPERANALYSES_H
