//===- dfa/Dataflow.cpp - Dataflow solver implementation --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The solver object carries three layers of reuse across solves:
//
//  1. composed block transfers, recomputed only for tick-dirty blocks
//     (the engine's MultiPatternTransfers);
//  2. the previous converged solution: if the graph did not change at all,
//     it is returned outright; if it changed locally, iteration restarts
//     only over the dirty blocks' dependence closure;
//  3. all fixpoint scratch (packed planes, the worklist rings), so the
//     steady-state inner loop performs no heap allocation.
//
// Why the incremental restart is exact (not merely safe): let D be the
// dirty blocks and A their closure under the dependence direction (succs
// for forward problems, preds for backward).  Blocks outside A take no
// input from A, their transfers are unchanged, so the old solution still
// satisfies their equations — and because fixpoint iteration of that
// closed subsystem never reads A's values, its greatest (least) solution
// is unchanged too.  Inside A we restart from the optimistic
// initialization against those converged boundary values; the worklist
// invariant ("an unsatisfied equation is pending") plus monotonicity
// pins the converged result to the global greatest (least) fixpoint, the
// same one a from-scratch solve computes.
//
//===----------------------------------------------------------------------===//

#include "dfa/Dataflow.h"
#include "dfa/MultiPattern.h"
#include "support/Profiler.h"
#include "support/Stats.h"

#include <atomic>
#include <bit>
#include <cassert>

using namespace am;

namespace {
/// Monotone id per solve() call, for remark provenance (see
/// DataflowResult::SolveSerial).
std::atomic<uint64_t> GlobalSolveSerial{0};

/// Per-thread solve observer (see setSolveObserver).  Thread-local so
/// concurrent optimization jobs — one telemetry session per worker
/// thread — observe only their own solves; the check in the hot path
/// stays one load + branch.
thread_local void (*ObserverFn)(const SolveInfo &, void *) = nullptr;
thread_local void *ObserverCtx = nullptr;

void notifyObserver(const SolveInfo &Info) {
  if (ObserverFn)
    ObserverFn(Info, ObserverCtx);
}
} // namespace

void am::setSolveObserver(void (*Fn)(const SolveInfo &, void *), void *Ctx) {
  ObserverFn = Fn;
  ObserverCtx = Ctx;
}

DataflowSolver::DataflowSolver() = default;
DataflowSolver::~DataflowSolver() = default;

//===----------------------------------------------------------------------===//
// FactRow
//===----------------------------------------------------------------------===//

size_t FactRow::count() const {
  size_t N = 0;
  forEachWord([&](size_t, uint64_t Word) {
    N += static_cast<size_t>(__builtin_popcountll(Word));
  });
  return N;
}

void FactRow::copyTo(BitVector &Out) const {
  Out.clearAndResize(NumBits);
  forEachWord([&](size_t W, uint64_t Word) { Out.setWord(W, Word); });
}

std::string FactRow::toString() const {
  std::string S;
  S.reserve(NumBits);
  for (size_t I = 0; I < NumBits; ++I)
    S.push_back(test(I) ? '1' : '0');
  return S;
}

//===----------------------------------------------------------------------===//
// DataflowSolver
//===----------------------------------------------------------------------===//

void DataflowSolver::invalidate() {
  HaveSolution = false;
  SolG = nullptr;
  OrderG = nullptr;
  if (Engine)
    Engine->invalidate();
}
DataflowSolver::DataflowSolver(DataflowSolver &&) noexcept = default;
DataflowSolver &DataflowSolver::operator=(DataflowSolver &&) noexcept = default;

bool DataflowSolver::solutionValid(const FlowGraph &G,
                                   const DataflowProblem &P,
                                   uint64_t ProblemGen) const {
  return HaveSolution && SolG == &G && SolStructTick == G.structTick() &&
         SolGen == ProblemGen && SolBits == P.numBits() &&
         SolForward == (P.direction() == Direction::Forward) &&
         SolMeetAll == (P.meet() == Meet::All);
}

void DataflowSolver::refreshOrder(const FlowGraph &G, bool Forward) {
  if (OrderG == &G && OrderStructTick == G.structTick() &&
      OrderForward == Forward)
    return;
  Order = Forward ? G.reversePostorder() : G.reverseGraphReversePostorder();
  RowOf = std::make_shared<std::vector<uint32_t>>(
      G.numBlocks(), static_cast<uint32_t>(Order.size()));
  for (size_t Idx = 0; Idx < Order.size(); ++Idx)
    (*RowOf)[Order[Idx]] = static_cast<uint32_t>(Idx);
  OrderG = &G;
  OrderStructTick = G.structTick();
  OrderForward = Forward;
}

DataflowResult DataflowSolver::snapshot(const FlowGraph &G,
                                        const DataflowProblem &P,
                                        bool Forward) const {
  DataflowResult R;
  R.G = &G;
  R.Problem = &P;
  R.Forward = Forward;
  R.RowOf = RowOf;
  R.Planes = Engine->planes();
  const PackedGroupPlane &In = R.Planes->In, &Out = R.Planes->Out;
  R.Shape.Stride = In.rows() * In.width();
  R.Shape.Mask = In.width() - 1;
  R.Shape.Shift = static_cast<unsigned>(std::countr_zero(In.width()));
  R.Shape.NumBits = P.numBits();
  // The engine's meet side is the block entry of a forward problem and
  // the block exit of a backward one.
  R.MeetBase = In.groupRow(0);
  R.TransferredBase = Out.groupRow(0);
  return R;
}

DataflowResult DataflowSolver::solve(const FlowGraph &G,
                                     const DataflowProblem &P,
                                     uint64_t ProblemGen) {
  size_t Bits = P.numBits();
  size_t NumBlocks = G.numBlocks();
  bool Forward = P.direction() == Direction::Forward;
  bool MeetAll = P.meet() == Meet::All;

  AM_STAT_COUNTER(NumSolves, "dfa.solves");
  AM_STAT_COUNTER(NumSolvesCached, "dfa.solves.cached");
  AM_STAT_COUNTER(NumSolvesIncremental, "dfa.solves.incremental");
  AM_STAT_INC(NumSolves);
  uint64_t Serial =
      GlobalSolveSerial.fetch_add(1, std::memory_order_relaxed) + 1;
  AM_PROF_SCOPE("dfa.solve");

  SolveInfo Info;
  Info.Serial = Serial;
  Info.Bits = Bits;
  Info.Blocks = NumBlocks;
  Info.Forward = Forward;
  Info.MeetAll = MeetAll;

  bool PrevValid = solutionValid(G, P, ProblemGen);

  // Nothing changed since this solver's last converged solve of the same
  // problem: the cached solution is the answer.
  if (PrevValid && !G.instrsChangedSince(SolTick)) {
    AM_STAT_INC(NumSolvesCached);
    DataflowResult R = snapshot(G, P, Forward);
    R.SolveSerial = Serial;
    Info.P = SolveInfo::Path::Cached;
    notifyObserver(Info);
    return R;
  }

  refreshOrder(G, Forward);

  P.boundary(Boundary);
  assert(Boundary.size() == Bits && "boundary width mismatch");

  // A changed graph with a still-valid previous solution restarts only
  // over the dirty blocks' closure under the dependence direction.
  bool Incremental = PrevValid;
  if (Incremental) {
    DirtyScratch.clear();
    AffectedSet.clearAndResize(NumBlocks);
    for (BlockId B = 0; B < NumBlocks; ++B) {
      if (G.blockTick(B) > SolTick) {
        AffectedSet.set(B);
        DirtyScratch.push_back(B);
      }
    }
    for (size_t Idx = 0; Idx < DirtyScratch.size(); ++Idx) {
      BlockId B = DirtyScratch[Idx];
      const auto &Deps = Forward ? G.block(B).Succs : G.block(B).Preds;
      for (BlockId D : Deps) {
        if (!AffectedSet.test(D)) {
          AffectedSet.set(D);
          DirtyScratch.push_back(D);
        }
      }
    }
    AM_STAT_INC(NumSolvesIncremental);
  }
  size_t LaneWidth = PackedLaneMatrix::widthFor(Bits);

  if (!Engine)
    Engine = std::make_unique<TransposedEngine>();
  TransposedEngine::SolveRequest Req;
  Req.G = &G;
  Req.P = &P;
  Req.ProblemGen = ProblemGen;
  Req.Order = &Order;
  Req.RowOf = RowOf.get();
  Req.MeetAll = MeetAll;
  Req.BoundaryBlock = Forward ? G.start() : G.end();
  Req.Boundary = &Boundary;
  Req.Incremental = Incremental;
  Req.Dirty = &DirtyScratch;
  // An engine solve that throws leaves its packed planes half-updated, so
  // the previous solution is no longer a valid restart point.
  HaveSolution = false;
  uint64_t BlocksProcessed = Engine->solve(Req);

  SolG = &G;
  SolTick = G.modTick();
  SolStructTick = G.structTick();
  SolGen = ProblemGen;
  SolBits = Bits;
  SolForward = Forward;
  SolMeetAll = MeetAll;
  HaveSolution = true;

  // Every group evaluation touches the meet result, the transferred words
  // and both transfer masks: one lane-width run of words each.
  uint64_t WordsTouched = BlocksProcessed * 4 * LaneWidth;
  AM_STAT_COUNTER(NumBlocksProcessed, "dfa.blocks_processed");
  AM_STAT_COUNTER(NumWordsTouched, "dfa.words_touched");
  AM_STAT_ADD(NumBlocksProcessed, BlocksProcessed);
  AM_STAT_ADD(NumWordsTouched, WordsTouched);

  DataflowResult R = snapshot(G, P, Forward);
  R.BlocksProcessed = BlocksProcessed;
  R.SolveSerial = Serial;

  Info.BlocksProcessed = BlocksProcessed;
  Info.DirtyClosure = Incremental ? DirtyScratch.size() : 0;
  Info.P = Incremental ? SolveInfo::Path::Incremental : SolveInfo::Path::Full;
  notifyObserver(Info);
  return R;
}

DataflowResult am::solve(const FlowGraph &G, const DataflowProblem &P) {
  DataflowSolver Solver;
  return Solver.solve(G, P);
}
