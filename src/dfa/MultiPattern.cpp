//===- dfa/MultiPattern.cpp - Transposed multi-pattern solver --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "dfa/MultiPattern.h"
#include "dfa/Dataflow.h"
#include "support/Profiler.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>

using namespace am;

namespace {

/// Folds block \p B's per-instruction transfers into one composed
/// gen/kill pair, in execution order (forward) or reverse execution
/// order (backward): applying "later" transfer g to the composed f gives
/// gen' = g.gen | (gen & ~g.kill), kill' = kill | g.kill.  \p At maps an
/// instruction index to the instruction.
template <typename InstrAt>
void composeInto(const DataflowProblem &P, bool Forward, BlockId B,
                 size_t NumInstrs, InstrAt &&At, BitVector &GenAcc,
                 BitVector &KillAcc, BitVector &GenScratch,
                 BitVector &KillScratch) {
  size_t Bits = P.numBits();
  GenAcc.clearAndResize(Bits);
  KillAcc.clearAndResize(Bits);
  auto Step = [&](size_t Idx) {
    const Instr &I = At(Idx);
    P.gen(B, Idx, I, GenScratch);
    P.kill(B, Idx, I, KillScratch);
    GenAcc.andNot(KillScratch);
    GenAcc |= GenScratch;
    KillAcc |= KillScratch;
  };
  if (Forward) {
    for (size_t Idx = 0; Idx < NumInstrs; ++Idx)
      Step(Idx);
  } else {
    for (size_t Idx = NumInstrs; Idx-- > 0;)
      Step(Idx);
  }
}

/// Rows composed per tile before one setTransferRows flush.
constexpr size_t TileRows = 64;

/// A thread's transfer staging, kept across refreshes so composing
/// allocates nothing once the vectors have grown to the problem width.
struct Staging {
  BitVector GenS, KillS;
  BitVector GenT[TileRows], KillT[TileRows];
  uint32_t Rows[TileRows];
};
thread_local Staging TileStaging;

} // namespace

//===----------------------------------------------------------------------===//
// MultiPatternTransfers
//===----------------------------------------------------------------------===//

bool MultiPatternTransfers::refresh(const FlowGraph &G,
                                    const DataflowProblem &P,
                                    uint64_t ProblemGen,
                                    PackedLaneMatrix &Lanes,
                                    const std::vector<BlockId> &Order,
                                    const std::vector<uint32_t> &RowOf) {
  AM_STAT_COUNTER(NumRecomposed, "dfa.transfers_recomputed");
  size_t Bits = P.numBits();
  bool Forward = P.direction() == Direction::Forward;
  size_t NumBlocks = G.numBlocks();
  size_t NumPos = Order.size();

  // A packed matrix cannot grow rows in place (the slice stride changes),
  // so any block-count change rebuilds everything; so does any structural
  // change, because both the iteration order and the position-space edge
  // lists derive from the structure.  Block splitting and edge rewiring
  // happen before the fixpoint rounds; steady-state refreshes see a
  // stable structure and stay incremental.  (The engine reshapes Lanes
  // before calling in, so matching cached dimensions also mean the
  // gen/kill lanes were not wiped.)
  bool Incremental = Valid && CachedG == &G && CachedGen == ProblemGen &&
                     CachedBits == Bits && CachedForward == Forward &&
                     Lanes.rows() == NumPos + 1 && Lanes.bits() == Bits &&
                     Flat.structAt() == G.structTick();

  // Composes the blocks at rows Row(Begin) .. Row(End - 1) (ascending),
  // staged TileRows at a time in the thread's TileStaging and flushed per
  // tile so the packed scatter writes each group region in ascending
  // bursts instead of one strided cache line per row (see
  // setTransferRows).  Rows are disjoint per range and the problem's
  // gen/kill are const reads, so ranges run on the pool.  A full rebuild
  // reads the flat snapshot it just took; an incremental one reads the
  // live graph, since the snapshot predates the edits.
  auto ComposeRows = [&](size_t Begin, size_t End, auto &&Row) {
    auto &[GenS, KillS, GenT, KillT, Rows] = TileStaging;
    for (size_t TBase = Begin; TBase < End; TBase += TileRows) {
      size_t TEnd = TBase + TileRows < End ? TBase + TileRows : End;
      for (size_t I = TBase; I < TEnd; ++I) {
        Rows[I - TBase] = Row(I);
        BlockId B = Order[Rows[I - TBase]];
        BitVector &Gen = GenT[I - TBase], &Kill = KillT[I - TBase];
        if (!Incremental) {
          FlatProgram::Span Sp = Flat.span(B);
          composeInto(
              P, Forward, B, Sp.End - Sp.Begin,
              [&](size_t Idx) -> const Instr & {
                return *Flat.slot(Sp.Begin + Idx).I;
              },
              Gen, Kill, GenS, KillS);
        } else {
          const auto &Instrs = G.block(B).Instrs;
          composeInto(
              P, Forward, B, Instrs.size(),
              [&](size_t Idx) -> const Instr & { return Instrs[Idx]; }, Gen,
              Kill, GenS, KillS);
        }
      }
      Lanes.setTransferRows(Rows, TEnd - TBase, GenT, KillT);
    }
  };

  uint64_t Recomposed = 0;
  if (!Incremental) {
    Flat.build(G);
    Recomposed = NumBlocks;
    // One linear pass over the flat instruction stream, split into
    // contiguous *position* ranges across the pool (position I is block
    // Order[I]; unreachable blocks have no position and keep the dummy
    // row's identity transfer).
    threads::pool().parallelRanges(NumPos, [&](size_t Begin, size_t End) {
      ComposeRows(Begin, End,
                  [](size_t I) { return static_cast<uint32_t>(I); });
    });
    // Retarget the CSR edge lists into position space.  Meet edges from
    // an unreachable neighbor read the dummy row; requeue edges into one
    // are dropped (evaluating the dummy is a no-op by construction).
    MeetOff.assign(NumPos + 1, 0);
    DepOff.assign(NumPos + 1, 0);
    MeetPos.clear();
    DepPos.clear();
    for (size_t I = 0; I < NumPos; ++I) {
      BlockId B = Order[I];
      FlatProgram::Edges ME = Forward ? Flat.preds(B) : Flat.succs(B);
      FlatProgram::Edges DE = Forward ? Flat.succs(B) : Flat.preds(B);
      for (BlockId N : ME)
        MeetPos.push_back(RowOf[N]);
      for (BlockId N : DE)
        if (RowOf[N] != NumPos)
          DepPos.push_back(RowOf[N]);
      MeetOff[I + 1] = uint32_t(MeetPos.size());
      DepOff[I + 1] = uint32_t(DepPos.size());
    }
  } else {
    // The tick-dirty reachable blocks, on the pool as in the full rebuild:
    // after an AM round most blocks can be dirty.  A handful of dirty rows
    // is not worth a pool round trip.
    DirtyRows.clear();
    for (BlockId B = 0; B < NumBlocks; ++B)
      if (G.blockTick(B) > RefreshTick && RowOf[B] != NumPos)
        DirtyRows.push_back(RowOf[B]);
    std::sort(DirtyRows.begin(), DirtyRows.end());
    auto Range = [&](size_t Begin, size_t End) {
      ComposeRows(Begin, End, [&](size_t I) { return DirtyRows[I]; });
    };
    if (DirtyRows.size() >= 64)
      threads::pool().parallelRanges(DirtyRows.size(), Range);
    else
      Range(0, DirtyRows.size());
    Recomposed = DirtyRows.size();
  }
  AM_STAT_ADD(NumRecomposed, Recomposed);

  CachedG = &G;
  CachedGen = ProblemGen;
  CachedBits = Bits;
  CachedForward = Forward;
  RefreshTick = G.modTick();
  Valid = true;
  return Incremental;
}

//===----------------------------------------------------------------------===//
// TransposedEngine
//===----------------------------------------------------------------------===//

template <bool MeetAll, size_t GW>
uint64_t TransposedEngine::drainGroupImpl(size_t Gr, const SolveRequest &R,
                                          size_t NumPos, size_t BoundaryPos) {
  const uint32_t *MeetOff = Transfers.meetOff();
  const uint32_t *MeetPos = Transfers.meetPos();
  const uint32_t *DepOff = Transfers.depOff();
  const uint32_t *DepPos = Transfers.depPos();
  uint64_t *Lane = LaneM.groupLanes(Gr);
  uint64_t *Out = Sol->Out.groupRow(Gr);
  uint64_t *InP = Sol->In.groupRow(Gr);
  const size_t NumSlices = LaneM.slices();
  uint64_t InitW[GW], BoundaryW[GW];
  for (size_t W = 0; W < GW; ++W) {
    size_t S = Gr * GW + W;
    InitW[W] = MeetAll ? LaneM.sliceMask(S) : 0;
    BoundaryW[W] = S < NumSlices ? R.Boundary->word(S) : 0;
  }
  WorklistRing &WL = GroupWork[Gr];
  uint64_t Processed = 0;

  // Recomputes position I; returns true if its transferred side changed
  // in any word of the group.  Rows are keyed by iteration position, so
  // in the sweep below every array this touches — the gen/kill pair,
  // the in and out planes, the edge offsets and targets — advances
  // strictly sequentially; only the meet gathers jump, and those stay
  // inside this group's dense out plane (rows() * GW words), which is
  // what keeps them cache hits even when the gen/kill stream is far too
  // large to be resident.  Dead tail words of a partial final group
  // carry the identity transfer over an all-zero meet, so they never
  // report a change.
  auto Eval = [&](size_t I) {
    const uint64_t *L = Lane + I * 2 * GW;
    uint64_t NewIn[GW];
    if (I == BoundaryPos) {
      for (size_t W = 0; W < GW; ++W)
        NewIn[W] = BoundaryW[W];
    } else {
      uint32_t EI = MeetOff[I], EE = MeetOff[I + 1];
      if (EI == EE) {
        for (size_t W = 0; W < GW; ++W)
          NewIn[W] = InitW[W];
      } else {
        const uint64_t *N = Out + size_t(MeetPos[EI]) * GW;
        for (size_t W = 0; W < GW; ++W)
          NewIn[W] = N[W];
        while (++EI != EE) {
          N = Out + size_t(MeetPos[EI]) * GW;
          for (size_t W = 0; W < GW; ++W) {
            if (MeetAll)
              NewIn[W] &= N[W];
            else
              NewIn[W] |= N[W];
          }
        }
      }
    }
    uint64_t *InRow = InP + I * GW;
    uint64_t *OutRow = Out + I * GW;
    uint64_t Changed = 0;
    for (size_t W = 0; W < GW; ++W) {
      uint64_t NewOut = L[W] | (NewIn[W] & ~L[GW + W]);
      InRow[W] = NewIn[W];
      Changed |= NewOut ^ OutRow[W];
      OutRow[W] = NewOut;
    }
    return Changed != 0;
  };

  // First cycle as a straight sweep over the seeded positions — every
  // position on a full solve, the dirty closure's (ascending) on an
  // incremental one.  With every seed pending, a ring drain pops them in
  // iteration order anyway, so this visits the same positions in the
  // same order — but without a bit-scan pop per block, and pushing only
  // dependents at or before the cursor (later ones are seeds too, since
  // the closure is closed under dependents, and are reached by the sweep
  // itself and see the new value).  The per-group payoff: a group whose
  // patterns converge in the sweep never pushes at all, so its ring
  // drain below is empty.
  auto Visit = [&](size_t I) {
    ++Processed;
    if (Eval(I)) {
      for (uint32_t D = DepOff[I], DE = DepOff[I + 1]; D != DE; ++D) {
        size_t DepIdx = DepPos[D];
        if (DepIdx <= I)
          WL.push(DepIdx);
      }
    }
  };
  if (R.Incremental)
    for (uint32_t I : Seeds)
      Visit(I);
  else
    for (size_t I = 0; I < NumPos; ++I)
      Visit(I);

  while (true) {
    size_t I = WL.pop();
    if (I == WorklistRing::npos)
      break;
    ++Processed;
    if (Eval(I)) {
      for (uint32_t D = DepOff[I], DE = DepOff[I + 1]; D != DE; ++D)
        WL.push(DepPos[D]);
    }
  }
  return Processed;
}

uint64_t TransposedEngine::solve(const SolveRequest &R) {
  const FlowGraph &G = *R.G;
  const DataflowProblem &P = *R.P;
  size_t Bits = P.numBits();
  size_t NumPos = R.Order->size();
  size_t BoundaryPos = (*R.RowOf)[R.BoundaryBlock];

  // Copy-on-write: a result still reading the planes keeps them, and this
  // solve writes fresh ones — a copy when it restarts from the previous
  // solution, uninitialized planes otherwise.
  if (!Sol || Sol.use_count() > 1) {
    auto Fresh = std::make_shared<SolutionPlanes>();
    if (Sol) {
      AM_STAT_COUNTER(NumCloned, "dfa.planes_cloned");
      AM_STAT_INC(NumCloned);
      if (R.Incremental) {
        Fresh->In.copyFrom(Sol->In);
        Fresh->Out.copyFrom(Sol->Out);
      }
    }
    Sol = std::move(Fresh);
  }
  // Rows are order positions plus the unreachable-block dummy.
  if (Sol->In.rows() != NumPos + 1 || Sol->In.bits() != Bits) {
    Sol->In.reshape(NumPos + 1, Bits);
    Sol->Out.reshape(NumPos + 1, Bits);
  }
  // Reshape before refreshing the transfers: a wiped lane matrix must
  // never pass the refresh's incremental check (its cached dimensions
  // would mismatch, forcing the full rebuild that repopulates gen/kill).
  if (LaneM.rows() != NumPos + 1 || LaneM.bits() != Bits)
    LaneM.reshape(NumPos + 1, Bits);
  {
    AM_PROF_SCOPE("dfa.refresh");
    Transfers.refresh(G, P, R.ProblemGen, LaneM, *R.Order, *R.RowOf);
  }
  if (R.Incremental) {
    SeedSet.clearAndResize(NumPos);
    for (BlockId B : *R.Dirty)
      if ((*R.RowOf)[B] != NumPos)
        SeedSet.set((*R.RowOf)[B]);
    Seeds.clear();
    SeedSet.forEachSetBit(
        [&](size_t Pos) { Seeds.push_back(static_cast<uint32_t>(Pos)); });
  }

  const size_t GW = LaneM.width();
  size_t NumGroups = LaneM.groups();
  if (GroupWork.size() < NumGroups)
    GroupWork.resize(NumGroups);

  std::vector<uint64_t> Processed(NumGroups, 0);

  // Worker-side profiling goes to private per-group trees (the session
  // profiler's scope stack is not thread-safe) merged below in group
  // order — the deterministic fold support/Profiler.h documents.
  prof::Profiler &SessionProf = prof::Profiler::get();
  bool Prof = SessionProf.enabled();
  std::vector<std::unique_ptr<prof::Profiler>> GroupProfs;
  if (Prof) {
    GroupProfs.resize(NumGroups);
    for (auto &Ptr : GroupProfs) {
      Ptr = std::make_unique<prof::Profiler>();
      Ptr->setEnabled(true);
    }
  }

  auto RunGroup = [&](size_t Gr) {
    prof::OverrideScope Ov(Prof ? GroupProfs[Gr].get() : nullptr);
    AM_PROF_SCOPE("dfa.solve.slice");
    uint64_t *InP = Sol->In.groupRow(Gr);
    uint64_t *Out = Sol->Out.groupRow(Gr);
    uint64_t InitW[PackedLaneMatrix::GroupWidth];
    for (size_t W = 0; W < GW; ++W)
      InitW[W] = R.MeetAll ? LaneM.sliceMask(Gr * GW + W) : 0;
    GroupWork[Gr].reset(NumPos);
    // Seed rows restart from the initial value; drainGroupImpl sweeps
    // them first and only requeues enter the ring.  On a full solve every
    // row is a seed, and row NumPos, the dummy, is pinned at the initial
    // value so meets from unreachable neighbors read the optimistic value
    // a never-evaluated block holds.
    auto Init = [&](size_t Row) {
      for (size_t W = 0; W < GW; ++W) {
        InP[Row * GW + W] = InitW[W];
        Out[Row * GW + W] = InitW[W];
      }
    };
    if (R.Incremental)
      for (uint32_t Row : Seeds)
        Init(Row);
    else
      for (size_t Row = 0; Row <= NumPos; ++Row)
        Init(Row);
    // The meet operator and the lane width select the instantiation; the
    // direction is already folded into the position-space edge lists.
    constexpr size_t Wide = PackedLaneMatrix::GroupWidth;
    if (GW == 1 && R.MeetAll)
      Processed[Gr] = drainGroupImpl<true, 1>(Gr, R, NumPos, BoundaryPos);
    else if (GW == 1)
      Processed[Gr] = drainGroupImpl<false, 1>(Gr, R, NumPos, BoundaryPos);
    else if (R.MeetAll)
      Processed[Gr] = drainGroupImpl<true, Wide>(Gr, R, NumPos, BoundaryPos);
    else
      Processed[Gr] = drainGroupImpl<false, Wide>(Gr, R, NumPos, BoundaryPos);
  };

  threads::ThreadPool &Pool = threads::pool();
  if (NumGroups > 1 && Pool.workers() > 1)
    Pool.parallelFor(NumGroups, RunGroup);
  else
    for (size_t Gr = 0; Gr < NumGroups; ++Gr)
      RunGroup(Gr);

  if (Prof)
    for (size_t Gr = 0; Gr < NumGroups; ++Gr)
      SessionProf.merge(*GroupProfs[Gr]);

  uint64_t Total = 0;
  for (uint64_t C : Processed)
    Total += C;
  return Total;
}
