//===- dfa/MultiPattern.h - Transposed multi-pattern solver ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow engine behind every DataflowSolver::solve: a transposed
/// ("bit-slice") worklist fixpoint.  The paper's problems (Tables 1-3)
/// are independent per pattern, so the width is partitioned into word
/// slices — patterns [64k, 64k+63] form slice k — grouped lane-width
/// slices at a time, and each group runs its own worklist fixpoint:
///
///   X[B] = gen[B] | (N[B] & ~kill[B])     (lane-width uint64_t each)
///
/// over a flat, arena-backed interleaved lane array per group
/// (PackedLaneMatrix).  Groups share nothing but read-only inputs, so
/// they drain concurrently on the support/ThreadPool — and even on one
/// thread the early-converging groups stop being reswept, while the
/// per-evaluation control cost (worklist, edge walks) is amortized over
/// the lane width.
///
/// The lane width is fitted to the problem, never configured: one word
/// when the whole problem fits one 64-bit slice (liveness, copy
/// propagation and most small programs' pattern universes), GroupWidth
/// words otherwise — a narrow problem evaluated on 16-word lanes would
/// touch fifteen dead words per evaluation.
///
/// Determinism contract: the per-group fixpoints are exact (the unique
/// greatest/least solution), each group's schedule is sequential within
/// its task, groups write disjoint arrays, and all counters are
/// per-group sums — so results *and* machine-independent counters are
/// identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef AM_DFA_MULTIPATTERN_H
#define AM_DFA_MULTIPATTERN_H

#include "ir/FlatProgram.h"
#include "ir/FlowGraph.h"
#include "support/Arena.h"
#include "support/BitVector.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace am {

class DataflowProblem;

/// A flat, index-ordered bucket ring over a solver iteration order of
/// size N: order indices are pushed in any order and popped ascending
/// from a cursor, wrapping around — the classic round-based schedule for
/// iterative bit-vector analyses, with no heap in push or pop.
class WorklistRing {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Empties the ring and sizes it for order indices in [0, N).
  void reset(size_t N) {
    Pending.clearAndResize(N);
    Cursor = 0;
    Count = 0;
  }

  void push(size_t OrderIdx) {
    if (!Pending.test(OrderIdx)) {
      Pending.set(OrderIdx);
      ++Count;
    }
  }

  /// Pops the next pending index at or after the cursor, wrapping to the
  /// lowest pending index when the scan runs off the end.  npos if empty.
  size_t pop() {
    if (Count == 0)
      return npos;
    size_t Idx = Pending.findNext(Cursor);
    if (Idx == Pending.size())
      Idx = Pending.findFirst();
    Pending.reset(Idx);
    --Count;
    Cursor = Idx + 1;
    return Idx;
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

private:
  BitVector Pending;
  size_t Cursor = 0;
  size_t Count = 0;
};

/// The transfer side of the solve-loop working set, interleaved and
/// grouped: slices come in groups of width() words, and per (group, row)
/// the matrix stores one contiguous {gen[width()], kill[width()]} lane
/// pair.  One transfer evaluation reads both masks from a single lane —
/// with separate gen and kill matrices they live megabytes apart and a
/// large solve becomes latency-bound on independent streams.  On wide
/// problems the group width trades the two overheads against each
/// other: wider groups amortize the per-evaluation control cost
/// (worklist, edge lists, branches) over more words, narrower groups
/// converge and stop resweeping independently sooner.
///
/// The out words the meet side gathers are deliberately NOT in here:
/// they live in their own dense plane (PackedGroupPlane) of width()
/// words per row, so a group's whole meet-visible state spans
/// rows() * width() * 8 bytes — small enough to stay cache-resident
/// while the much larger gen/kill pairs stream past once per sweep.
class PackedLaneMatrix {
public:
  /// Word slices per group of a wide problem; 16 * 64 = 1024 patterns
  /// advance per evaluation.
  static constexpr size_t GroupWidth = 16;

  /// The lane width of a \p Bits-wide problem: 1 word when it fits one
  /// slice, GroupWidth otherwise.  The engine instantiates its fixpoint
  /// for exactly these two widths.
  static constexpr size_t widthFor(size_t Bits) {
    return Bits <= 64 ? 1 : GroupWidth;
  }

  size_t rows() const { return NumRows; }
  size_t bits() const { return NumBits; }
  size_t slices() const { return NumSlices; }
  size_t groups() const { return NumGroups; }
  size_t width() const { return Width; }

  /// Resizes to \p Rows x \p Bits and zero-fills all lanes.
  void reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    NumBits = Bits;
    NumSlices = (Bits + 63) / 64;
    Width = widthFor(Bits);
    NumGroups = (NumSlices + Width - 1) / Width;
    Mem.reset();
    size_t Total = NumRows * NumGroups * 2 * Width;
    Data = Total ? Mem.allocate<uint64_t>(Total) : nullptr;
    for (size_t I = 0; I < Total; ++I)
      Data[I] = 0;
  }

  /// The lane array of group \p Gr: row B's pair starts at index
  /// B * 2 * width(), laid out gen words, then kill words.
  uint64_t *groupLanes(size_t Gr) { return Data + Gr * NumRows * 2 * Width; }
  const uint64_t *groupLanes(size_t Gr) const {
    return Data + Gr * NumRows * 2 * Width;
  }

  /// Mask of the valid (in-width) bits of slice \p S; zero for the dead
  /// tail words of a partial final group.
  uint64_t sliceMask(size_t S) const {
    if (S >= NumSlices)
      return 0;
    size_t Rem = NumBits % 64;
    if (S + 1 == NumSlices && Rem != 0)
      return (uint64_t(1) << Rem) - 1;
    return ~uint64_t(0);
  }

  /// Tile flush: writes the \p N rows Rows[0..N) (ascending) from the
  /// staged composed transfers Gen[0..N) / Kill[0..N) (width bits()).
  /// Writing row by row touches every group region (a cache-line-sized
  /// write per group, strided megabytes apart on large programs — a full
  /// rebuild spends its time waiting on that scatter); flushing a tile
  /// walks the groups in the outer loop instead, so each group region
  /// receives one ascending N-row burst while the staged vectors stay
  /// resident.  Dead tail words of a partial final group stay zero (the
  /// identity transfer).
  void setTransferRows(const uint32_t *Rows, size_t N, const BitVector *Gen,
                       const BitVector *Kill) {
    for (size_t Gr = 0; Gr < NumGroups; ++Gr) {
      uint64_t *Base = groupLanes(Gr);
      for (size_t R = 0; R < N; ++R) {
        uint64_t *L = Base + size_t(Rows[R]) * 2 * Width;
        for (size_t W = 0; W < Width; ++W) {
          size_t S = Gr * Width + W;
          L[W] = S < NumSlices ? Gen[R].word(S) : 0;
          L[Width + W] = S < NumSlices ? Kill[R].word(S) : 0;
        }
      }
    }
  }

private:
  support::Arena Mem;
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t NumBits = 0;
  size_t NumSlices = 0;
  size_t NumGroups = 0;
  size_t Width = 1;
};

/// A group-major plane companion to PackedLaneMatrix: per (group, row)
/// one lane width of contiguous words.  The engine keeps two — the dense
/// out plane the meet side gathers from, and the in plane written once
/// per evaluation — and results read both in place (DataflowResult).
class PackedGroupPlane {
public:
  void reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    NumBits = Bits;
    Width = PackedLaneMatrix::widthFor(Bits);
    size_t NumSlices = (Bits + 63) / 64;
    NumGroups = (NumSlices + Width - 1) / Width;
    Mem.reset();
    size_t Total = NumRows * NumGroups * Width;
    Data = Total ? Mem.allocate<uint64_t>(Total) : nullptr;
    for (size_t I = 0; I < Total; ++I)
      Data[I] = 0;
  }

  /// Reshapes to \p Other's shape and copies its words.
  void copyFrom(const PackedGroupPlane &Other) {
    reshape(Other.NumRows, Other.NumBits);
    for (size_t I = 0, E = NumRows * NumGroups * Width; I < E; ++I)
      Data[I] = Other.Data[I];
  }

  size_t rows() const { return NumRows; }
  size_t bits() const { return NumBits; }
  size_t width() const { return Width; }

  uint64_t *groupRow(size_t Gr) { return Data + Gr * NumRows * Width; }
  const uint64_t *groupRow(size_t Gr) const {
    return Data + Gr * NumRows * Width;
  }

private:
  support::Arena Mem;
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t NumBits = 0;
  size_t NumGroups = 0;
  size_t Width = 1;
};

/// The converged solution of one solve, keyed by iteration-order position
/// (the last row is the unreachable-block dummy): In is the meet side,
/// Out the transferred side.  Shared between the engine and the results
/// that read it; the engine never writes planes a result still holds.
class SolutionPlanes {
public:
  PackedGroupPlane In;
  PackedGroupPlane Out;
};

/// Composed per-block gen/kill transfers stored as packed lanes,
/// refreshed tick-incrementally.  A full rebuild walks an arena-backed
/// FlatProgram snapshot (one linear pass over the whole instruction
/// stream, parallelized over block ranges); an incremental refresh
/// recomposes only tick-dirty blocks, also on the pool
/// (`dfa.transfers_recomputed` counts recompositions, so a
/// cache-friendly fixpoint shows it far below `dfa.blocks_processed`).
class MultiPatternTransfers {
public:
  /// Brings the gen/kill lanes of \p Lanes (the engine's interleaved
  /// working set, already shaped for this solve) up to date for
  /// \p G / \p P; counts recompositions into `dfa.transfers_recomputed`.
  /// Returns true when the refresh was incremental (out lanes of
  /// non-dirty rows were not touched).
  ///
  /// Rows are keyed by *iteration-order position*, not BlockId: block
  /// Order[I] owns row I = RowOf[Order[I]], so the solver's seed sweep
  /// walks the lane array strictly sequentially.  Unreachable blocks
  /// (absent from the order) map to the dummy row Order.size(), whose
  /// transfer stays the identity and whose out word stays the
  /// optimistic initial value — the value a never-evaluated neighbor
  /// holds.  A full
  /// rebuild also retargets the CSR edge lists into position space
  /// (meetOff/meetPos, depOff/depPos), which is valid as long as the
  /// order is — both are functions of the graph structure and the
  /// problem direction, and either changing forces the full rebuild.
  bool refresh(const FlowGraph &G, const DataflowProblem &P,
               uint64_t ProblemGen, PackedLaneMatrix &Lanes,
               const std::vector<BlockId> &Order,
               const std::vector<uint32_t> &RowOf);

  /// Forgets the cached graph identity (next refresh is a full rebuild)
  /// — required before binding to a different graph, whose address and
  /// ticks could alias the cached ones.
  void invalidate() {
    Valid = false;
    CachedG = nullptr;
  }

  /// Position-space CSR: the meet neighbors of position I are
  /// meetPos()[meetOff()[I] .. meetOff()[I + 1]), likewise the requeue
  /// dependents.  Meet entries may name the dummy row; dependent lists
  /// never do.
  const uint32_t *meetOff() const { return MeetOff.data(); }
  const uint32_t *meetPos() const { return MeetPos.data(); }
  const uint32_t *depOff() const { return DepOff.data(); }
  const uint32_t *depPos() const { return DepPos.data(); }

private:
  FlatProgram Flat;
  std::vector<uint32_t> MeetOff, MeetPos, DepOff, DepPos;
  const FlowGraph *CachedG = nullptr;
  uint64_t CachedGen = 0;
  size_t CachedBits = 0;
  bool CachedForward = true;
  Tick RefreshTick = 0;
  bool Valid = false;
  std::vector<uint32_t> DirtyRows; ///< Incremental refresh scratch.
};

/// The per-solver engine: packed transfers, the packed previous
/// solution, and one worklist ring per slice group.  DataflowSolver owns
/// one and runs every non-cached solve on it; the solver also decides
/// whether the packed previous solution may seed an incremental solve.
class TransposedEngine {
public:
  struct SolveRequest {
    const FlowGraph *G = nullptr;
    const DataflowProblem *P = nullptr;
    uint64_t ProblemGen = 0;
    const std::vector<BlockId> *Order = nullptr;
    /// Block -> order position, Order->size() for unreachable blocks.
    const std::vector<uint32_t> *RowOf = nullptr;
    bool MeetAll = true;
    BlockId BoundaryBlock = 0;
    const BitVector *Boundary = nullptr;
    /// When set, seed only the blocks in *Dirty (already closed under
    /// the dependence direction); the engine's previous solve must have
    /// converged on the same graph structure and problem identity.
    bool Incremental = false;
    const std::vector<BlockId> *Dirty = nullptr;
  };

  /// Runs the grouped fixpoint (transfers are refreshed internally);
  /// returns the number of group-block transfer evaluations (each one
  /// advances one lane width of words of every pattern in the group).
  uint64_t solve(const SolveRequest &R);

  /// The planes of the last solve, for results to read in place.  The
  /// engine's next solve writes fresh planes if any holder of these is
  /// still alive (copy-on-write; counted as `dfa.planes_cloned`).
  std::shared_ptr<const SolutionPlanes> planes() const { return Sol; }

  /// Forgets the packed transfers' graph identity — the cross-graph
  /// reset (see DataflowSolver::invalidate).
  void invalidate() { Transfers.invalidate(); }

private:
  template <bool MeetAll, size_t Width>
  uint64_t drainGroupImpl(size_t Gr, const SolveRequest &R, size_t NumPos,
                          size_t BoundaryPos);

  MultiPatternTransfers Transfers;
  /// Interleaved {gen, kill} solve-loop lanes (see PackedLaneMatrix),
  /// keyed by iteration-order position; the last row is the unreachable-
  /// block dummy.
  PackedLaneMatrix LaneM;
  /// The solution planes.  Out, the transferred side, holds the words
  /// the meet gathers read: dense (one lane-width run per row) so a
  /// group's whole meet-visible state stays cache-resident across the
  /// fixpoint.  In, the meet side, is written once per evaluation and
  /// kept out of the hot loop's read set.
  std::shared_ptr<SolutionPlanes> Sol;
  /// Closure positions of an incremental solve, ascending.
  std::vector<uint32_t> Seeds;
  BitVector SeedSet;
  std::vector<WorklistRing> GroupWork;
};

} // namespace am

#endif // AM_DFA_MULTIPATTERN_H
