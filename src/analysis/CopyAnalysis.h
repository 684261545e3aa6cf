//===- analysis/CopyAnalysis.h - Reaching copies ----------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reaching-copy analysis for the copy-propagation baseline (used in the
/// paper's Section 6 comparison of "EM + CP" against uniform EM & AM).
/// A copy `x := y` reaches a point if it was executed on every path from s
/// and neither x nor y was modified since.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_COPYANALYSIS_H
#define AM_ANALYSIS_COPYANALYSIS_H

#include "dfa/Dataflow.h"

#include <memory>
#include <vector>

namespace am {

/// The copy patterns `x := y` (variable-to-variable) of one snapshot.
class CopyUniverse {
public:
  void build(const FlowGraph &G);

  size_t size() const { return Copies.size(); }
  VarId dst(size_t Idx) const { return Copies[Idx].Dst; }
  VarId src(size_t Idx) const { return Copies[Idx].Src; }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Index of the copy pattern \p I is an occurrence of, or npos.
  size_t occurrence(const Instr &I) const;

  /// Copies invalidated by \p I (either side modified).
  void killedBy(const Instr &I, BitVector &Out) const;

  BitVector makeVector() const { return BitVector(Copies.size()); }

private:
  struct Copy {
    VarId Dst;
    VarId Src;
  };
  std::vector<Copy> Copies;
};

/// Forward all-path reaching-copies facts.
class CopyAnalysis {
public:
  static CopyAnalysis run(const FlowGraph &G);

  const CopyUniverse &universe() const { return *U; }

  /// Per-instruction reaching facts of \p B, replayed in program order
  /// (see DataflowResult::walk).
  template <typename Fn> void walk(BlockId B, FactWalk &S, Fn &&Visit) const {
    Result.walk(B, S, Visit);
  }

private:
  std::unique_ptr<CopyUniverse> U;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

} // namespace am

#endif // AM_ANALYSIS_COPYANALYSIS_H
