//===- analysis/LcmAnalyses.h - Lazy-code-motion analyses ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow analyses behind the expression-motion baseline: lazy code
/// motion in the Drechsler/Stadel edge-placement formulation (the paper's
/// refs [10, 15, 16]).  Computes, per expression pattern:
///
///   ANTIN/ANTOUT   anticipability (down-safety), backward all-path
///   AVIN/AVOUT     availability (up-safety), forward all-path
///   EARLIEST(m,n)  earliest safe insertion edges
///   LATER/LATERIN  delayed (lazy) placement
///   INSERT(m,n)    h_e := e insertions on edges
///   DELETE(b)      up-exposed original computations covered by insertions
///
/// The graph must have its critical edges split before running this.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_LCMANALYSES_H
#define AM_ANALYSIS_LCMANALYSES_H

#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

#include <memory>

namespace am {

/// All block- and edge-level LCM facts for one graph snapshot.  \p Exprs
/// must outlive the analysis object.
class LcmAnalysis {
public:
  static LcmAnalysis run(const FlowGraph &G, const ExprPatternTable &Exprs);

  FactRow antIn(BlockId B) const { return Ant.entry(B); }
  FactRow antOut(BlockId B) const { return Ant.exit(B); }
  FactRow avIn(BlockId B) const { return Av.entry(B); }
  FactRow avOut(BlockId B) const { return Av.exit(B); }

  /// ANTLOC: expressions computed in B before any operand modification.
  const BitVector &antloc(BlockId B) const { return Antloc[B]; }

  /// TRANSP: expressions with no operand modification in B.
  const BitVector &transp(BlockId B) const { return Transp[B]; }

  /// EARLIEST for the edge B -> Succs[SuccIdx].
  BitVector earliest(BlockId B, size_t SuccIdx) const;

  /// INSERT for the edge B -> Succs[SuccIdx]: place `h_e := e` there.
  /// With the virtual entry edge, LATERIN(s) = ANTIN(s), so no insertions
  /// at the entry of s are ever required.
  BitVector insertOnEdge(BlockId B, size_t SuccIdx) const;

  /// DELETE: up-exposed computations of e in B are redundant and must be
  /// replaced by h_e.
  BitVector deleteIn(BlockId B) const;

  /// LATERIN, exposed for tests.
  const BitVector &laterIn(BlockId B) const { return LaterIn[B]; }

private:
  const FlowGraph *G = nullptr;
  const ExprPatternTable *Exprs = nullptr;
  std::unique_ptr<DataflowProblem> AntProblem;
  std::unique_ptr<DataflowProblem> AvProblem;
  DataflowResult Ant;
  DataflowResult Av;
  std::vector<BitVector> Antloc;
  std::vector<BitVector> Transp;
  std::vector<std::vector<BitVector>> Later; // per block, per succ edge
  BitVector LaterVirtual;                    // virtual entry edge into s
  std::vector<BitVector> LaterIn;
};

} // namespace am

#endif // AM_ANALYSIS_LCMANALYSES_H
