//===- ir/Patterns.h - Assignment and expression pattern universes -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pattern universes of Section 2: the set EP of expression patterns
/// and the set AP of assignment patterns occurring in a program, indexed
/// densely so dataflow facts are bit vectors.  Also provides the
/// per-instruction relations every analysis needs:
///
///  * an instruction *blocks* the hoisting of `x := t` if it modifies an
///    operand of t, or uses or modifies x (Definition 3.2);
///  * an instruction *kills* (is not ASS-TRANSP for) `v := t` if it
///    modifies v or an operand of t (Table 2);
///  * an instruction *kills* an expression pattern e if it modifies an
///    operand of e (classic availability/anticipability).
///
//===----------------------------------------------------------------------===//

#ifndef AM_IR_PATTERNS_H
#define AM_IR_PATTERNS_H

#include "ir/FlowGraph.h"
#include "support/BitVector.h"

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace am {

/// An assignment pattern `Lhs := Rhs` (a string pattern, not an occurrence).
struct AssignPat {
  VarId Lhs = VarId::Invalid;
  Term Rhs;

  friend bool operator==(const AssignPat &A, const AssignPat &B) {
    return A.Lhs == B.Lhs && A.Rhs == B.Rhs;
  }
};

/// Dense index over the assignment patterns AP of one program snapshot.
/// Rebuild after every transformation step; indices are only meaningful for
/// the snapshot the table was built from.
///
/// Numbering is round-stable: a rebuild that finds exactly the previous
/// build's pattern *set* keeps every index, even if the first-occurrence
/// order moved, so facts keyed on the indices stay meaningful.  rank()
/// gives each pattern's position in the current first-occurrence order —
/// the index a fresh table would assign — for consumers whose output
/// order must not depend on the table's history.
class AssignPatternTable {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Collects every assignment pattern occurring in \p G.  A table with
  /// no previous build (or after clear()) numbers them in deterministic
  /// (block-index, instruction-index) first-occurrence order; a rebuild
  /// whose pattern set equals the previous build's keeps the previous
  /// indices and only updates the ranks, and any other rebuild renumbers
  /// from scratch.  Returns true if the indices changed (callers use this
  /// to decide whether bit indices — and thus any cached facts keyed on
  /// them — are still meaningful).  Rebuilding reuses the table's
  /// existing storage.
  bool build(const FlowGraph &G);

  /// Forgets the previous build, so the next one numbers in
  /// first-occurrence order whatever it finds.
  void clear() {
    Pats.clear();
    Index.clear();
    Rank.clear();
  }

  size_t size() const { return Pats.size(); }

  /// Position of pattern \p Idx in the current first-occurrence order.
  size_t rank(size_t Idx) const {
    assert(Idx < Rank.size() && "pattern index out of range");
    return Rank[Idx];
  }

  const AssignPat &pattern(size_t Idx) const {
    assert(Idx < Pats.size() && "pattern index out of range");
    return Pats[Idx];
  }

  /// Index of pattern `Lhs := Rhs`, or npos.
  size_t indexOf(VarId Lhs, const Term &Rhs) const;

  /// Index of the pattern instruction \p I is an occurrence of, or npos if
  /// \p I is not an assignment (or is an `x := x` pseudo-skip).
  size_t occurrence(const Instr &I) const;

  /// Sets \p Out to the patterns whose *hoisting* \p I blocks.
  void blockedBy(const Instr &I, BitVector &Out) const;

  /// Sets \p Out to the patterns for which \p I is not ASS-TRANSP.
  void killedBy(const Instr &I, BitVector &Out) const;

  /// The patterns whose left-hand side is \p V: a use or a modification
  /// of V blocks them.
  const BitVector &lhsPats(VarId V) const;

  /// The patterns with \p V as a right-hand-side operand: a modification
  /// of V blocks and kills them.
  const BitVector &rhsUsePats(VarId V) const;

  /// Patterns `v := t` with v not an operand of t — the only patterns the
  /// redundancy analysis of Table 2 ranges over.
  const BitVector &redundancyEligible() const { return RedundancyOk; }

  /// True if pattern \p Idx has the form `h_e := e` for the temporary
  /// associated with expression pattern e (an *initialization*).
  bool isTempInit(size_t Idx) const { return TempInit[Idx]; }

  /// Returns a fresh all-false fact vector of the right width.
  BitVector makeVector() const { return BitVector(Pats.size()); }

private:
  bool rankSameSet(const FlowGraph &G);
  void renumber(const FlowGraph &G);
  void buildVarSets(const FlowGraph &G);

  std::vector<AssignPat> Pats;
  std::vector<size_t> Rank;                      // pattern idx -> rank
  std::unordered_multimap<size_t, size_t> Index; // hash -> pattern idx
  std::vector<BitVector> PatsWithLhs;            // var -> patterns with lhs var
  std::vector<BitVector> PatsUsingInRhs;         // var -> patterns using var in rhs
  BitVector RedundancyOk;
  std::vector<bool> TempInit;
  BitVector Empty;
};

/// Dense index over the expression patterns EP of one program snapshot
/// (assignment right-hand sides and branch-condition operands with exactly
/// one operator).  Used by the LCM baseline and by statistics.
class ExprPatternTable {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  void build(const FlowGraph &G);

  size_t size() const { return Terms.size(); }

  const Term &term(size_t Idx) const {
    assert(Idx < Terms.size() && "expression index out of range");
    return Terms[Idx];
  }

  size_t indexOf(const Term &T) const;

  /// Sets \p Out to the expression patterns computed by \p I (in its
  /// right-hand side or one of its condition operands).
  void computedBy(const Instr &I, BitVector &Out) const;

  /// Sets \p Out to the expression patterns killed by \p I (an operand is
  /// modified).
  void killedBy(const Instr &I, BitVector &Out) const;

  BitVector makeVector() const { return BitVector(Terms.size()); }

private:
  void noteTerm(const Term &T);
  const BitVector &usePats(VarId V) const;

  std::vector<Term> Terms;
  std::unordered_multimap<size_t, size_t> Index;
  std::vector<BitVector> PatsUsingVar; // var -> patterns with var operand
  BitVector Empty;
};

} // namespace am

#endif // AM_IR_PATTERNS_H
