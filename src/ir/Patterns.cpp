//===- ir/Patterns.cpp - Pattern universe implementation -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "ir/Patterns.h"

using namespace am;

static size_t hashAssignPat(VarId Lhs, const Term &Rhs) {
  return hashTerm(Rhs) * 31u + index(Lhs);
}

/// Calls \p F(I) for every pattern occurrence of \p G, in (block-index,
/// instruction-index) order.
template <typename Fn> static void forEachOccurrence(const FlowGraph &G, Fn F) {
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      if (I.isAssign() && !I.Rhs.isVarAtom(I.Lhs))
        F(I);
}

bool AssignPatternTable::build(const FlowGraph &G) {
  bool Renumbered = !rankSameSet(G);
  if (Renumbered)
    renumber(G);
  buildVarSets(G);
  return Renumbered;
}

/// Ranks the previous build's patterns by their first occurrence in \p G,
/// looking each occurrence up in the previous build's own Index.  Returns
/// false — leaving the ranks unspecified — as soon as an occurrence is
/// not a previous pattern, or if some previous pattern no longer occurs.
bool AssignPatternTable::rankSameSet(const FlowGraph &G) {
  Rank.assign(Pats.size(), npos);
  size_t Ranked = 0;
  bool Known = true;
  forEachOccurrence(G, [&](const Instr &I) {
    if (!Known)
      return;
    size_t Idx = indexOf(I.Lhs, I.Rhs);
    if (Idx == npos) {
      Known = false;
      return;
    }
    if (Rank[Idx] == npos)
      Rank[Idx] = Ranked++;
  });
  return Known && Ranked == Pats.size();
}

/// Numbers the patterns of \p G in first-occurrence order.
void AssignPatternTable::renumber(const FlowGraph &G) {
  Pats.clear();
  Index.clear();
  forEachOccurrence(G, [&](const Instr &I) {
    if (indexOf(I.Lhs, I.Rhs) != npos)
      return;
    Index.emplace(hashAssignPat(I.Lhs, I.Rhs), Pats.size());
    Pats.push_back({I.Lhs, I.Rhs});
  });
  Rank.resize(Pats.size());
  for (size_t Idx = 0; Idx < Pats.size(); ++Idx)
    Rank[Idx] = Idx;
}

void AssignPatternTable::buildVarSets(const FlowGraph &G) {
  // Per-variable pattern sets, reusing the vectors' existing storage.
  size_t NumVars = G.Vars.size();
  size_t NumPats = Pats.size();
  PatsWithLhs.resize(NumVars);
  PatsUsingInRhs.resize(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    PatsWithLhs[V].clearAndResize(NumPats);
    PatsUsingInRhs[V].clearAndResize(NumPats);
  }
  RedundancyOk.clearAndResize(NumPats);
  TempInit.assign(NumPats, false);
  Empty.clearAndResize(NumPats);

  for (size_t Idx = 0; Idx < NumPats; ++Idx) {
    const AssignPat &P = Pats[Idx];
    PatsWithLhs[index(P.Lhs)].set(Idx);
    P.Rhs.forEachVar(
        [&](VarId V) { PatsUsingInRhs[index(V)].set(Idx); });
    if (!P.Rhs.usesVar(P.Lhs))
      RedundancyOk.set(Idx);
    if (G.Vars.isTemp(P.Lhs) && P.Rhs.isNonTrivial()) {
      ExprId E = G.Exprs.lookup(P.Rhs);
      if (isValid(E) && G.Vars.tempFor(P.Lhs) == E)
        TempInit[Idx] = true;
    }
  }
}

size_t AssignPatternTable::indexOf(VarId Lhs, const Term &Rhs) const {
  auto [It, End] = Index.equal_range(hashAssignPat(Lhs, Rhs));
  for (; It != End; ++It)
    if (Pats[It->second].Lhs == Lhs && Pats[It->second].Rhs == Rhs)
      return It->second;
  return npos;
}

size_t AssignPatternTable::occurrence(const Instr &I) const {
  if (!I.isAssign() || I.Rhs.isVarAtom(I.Lhs))
    return npos;
  return indexOf(I.Lhs, I.Rhs);
}

const BitVector &AssignPatternTable::lhsPats(VarId V) const {
  size_t Idx = index(V);
  return Idx < PatsWithLhs.size() ? PatsWithLhs[Idx] : Empty;
}

const BitVector &AssignPatternTable::rhsUsePats(VarId V) const {
  size_t Idx = index(V);
  return Idx < PatsUsingInRhs.size() ? PatsUsingInRhs[Idx] : Empty;
}

void AssignPatternTable::blockedBy(const Instr &I, BitVector &Out) const {
  Out = Empty;
  // A modification of x or of an operand of t blocks x := t ...
  VarId Def = I.definedVar();
  if (isValid(Def)) {
    Out |= lhsPats(Def);
    Out |= rhsUsePats(Def);
  }
  // ... and so does a *use* of x.
  I.forEachUsedVar([&](VarId U) { Out |= lhsPats(U); });
}

void AssignPatternTable::killedBy(const Instr &I, BitVector &Out) const {
  Out = Empty;
  VarId Def = I.definedVar();
  if (isValid(Def)) {
    Out |= lhsPats(Def);
    Out |= rhsUsePats(Def);
  }
}

void ExprPatternTable::noteTerm(const Term &T) {
  if (!T.isNonTrivial() || indexOf(T) != npos)
    return;
  size_t Idx = Terms.size();
  Terms.push_back(T);
  Index.emplace(hashTerm(T), Idx);
}

void ExprPatternTable::build(const FlowGraph &G) {
  Terms.clear();
  Index.clear();

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      if (I.isAssign()) {
        noteTerm(I.Rhs);
      } else if (I.isBranch()) {
        noteTerm(I.CondL);
        noteTerm(I.CondR);
      }
    }
  }

  size_t NumVars = G.Vars.size();
  PatsUsingVar.assign(NumVars, BitVector(Terms.size()));
  Empty = BitVector(Terms.size());
  for (size_t Idx = 0; Idx < Terms.size(); ++Idx)
    Terms[Idx].forEachVar([&](VarId V) { PatsUsingVar[index(V)].set(Idx); });
}

size_t ExprPatternTable::indexOf(const Term &T) const {
  if (!T.isNonTrivial())
    return npos;
  auto [It, End] = Index.equal_range(hashTerm(T));
  for (; It != End; ++It)
    if (Terms[It->second] == T)
      return It->second;
  return npos;
}

const BitVector &ExprPatternTable::usePats(VarId V) const {
  size_t Idx = index(V);
  return Idx < PatsUsingVar.size() ? PatsUsingVar[Idx] : Empty;
}

void ExprPatternTable::computedBy(const Instr &I, BitVector &Out) const {
  Out = Empty;
  auto Note = [&](const Term &T) {
    size_t Idx = indexOf(T);
    if (Idx != npos)
      Out.set(Idx);
  };
  if (I.isAssign()) {
    Note(I.Rhs);
  } else if (I.isBranch()) {
    Note(I.CondL);
    Note(I.CondR);
  }
}

void ExprPatternTable::killedBy(const Instr &I, BitVector &Out) const {
  Out = Empty;
  VarId Def = I.definedVar();
  if (isValid(Def))
    Out |= usePats(Def);
}
