//===- analysis/Annotate.cpp - Annotated listings ---------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/Annotate.h"
#include "analysis/Liveness.h"
#include "analysis/PaperAnalyses.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"

#include <span>
#include <sstream>

using namespace am;

namespace {

std::string patternName(const FlowGraph &G, const AssignPat &P) {
  return G.Vars.name(P.Lhs) + " := " + printTerm(P.Rhs, G.Vars);
}

/// Lists the set bits of \p V using \p NameOf, or "-" when empty.
template <typename NameFn>
std::string setToString(const BitVector &V, NameFn NameOf) {
  if (V.none())
    return "-";
  std::string S;
  for (size_t Idx : V.setBits()) {
    if (!S.empty())
      S += ", ";
    S += NameOf(Idx);
  }
  return S;
}

std::string annotateRedundancy(const FlowGraph &G) {
  AssignPatternTable Pats;
  Pats.build(G);
  RedundancyAnalysis An = RedundancyAnalysis::run(G, Pats);
  auto Name = [&](size_t Idx) { return patternName(G, Pats.pattern(Idx)); };

  std::ostringstream OS;
  FactWalk Walk;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    OS << "b" << B << ":\n";
    An.walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                         const BitVector &) {
      const Instr &I = G.block(B).Instrs[Idx];
      OS << "  " << printInstr(I, G.Vars);
      size_t Pat = Pats.occurrence(I);
      if (Pat != AssignPatternTable::npos && Before.test(Pat))
        OS << "    ;; REDUNDANT";
      OS << "\n    ;; redundant here: " << setToString(Before, Name) << "\n";
    });
  }
  return OS.str();
}

std::string annotateHoistability(const FlowGraph &G) {
  AssignPatternTable Pats;
  Pats.build(G);
  HoistabilityAnalysis An = HoistabilityAnalysis::run(G, Pats);
  auto Name = [&](size_t Idx) { return patternName(G, Pats.pattern(Idx)); };

  std::ostringstream OS;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    OS << "b" << B << ":\n";
    OS << "  ;; N-HOISTABLE: "
       << setToString(An.entryHoistable(B).toBitVector(), Name)
       << "\n";
    OS << "  ;; N-INSERT:    " << setToString(An.entryInsert(B), Name)
       << "\n";
    BitVector BlockedSoFar = Pats.makeVector();
    BitVector Tmp = Pats.makeVector();
    for (const Instr &I : G.block(B).Instrs) {
      OS << "  " << printInstr(I, G.Vars);
      size_t Pat = Pats.occurrence(I);
      if (Pat != AssignPatternTable::npos && !BlockedSoFar.test(Pat))
        OS << "    ;; CANDIDATE";
      OS << "\n";
      Pats.blockedBy(I, Tmp);
      BlockedSoFar |= Tmp;
    }
    OS << "  ;; X-HOISTABLE: "
       << setToString(An.exitHoistable(B).toBitVector(), Name)
       << "\n";
    OS << "  ;; X-INSERT:    " << setToString(An.exitInsert(B), Name) << "\n";
  }
  return OS.str();
}

std::string annotateFlush(const FlowGraph &G) {
  FlushAnalysis An = FlushAnalysis::run(G);
  const FlushUniverse &U = An.universe();
  auto Name = [&](size_t Idx) { return G.Vars.name(U.temp(Idx)); };

  std::ostringstream OS;
  OS << ";; temporaries: ";
  if (U.size() == 0)
    OS << "(none)";
  for (size_t Idx = 0; Idx < U.size(); ++Idx)
    OS << (Idx ? ", " : "") << Name(Idx) << " := "
       << printTerm(U.expr(Idx), G.Vars);
  OS << "\n";
  FactWalk Walk;
  FlushAnalysis::BlockPlan Plan;
  std::vector<std::string> UsableAfter;
  auto Names = [&](std::span<const uint32_t> Temps) {
    std::string S;
    for (uint32_t Idx : Temps)
      S += (S.empty() ? "" : ", ") + Name(Idx);
    return S;
  };
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    OS << "b" << B << ":\n";
    // Usability runs backward: keep its per-instruction text for the
    // forward listing below.
    UsableAfter.assign(G.block(B).Instrs.size(), "");
    An.usability().walk(
        B, Walk, [&](size_t Idx, const BitVector &, const BitVector &After) {
          UsableAfter[Idx] = setToString(After, Name);
        });
    An.plan(B, Plan);
    An.delayability().walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                                        const BitVector &) {
      if (!Plan.initBefore(Idx).empty())
        OS << "  ;; INIT: " << Names(Plan.initBefore(Idx)) << "\n";
      OS << "  " << printInstr(G.block(B).Instrs[Idx], G.Vars);
      if (!Plan.reconstruct(Idx).empty())
        OS << "    ;; RECONSTRUCT " << Names(Plan.reconstruct(Idx));
      OS << "\n    ;; delayable: " << setToString(Before, Name)
         << "  usable-after: " << UsableAfter[Idx] << "\n";
    });
    if (!Plan.InitAtExit.empty())
      OS << "  ;; INIT-AT-EXIT: " << Names(Plan.InitAtExit) << "\n";
  }
  return OS.str();
}

std::string annotateLiveness(const FlowGraph &G) {
  LivenessAnalysis An = LivenessAnalysis::run(G);
  auto Name = [&](size_t Idx) {
    return G.Vars.name(makeVarId(static_cast<uint32_t>(Idx)));
  };

  std::ostringstream OS;
  FactWalk Walk;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    OS << "b" << B << ":\n";
    // Liveness runs backward: collect the lines, print them forward.
    std::vector<std::string> Lines(G.block(B).Instrs.size());
    An.walk(B, Walk, [&](size_t Idx, const BitVector &Before,
                         const BitVector &) {
      Lines[Idx] = "  " + printInstr(G.block(B).Instrs[Idx], G.Vars) +
                   "\n    ;; live: " + setToString(Before, Name) + "\n";
    });
    for (const std::string &L : Lines)
      OS << L;
    OS << "  ;; live-out: "
       << setToString(An.liveOut(B).toBitVector(), Name) << "\n";
  }
  return OS.str();
}

} // namespace

std::string am::annotate(const FlowGraph &G, AnnotationKind Kind) {
  switch (Kind) {
  case AnnotationKind::Redundancy:
    return annotateRedundancy(G);
  case AnnotationKind::Hoistability:
    return annotateHoistability(G);
  case AnnotationKind::Flush:
    return annotateFlush(G);
  case AnnotationKind::Liveness:
    return annotateLiveness(G);
  }
  return "";
}

bool am::parseAnnotationKind(const std::string &Name, AnnotationKind &Out) {
  if (Name == "redundancy" || Name == "rae") {
    Out = AnnotationKind::Redundancy;
    return true;
  }
  if (Name == "hoist" || Name == "hoistability") {
    Out = AnnotationKind::Hoistability;
    return true;
  }
  if (Name == "flush" || Name == "delay") {
    Out = AnnotationKind::Flush;
    return true;
  }
  if (Name == "live" || Name == "liveness") {
    Out = AnnotationKind::Liveness;
    return true;
  }
  return false;
}
