//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#ifndef AM_TESTS_TESTUTIL_H
#define AM_TESTS_TESTUTIL_H

#include "interp/Interpreter.h"
#include "ir/FlowGraph.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "support/Json.h"
#include "support/Profiler.h"

#include <gtest/gtest.h>

namespace am::test {

/// Parses a program (either syntax), failing the test on errors.
inline FlowGraph parse(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << "parse error: " << R.Error << "\nsource:\n" << Src;
  return std::move(R.Graph);
}

/// Counts the occurrences of assignment `LhsName := <term printed as RhsText>`
/// anywhere in \p G; term text uses the printer's spelling, e.g. "a + b".
inline unsigned countAssigns(const FlowGraph &G, const std::string &LhsName,
                             const std::string &RhsText) {
  unsigned N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      if (I.isAssign() && G.Vars.name(I.Lhs) == LhsName &&
          printTerm(I.Rhs, G.Vars) == RhsText)
        ++N;
  return N;
}

/// Counts instructions in block \p B whose printed form equals \p Text.
inline unsigned countInBlock(const FlowGraph &G, BlockId B,
                             const std::string &Text) {
  unsigned N = 0;
  for (const Instr &I : G.block(B).Instrs)
    if (printInstr(I, G.Vars) == Text)
      ++N;
  return N;
}

/// Counts computations (assignment rhs or branch operand) of the printed
/// term \p TermText anywhere in \p G.
inline unsigned countComputations(const FlowGraph &G,
                                  const std::string &TermText) {
  unsigned N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs) {
      if (I.isAssign() && I.Rhs.isNonTrivial() &&
          printTerm(I.Rhs, G.Vars) == TermText)
        ++N;
      if (I.isBranch()) {
        if (I.CondL.isNonTrivial() && printTerm(I.CondL, G.Vars) == TermText)
          ++N;
        if (I.CondR.isNonTrivial() && printTerm(I.CondR, G.Vars) == TermText)
          ++N;
      }
    }
  return N;
}

/// Runs \p G on inputs where every listed variable gets the paired value.
inline ExecResult
run(const FlowGraph &G,
    std::initializer_list<std::pair<const char *, int64_t>> Inputs,
    uint64_t Seed = 0) {
  std::unordered_map<std::string, int64_t> Map;
  for (const auto &[Name, Value] : Inputs)
    Map.emplace(Name, Value);
  return Interpreter::execute(G, Map, Seed);
}

/// Checks \p Trace against the profiler it was exported from
/// (Profiler::toChromeTraceJson): valid JSON, exactly one "X" event per
/// non-root node, named as the node, in preorder, and every event's
/// [ts, ts+dur] inside its parent node's event.
inline ::testing::AssertionResult
traceMatchesProfile(const prof::Profiler &P, const std::string &Trace) {
  std::string Error;
  std::unique_ptr<json::Value> Doc = json::parse(Trace, &Error);
  if (!Doc)
    return ::testing::AssertionFailure() << "invalid JSON: " << Error;
  const json::Value *Events = Doc->find("traceEvents");
  if (!Events || !Events->isArray())
    return ::testing::AssertionFailure() << "no traceEvents array";
  const std::vector<json::Value> &E = Events->array();
  size_t Next = 0;
  ::testing::AssertionResult Ok = ::testing::AssertionSuccess();
  // Preorder over the tree; Parent is the event index of the enclosing
  // node, or npos under the root.
  auto Walk = [&](auto &&Self, uint32_t Id, size_t Parent) -> void {
    for (uint32_t Child : P.node(Id).Children) {
      if (!Ok)
        return;
      if (Next >= E.size()) {
        Ok = ::testing::AssertionFailure() << "too few events";
        return;
      }
      const json::Value &Ev = E[Next];
      size_t Index = Next++;
      uint64_t Ts = Ev.getU64("ts"), End = Ts + Ev.getU64("dur");
      if (Ev.getString("name") != P.node(Child).Name ||
          Ev.getString("ph") != "X") {
        Ok = ::testing::AssertionFailure()
             << "event " << Index << " is '" << Ev.getString("name")
             << "', node is '" << P.node(Child).Name << "'";
        return;
      }
      if (Parent != std::string::npos) {
        uint64_t PTs = E[Parent].getU64("ts");
        uint64_t PEnd = PTs + E[Parent].getU64("dur");
        if (Ts < PTs || End > PEnd) {
          Ok = ::testing::AssertionFailure()
               << "event '" << P.node(Child).Name << "' [" << Ts << ", "
               << End << "] escapes its parent [" << PTs << ", " << PEnd
               << "]";
          return;
        }
      }
      Self(Self, Child, Index);
    }
  };
  Walk(Walk, prof::Profiler::RootId, std::string::npos);
  if (Ok && Next != E.size())
    Ok = ::testing::AssertionFailure()
         << E.size() << " events for " << Next << " nodes";
  return Ok;
}

} // namespace am::test

#endif // AM_TESTS_TESTUTIL_H
