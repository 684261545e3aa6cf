//===- perfbench/Checks.cpp - Output checks against the interpreter -------===//

#include "Checks.h"
#include "ProgramGen.h"

#include "interp/Interpreter.h"
#include "parser/Parser.h"

using namespace perfbench;

ReferenceRuns::ReferenceRuns(const am::FlowGraph &Input, uint64_t Seed,
                             unsigned NumVars, unsigned NumRuns) {
  Rng R(Seed);
  for (unsigned Idx = 0; Idx < NumRuns; ++Idx) {
    Run Ru;
    for (unsigned V = 0; V < NumVars; ++V)
      Ru.Vars["v" + std::to_string(V)] = static_cast<int64_t>(R.index(23)) - 11;
    Ru.NondetSeed = R.next();
    am::ExecResult E = am::Interpreter::execute(Input, Ru.Vars, Ru.NondetSeed);
    if (!E.finished()) {
      Error = "input program did not finish on run " + std::to_string(Idx);
      return;
    }
    InputEvals += E.Stats.ExprEvaluations;
    Ru.Trace = std::move(E.Output);
    Runs.push_back(std::move(Ru));
  }
}

std::string ReferenceRuns::compare(const am::FlowGraph &Output,
                                   uint64_t &Evals) const {
  for (size_t Idx = 0; Idx < Runs.size(); ++Idx) {
    am::ExecResult E =
        am::Interpreter::execute(Output, Runs[Idx].Vars, Runs[Idx].NondetSeed);
    Evals += E.Stats.ExprEvaluations;
    if (!E.finished())
      return "output did not finish on run " + std::to_string(Idx);
    if (E.Output != Runs[Idx].Trace)
      return "output trace differs on run " + std::to_string(Idx);
  }
  return "";
}

std::string perfbench::checkOutputText(const std::string &Text,
                                       const ReferenceRuns &Ref,
                                       uint64_t &Evals) {
  am::ParseResult P = am::parseProgram(Text);
  if (!P.ok())
    return "output does not parse: " + P.Error;
  return Ref.compare(P.Graph, Evals);
}

std::string perfbench::perturbOutput(const std::string &Text) {
  size_t Start = Text.find("# start\n");
  if (Start == std::string::npos)
    return Text;
  std::string Out = Text;
  Out.insert(Start + 8, "  out(v0)\n");
  return Out;
}
