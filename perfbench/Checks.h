//===- perfbench/Checks.h - Output checks against the interpreter -*- C++ -*-===//
///
/// \file
/// Every optimized program the benchmark receives is checked against its
/// input with the library's interpreter, which shares no code with the
/// transformations: on the same seeded inputs and nondeterministic choices
/// both programs must finish with equal `out` traces.  The same runs count
/// expression evaluations, the paper's objective.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "ir/FlowGraph.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// The reference behaviour of one input program.
class ReferenceRuns {
public:
  /// Runs \p Input on \p Runs input vectors drawn from \p Seed, binding
  /// v0..v(NumVars-1).  ok() is false when the input itself does not
  /// finish, which makes the program unusable as a workload.
  ReferenceRuns(const am::FlowGraph &Input, uint64_t Seed, unsigned NumVars,
                unsigned Runs);

  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

  /// Expression evaluations of the input over all runs.
  uint64_t inputEvals() const { return InputEvals; }

  /// Runs \p Output on the same inputs; returns "" when every trace
  /// matches, else what differed.  Adds its evaluations to \p Evals.
  std::string compare(const am::FlowGraph &Output, uint64_t &Evals) const;

private:
  struct Run {
    std::unordered_map<std::string, int64_t> Vars;
    uint64_t NondetSeed = 0;
    std::vector<int64_t> Trace;
  };
  std::vector<Run> Runs;
  uint64_t InputEvals = 0;
  std::string Error;
};

/// Parses \p Text and checks it against \p Ref; "" on success.
std::string checkOutputText(const std::string &Text, const ReferenceRuns &Ref,
                            uint64_t &Evals);

/// The negative control: \p Text (a printed CFG) with an extra `out(v0)`
/// at the top of its start block, which every run executes.
std::string perturbOutput(const std::string &Text);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
