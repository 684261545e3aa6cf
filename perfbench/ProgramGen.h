//===- perfbench/ProgramGen.h - Seeded program-text generator --*- C++ -*-===//
///
/// \file
/// The benchmark's own workload generator.  It writes programs in the
/// library's structured language (`program { ... }`) straight from a seed,
/// so the optimizer under test only ever sees program text and a change to
/// the library's generators cannot silently change the workload.
///
/// The shape follows the property tests' structured programs: runs of
/// assignments drawn mostly from a shared pattern pool (which makes partial
/// redundancies common), bounded `while`/`repeat` loops on dedicated
/// counters, `if`/`else` on generated conditions, nondeterministic
/// `choose`/`or`, and `out` statements.  Every program terminates and ends
/// in `out(<all pool variables>)`, plus the last link of the optional
/// chain described at GenParams::ChainDepth.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMGEN_H
#define PERFBENCH_PROGRAMGEN_H

#include <cstdint>
#include <string>

namespace perfbench {

/// splitmix64: small, fast and identical on every platform, so a seed
/// names the same workload everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t index(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double P) { return unit() < P; }

private:
  uint64_t State;
};

/// Generator parameters; recorded per workload in BENCHMARK.json.
struct GenParams {
  unsigned TargetStmts = 40;
  unsigned NumVars = 6;
  unsigned PatternPool = 10;
  unsigned MaxDepth = 3;
  unsigned MaxLoopIters = 4;
  double LoopProb = 0.15;
  double IfProb = 0.20;
  double ChooseProb = 0.08;
  double OutProb = 0.10;
  /// When nonzero, the program opens with a branch whose arms both hold
  /// the same chain of this many dependent assignments, on variables
  /// outside the pool.  Hoisting the chain out of the branch takes the
  /// assignment-motion fixpoint 2 * ChainDepth + 1 rounds (one link and its
  /// expression temporary per round, then a round that changes nothing),
  /// so a chain deeper than the random part's pins the round count: the
  /// seed then changes the program but not how many rounds it needs.
  unsigned ChainDepth = 0;
};

/// Writes one terminating structured program.  Equal seeds and parameters
/// give byte-equal text.
std::string generateProgramText(uint64_t Seed, const GenParams &P);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMGEN_H
