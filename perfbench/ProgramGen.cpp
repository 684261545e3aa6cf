//===- perfbench/ProgramGen.cpp - Seeded program-text generator -----------===//

#include "ProgramGen.h"

#include <vector>

using namespace perfbench;

namespace {

class TextBuilder {
public:
  TextBuilder(uint64_t Seed, const GenParams &P)
      : R(Seed), P(P), Remaining(P.TargetStmts) {
    for (unsigned Idx = 0; Idx < P.PatternPool; ++Idx)
      Pool.push_back(var() + " := " + term());
  }

  std::string build() {
    Out += "program {\n";
    if (P.ChainDepth)
      chain();
    while (Remaining > 0)
      stmts(0);
    Out += "  out(";
    for (unsigned V = 0; V < numVars(); ++V)
      Out += (V ? ", v" : "v") + std::to_string(V);
    if (P.ChainDepth)
      Out += ", ch" + std::to_string(P.ChainDepth);
    Out += ");\n}\n";
    return std::move(Out);
  }

private:
  unsigned numVars() const { return P.NumVars ? P.NumVars : 1; }
  std::string var() { return "v" + std::to_string(R.index(numVars())); }

  std::string operand() {
    if (R.chance(0.8))
      return var();
    return std::to_string(R.index(10));
  }

  std::string term() {
    std::string A = operand();
    if (R.chance(0.85)) {
      static const char *const Ops[] = {" + ", " - ", " * "};
      return A + Ops[R.index(3)] + operand();
    }
    return A;
  }

  std::string cond() {
    static const char *const Rels[] = {" < ", " <= ", " > ",
                                       " >= ", " == ", " != "};
    return "(" + term() + Rels[R.index(6)] + term() + ")";
  }

  void line(unsigned Depth, const std::string &Text) {
    Out.append(2 * (Depth + 1), ' ');
    Out += Text;
    Out += '\n';
  }

  void stmts(unsigned Depth) {
    unsigned Run = 1 + static_cast<unsigned>(R.index(8));
    for (unsigned Idx = 0; Idx < Run && Remaining > 0; ++Idx) {
      --Remaining;
      double Roll = R.unit();
      bool CanNest = Depth < P.MaxDepth;
      if (CanNest && Roll < P.LoopProb) {
        loop(Depth, R.chance(0.5));
      } else if (CanNest && Roll < P.LoopProb + P.IfProb) {
        line(Depth, "if " + cond() + " {");
        stmts(Depth + 1);
        line(Depth, "} else {");
        stmts(Depth + 1);
        line(Depth, "}");
      } else if (CanNest && Roll < P.LoopProb + P.IfProb + P.ChooseProb) {
        line(Depth, "choose {");
        stmts(Depth + 1);
        line(Depth, "} or {");
        stmts(Depth + 1);
        line(Depth, "}");
      } else if (Roll < P.LoopProb + P.IfProb + P.ChooseProb + P.OutProb) {
        std::string Args = var();
        for (uint64_t N = R.index(3); N > 0; --N)
          Args += ", " + var();
        line(Depth, "out(" + Args + ");");
      } else if (!Pool.empty() && R.chance(0.75)) {
        line(Depth, Pool[R.index(Pool.size())] + ";");
      } else {
        line(Depth, var() + " := " + term() + ";");
      }
    }
  }

  /// The fixed chain GenParams::ChainDepth describes; it reads only pool
  /// variables' input values, so its outputs are checked like the rest.
  void chain() {
    line(0, "ch0 := v0;");
    line(0, "if (v0 < v" + std::to_string(numVars() - 1) + ") {");
    for (int Arm = 0; Arm < 2; ++Arm) {
      for (unsigned Idx = 1; Idx <= P.ChainDepth; ++Idx)
        line(1, "ch" + std::to_string(Idx) + " := ch" +
                    std::to_string(Idx - 1) + " + 1;");
      line(0, Arm ? "}" : "} else {");
    }
  }

  /// A counter outside the variable pool bounds every loop, so programs
  /// terminate and output traces are exact.
  void loop(unsigned Depth, bool Repeat) {
    std::string C = "lc" + std::to_string(NumLoops++);
    std::string Bound = std::to_string(1 + R.index(P.MaxLoopIters));
    line(Depth, C + " := 0;");
    line(Depth, Repeat ? "repeat {" : "while (" + C + " < " + Bound + ") {");
    stmts(Depth + 1);
    line(Depth + 1, C + " := " + C + " + 1;");
    line(Depth, Repeat ? "} until (" + C + " >= " + Bound + ");" : "}");
  }

  Rng R;
  GenParams P;
  unsigned Remaining;
  unsigned NumLoops = 0;
  std::vector<std::string> Pool;
  std::string Out;
};

} // namespace

std::string perfbench::generateProgramText(uint64_t Seed, const GenParams &P) {
  return TextBuilder(Seed, P).build();
}
