//===- perfbench/driver.cpp - The repository benchmark's driver -----------===//
///
/// \file
/// Runs one workload in this process and prints its metrics.  The driver
/// links the library and measures every layer from outside, by timing the
/// calls it makes into that layer's public functions; nothing inside the
/// library is instrumented for it.
///
///   perfbench_driver --workload <large-serial|large-parallel|request-stream>
///                    --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
///
/// With --trace 0 it reports the end-to-end metrics, measured untraced.
/// With --trace 1 it replays the optimization through its public pieces
/// under spans and reports the per-layer metrics; the spans are written to
/// --spans when the run ends.  The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// A human-readable report goes to stderr.  See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "ProgramGen.h"
#include "Spans.h"

#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "support/Profiler.h"
#include "support/Service.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"
#include "transform/Pipeline.h"
#include "transform/RedundantAssignElim.h"
#include "transform/UniformEmAm.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

//===----------------------------------------------------------------------===//
// Workload parameters (mirrored in perfbench/README.md)
//===----------------------------------------------------------------------===//

/// The 20k-statement shape behind the ROADMAP's end-to-end figures: about
/// 7.5k blocks and 21k instructions.  Left to itself the fixpoint takes 8 to
/// 11 rounds depending on the seed, and the optimization's cost moves with
/// it by up to a fifth; the chain pins it at 11.
GenParams largeParams() {
  GenParams P;
  P.TargetStmts = 20000;
  P.NumVars = 24;
  P.PatternPool = 320;
  P.ChainDepth = 5;
  return P;
}

/// Request-stream programs: small universes, sizes drawn per request.
GenParams requestParams(unsigned Stmts) {
  GenParams P;
  P.TargetStmts = Stmts;
  P.NumVars = 10;
  P.PatternPool = 16;
  return P;
}

constexpr unsigned StreamRequests = 1500;
constexpr unsigned StreamRepeatEvery = 5;
constexpr double StreamMinStmts = 16, StreamMaxStmts = 1024;
constexpr unsigned LargeRuns = 8;  ///< Interpreter input vectors per program.
constexpr unsigned StreamRuns = 4;
constexpr unsigned LargeSetups = 5, StreamSetups = 3;
constexpr unsigned StandaloneRepeats = 3;
constexpr unsigned LargeMinReps = 3;

/// The machine-independent work counters read around every optimization.
/// The dataflow ones come first: they are all a replay through the public
/// pieces reproduces, since the am.* counters belong to the phase driver
/// the replay stands in for.
const char *const CounterNames[] = {
    "dfa.solves",    "dfa.blocks_processed", "dfa.transfers_recomputed",
    "dfa.sweeps",    "am.rounds",            "am.eliminated",
    "am.hoist_rounds"};
constexpr size_t NumDfaCounters = 4;
using Counts = std::vector<uint64_t>;

Counts readCounts(size_t N = std::size(CounterNames)) {
  Counts C;
  am::stats::Registry &R = am::telemetry::Session::current().stats();
  for (size_t Idx = 0; Idx < N; ++Idx)
    C.push_back(R.counterValue(CounterNames[Idx]));
  return C;
}

Counts minus(const Counts &A, const Counts &B) {
  Counts D(A.size());
  for (size_t Idx = 0; Idx < A.size(); ++Idx)
    D[Idx] = A[Idx] - B[Idx];
  return D;
}

//===----------------------------------------------------------------------===//
// Small statistics and the result record
//===----------------------------------------------------------------------===//

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Nearest-rank percentile, Q in [0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[Rank ? Rank - 1 : 0];
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

struct Result {
  uint64_t Attempted = 0, Failed = 0;
  bool ChecksSound = true; ///< False when a check itself misbehaved.
  std::vector<std::string> Problems;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::vector<std::string> Notes;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Counts one attempted operation; \p Problem non-empty marks it failed.
  void attempt(const std::string &Problem) {
    ++Attempted;
    if (!Problem.empty()) {
      ++Failed;
      if (Problems.size() < 20)
        Problems.push_back(Problem);
    }
  }
  void unsound(const std::string &Problem) {
    ChecksSound = false;
    Problems.push_back(Problem);
  }
};

//===----------------------------------------------------------------------===//
// The optimization, direct and replayed
//===----------------------------------------------------------------------===//

/// One text-to-text optimization through the library's entry point.
std::string optimizeText(const std::string &Text) {
  am::ParseResult P = am::parseProgram(Text);
  if (!P.ok())
    return "";
  return am::printGraph(am::runUniformEmAm(P.Graph));
}

/// Graph states the standalone layer solves run on.
struct Snapshots {
  am::FlowGraph PostInit, PreFlush;
};

/// runUniformEmAm replayed through its public pieces, one span per layer
/// call.  Snapshots are taken (inside a `bench.snapshot` span) when \p Snap
/// is non-null.  Returns the printed output; AM rounds go to \p Rounds.
std::string replay(const std::string &Text, SpanRecorder &R, uint64_t Group,
                   Snapshots *Snap, unsigned &Rounds) {
  SpanRecorder::Scope Root(R, "optimize", Group);
  am::ParseResult P;
  {
    SpanRecorder::Scope S(R, "parser.parse", Group);
    P = am::parseProgram(Text);
  }
  if (!P.ok())
    return "";
  am::FlowGraph W;
  {
    // runUniformEmAm works on a copy of its input; so does the replay.
    SpanRecorder::Scope S(R, "transform.split", Group);
    W = P.Graph;
    am::removeSkips(W);
    W.splitCriticalEdges();
  }
  {
    SpanRecorder::Scope S(R, "transform.init", Group);
    am::runInitializationPhase(W);
  }
  if (Snap) {
    SpanRecorder::Scope S(R, "bench.snapshot", Group);
    Snap->PostInit = W;
  }
  // The same iteration cap as runAssignmentMotionPhase, so the replay
  // stops where the library would.
  uint64_t Instrs = W.numInstrs();
  uint64_t Cap = Instrs * Instrs + W.numBlocks() + 16;
  Cap = std::min<uint64_t>(Cap, std::numeric_limits<unsigned>::max());
  am::AmContext Ctx;
  for (Rounds = 0; Rounds < Cap;) {
    ++Rounds;
    unsigned Eliminated;
    bool Hoisted;
    {
      SpanRecorder::Scope S(R, "transform.rae", Group);
      Eliminated = am::runRedundantAssignmentElimination(W, Ctx);
    }
    {
      SpanRecorder::Scope S(R, "transform.aht", Group);
      Hoisted = am::runAssignmentHoisting(W, Ctx);
    }
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  if (Snap) {
    SpanRecorder::Scope S(R, "bench.snapshot", Group);
    Snap->PreFlush = W;
  }
  {
    SpanRecorder::Scope S(R, "transform.flush", Group);
    am::runFinalFlush(W);
  }
  am::FlowGraph Out;
  {
    SpanRecorder::Scope S(R, "transform.simplify", Group);
    Out = am::simplified(W);
  }
  SpanRecorder::Scope S(R, "ir.emit", Group);
  return am::printGraph(Out);
}

/// The Table 1-3 solves and the pattern-table build, called standalone
/// on the replay's snapshots.  Returns the pattern count.
size_t standaloneSolves(const Snapshots &Snap, SpanRecorder &R,
                        uint64_t Group) {
  am::AssignPatternTable Pats;
  {
    SpanRecorder::Scope S(R, "ir.patterns_build", Group);
    Pats.build(Snap.PostInit);
  }
  {
    SpanRecorder::Scope S(R, "analysis.redundancy", Group);
    am::RedundancyAnalysis::run(Snap.PostInit, Pats);
  }
  {
    SpanRecorder::Scope S(R, "analysis.hoistability", Group);
    am::HoistabilityAnalysis::run(Snap.PostInit, Pats);
  }
  {
    SpanRecorder::Scope S(R, "analysis.flush", Group);
    am::FlushAnalysis::run(Snap.PreFlush);
  }
  return Pats.size();
}

/// The service path of one program, piece by piece: the request engine's
/// own parse and canonical print, the guarded pipeline and the output
/// print, then the unguarded pipeline for the guard's cost.
std::string servicePieces(const std::string &Text, SpanRecorder &R,
                          uint64_t Group) {
  am::ParseResult P;
  {
    SpanRecorder::Scope S(R, "service.parse", Group);
    P = am::parseProgram(Text);
  }
  if (!P.ok())
    return "";
  {
    SpanRecorder::Scope S(R, "service.canonical_emit", Group);
    am::printGraph(P.Graph);
  }
  am::ensureInstrIds(P.Graph);
  am::PipelineOptions Guarded;
  Guarded.Guarded = true;
  am::PipelineResult G;
  {
    SpanRecorder::Scope S(R, "pipeline.guarded", Group);
    G = am::runPipeline(P.Graph, "uniform", Guarded);
  }
  std::string Out;
  {
    SpanRecorder::Scope S(R, "service.output_emit", Group);
    Out = am::printGraph(G.Graph);
  }
  SpanRecorder::Scope S(R, "pipeline.unguarded", Group);
  am::runPipeline(P.Graph, "uniform", am::PipelineOptions());
  return Out;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics from the spans
//===----------------------------------------------------------------------===//

/// Folds each span name's per-group totals into one number: the median
/// over groups (repeated optimizations of one program) or the sum
/// (one optimization of each of many programs).
class LayerTable {
public:
  LayerTable(const SpanRecorder &R, bool Sum) : T(R.totals()), Sum(Sum) {}

  double seconds(const std::string &Name) const {
    return fold(Name, [](const SpanRecorder::Totals &X) { return X.Seconds; });
  }
  double allocMb(const std::string &Name) const {
    return fold(Name, [](const SpanRecorder::Totals &X) {
      return static_cast<double>(X.AllocBytes) / (1 << 20);
    });
  }
  double allocs(const std::string &Name) const {
    return fold(Name, [](const SpanRecorder::Totals &X) {
      return static_cast<double>(X.Allocs);
    });
  }

private:
  double fold(const std::string &Name,
              const std::function<double(const SpanRecorder::Totals &)> &F)
      const {
    auto It = T.find(Name);
    if (It == T.end())
      return 0;
    std::vector<double> V;
    for (const auto &[Group, X] : It->second)
      V.push_back(F(X));
    return Sum ? sum(V) : median(V);
  }

  std::map<std::string, std::map<uint64_t, SpanRecorder::Totals>> T;
  bool Sum;
};

/// Seconds outside every child span of the `optimize` roots, and root
/// time less the benchmark's own snapshot copies, folded like LayerTable.
void rootTimes(const SpanRecorder &R, bool Sum, double &Unattributed,
               double &Replay) {
  std::vector<double> Self = R.selfSeconds();
  std::map<uint64_t, double> SelfBy, ReplayBy;
  const std::vector<Span> &All = R.spans();
  for (size_t Idx = 0; Idx < All.size(); ++Idx) {
    if (All[Idx].Name == "optimize") {
      SelfBy[All[Idx].Group] += Self[Idx];
      ReplayBy[All[Idx].Group] += All[Idx].seconds();
    } else if (All[Idx].Name == "bench.snapshot") {
      ReplayBy[All[Idx].Group] -= All[Idx].seconds();
    }
  }
  std::vector<double> S, Rp;
  for (const auto &[G, V] : SelfBy)
    S.push_back(V);
  for (const auto &[G, V] : ReplayBy)
    Rp.push_back(V);
  Unattributed = Sum ? sum(S) : median(S);
  Replay = Sum ? sum(Rp) : median(Rp);
}

void layerMetrics(const SpanRecorder &R, bool Sum, Result &Res) {
  LayerTable L(R, Sum);
  for (const char *Name : {"parser.parse", "transform.split", "transform.init",
                           "transform.rae", "transform.aht", "transform.flush",
                           "transform.simplify", "ir.emit", "ir.patterns_build",
                           "analysis.redundancy", "analysis.hoistability",
                           "analysis.flush"})
    Res.metric(std::string(Name) + "_s", L.seconds(Name), "s");
  if (am::prof::allocTrackingAvailable()) {
    for (const char *Name : {"transform.rae", "transform.aht",
                             "transform.flush"}) {
      Res.metric(std::string(Name) + "_alloc_mb", L.allocMb(Name), "MB");
      Res.metric(std::string(Name) + "_allocs", L.allocs(Name), "count");
    }
  }
  Res.metric("transform.flush_residue_s",
             L.seconds("transform.flush") - L.seconds("analysis.flush"), "s");
  Res.metric("pipeline.guard_overhead_s",
             L.seconds("pipeline.guarded") - L.seconds("pipeline.unguarded"),
             "s");
}

void countMetrics(const Counts &C, Result &Res) {
  Res.metric("dfa.solves", static_cast<double>(C[0]), "count");
  Res.metric("dfa.blocks_processed", static_cast<double>(C[1]), "count");
  Res.metric("dfa.transfers_recomputed", static_cast<double>(C[2]), "count");
}

/// Median per-call cost of the pool's parallelFor with an empty body.
double parallelForMicros() {
  am::threads::ThreadPool &Pool = am::threads::pool();
  std::vector<double> T;
  for (int Idx = 0; Idx < 200; ++Idx) {
    auto T0 = Clock::now();
    Pool.parallelFor(4 * Pool.workers(), [](size_t) {});
    T.push_back(since(T0) * 1e6);
  }
  return median(T);
}

//===----------------------------------------------------------------------===//
// Workload: large-serial / large-parallel
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string SpansPath;
};

void runLarge(const Args &A, unsigned Threads, Result &Res) {
  const GenParams P = largeParams();
  // Set-up: the program text, its parse and the reference runs the output
  // checks compare against.  Repeated; the median is reported.
  std::string Text;
  std::optional<ReferenceRuns> Ref;
  size_t InInstrs = 0, InBlocks = 0;
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep < LargeSetups; ++Rep) {
    auto T0 = Clock::now();
    Text = generateProgramText(A.Seed, P);
    am::ParseResult Parsed = am::parseProgram(Text);
    if (!Parsed.ok()) {
      Res.unsound("generated program does not parse: " + Parsed.Error);
      return;
    }
    Ref.emplace(Parsed.Graph, A.Seed ^ 0x5EEDull, P.NumVars, LargeRuns);
    InInstrs = Parsed.Graph.numInstrs();
    InBlocks = Parsed.Graph.numBlocks();
    am::threads::setGlobalThreadCount(Threads);
    am::threads::pool();
    SetupTimes.push_back(since(T0));
  }
  if (!Ref->ok()) {
    Res.unsound(Ref->error());
    return;
  }
  Res.Notes.push_back("program: " + std::to_string(Text.size()) +
                      " bytes, " + std::to_string(InBlocks) + " blocks, " +
                      std::to_string(InInstrs) + " instrs; " +
                      std::to_string(Threads) + " solver thread(s)");

  // Untimed: one optimization at the other thread count, in its own
  // telemetry session.  Its bytes must equal the timed ones (thread
  // invariance) and its counters must equal every timed rep's.
  const unsigned Other = Threads == 1 ? 4 : 1;
  std::string OtherText;
  Counts SessionCounts;
  {
    am::threads::setGlobalThreadCount(Other);
    am::telemetry::Session Job;
    am::telemetry::SessionScope Scope(Job);
    OtherText = optimizeText(Text);
    SessionCounts = readCounts();
    am::threads::setGlobalThreadCount(Threads);
    am::threads::pool();
  }
  // Untimed warm-up at the timed thread count, so that the first timed rep
  // does not pay for the allocator arenas of freshly started pool workers.
  optimizeText(Text);

  // Timed: text -> parse -> runUniformEmAm -> print, untraced.
  std::string Expected;
  Counts ExpectedCounts;
  std::vector<double> Times;
  uint64_t AllocBytes = 0;
  auto timedRep = [&] {
    Counts C0 = readCounts();
    uint64_t B0 = am::prof::allocatedBytes();
    auto T0 = Clock::now();
    std::string Out = optimizeText(Text);
    double T = since(T0);
    uint64_t Bytes = am::prof::allocatedBytes() - B0;
    Counts C = minus(readCounts(), C0);
    if (Times.empty()) {
      Expected = Out;
      ExpectedCounts = C;
      AllocBytes = Bytes;
    }
    Times.push_back(T);
    std::string Problem;
    if (Out.empty())
      Problem = "optimization failed";
    else if (Out != Expected)
      Problem = "output bytes differ between reps";
    else if (C != ExpectedCounts)
      Problem = "work counters differ between reps";
    Res.attempt(Problem);
  };

  SpanRecorder R;
  unsigned Rounds = 0;
  auto Deadline = Clock::now() + std::chrono::duration<double>(A.Seconds);
  if (!A.Trace) {
    while (Times.size() < LargeMinReps || Clock::now() < Deadline)
      timedRep();
  } else {
    // Direct and replayed optimizations alternate; the replay's first rep
    // also snapshots the graphs the standalone solves run on.
    Snapshots Snap;
    uint64_t Group = 0;
    while (Group < 2 || Clock::now() < Deadline) {
      timedRep();
      Counts C0 = readCounts(NumDfaCounters);
      std::string Out = replay(Text, R, Group, Group == 0 ? &Snap : nullptr,
                               Rounds);
      Counts C = minus(readCounts(NumDfaCounters), C0);
      Counts Want(ExpectedCounts.begin(),
                  ExpectedCounts.begin() + NumDfaCounters);
      Res.attempt(Out != Expected ? "replay output differs from direct call"
                  : C != Want     ? "replay dfa counters differ"
                                  : "");
      ++Group;
    }
    size_t Patterns = 0;
    for (unsigned Rep = 0; Rep < StandaloneRepeats; ++Rep)
      Patterns = standaloneSolves(Snap, R, Group + Rep);
    Res.metric("ir.patterns", static_cast<double>(Patterns), "count");
  }

  // Taken before the checks and the traced run's service path, whose
  // copies would otherwise set the peak.
  const double PeakBytes = static_cast<double>(am::prof::peakRssBytes());

  // Output checks on the (byte-identical) output of every rep.
  uint64_t OutEvals = 0;
  Res.attempt(checkOutputText(Expected, *Ref, OutEvals));
  Res.attempt(OtherText == Expected
                  ? ""
                  : "output differs between 1 and 4 solver threads");
  Res.attempt(SessionCounts == ExpectedCounts
                  ? ""
                  : "session work counters differ from timed reps");
  uint64_t Ignored = 0;
  if (checkOutputText(perturbOutput(Expected), *Ref, Ignored).empty())
    Res.unsound("negative control: a perturbed output passed the check");
  am::ParseResult OutParsed = am::parseProgram(Expected);
  double OutInstrs = OutParsed.ok() ? OutParsed.Graph.numInstrs() : 0;

  if (!A.Trace) {
    Res.metric("setup_s", median(SetupTimes), "s");
    Res.metric("optimize_s", median(Times), "s");
    Res.metric("peak_rss_mb", PeakBytes / (1 << 20), "MB");
    Res.metric("req_per_s", Times.size() / sum(Times), "1/s");
    Res.metric("latency_p50_ms", 1e3 * median(Times), "ms");
    Res.metric("latency_p99_ms", 1e3 * percentile(Times, 0.99), "ms");
    Res.metric("dyn_evals_ratio",
               static_cast<double>(OutEvals) / Ref->inputEvals(), "ratio");
    Res.metric("out_instrs_ratio", OutInstrs / InInstrs, "ratio");
    Res.Notes.push_back("optimizations timed: " +
                        std::to_string(Times.size()) + ", " +
                        std::to_string(percentile(Times, 0)) + " .. " +
                        std::to_string(percentile(Times, 1)) + " s");
    return;
  }

  // Service path on the same program: a miss, then a hit.  No deadline:
  // the default 10 s would turn a slow machine into a failed run.
  am::service::ServiceLimits Limits;
  Limits.DeadlineMs = 0;
  am::service::Engine Eng{Limits};
  am::service::Request Req;
  Req.Source = Text;
  std::vector<double> Lat;
  unsigned Hits = 0;
  for (int Idx = 0; Idx < 2; ++Idx) {
    auto T0 = Clock::now();
    am::service::Response Resp = Eng.handle(Req);
    Lat.push_back(since(T0));
    Hits += Resp.Cached;
    Res.attempt(Resp.Status != "ok"          ? "service status " + Resp.Status
                : Resp.Program != Expected ? "service output differs"
                : Resp.Cached != (Idx == 1) ? "unexpected cache outcome"
                                            : "");
  }
  uint64_t SvcGroup = 1u << 30;
  Res.attempt(servicePieces(Text, R, SvcGroup) == Expected
                  ? ""
                  : "guarded pipeline output differs");

  layerMetrics(R, /*Sum=*/false, Res);
  LayerTable L(R, false);
  Res.metric("service.overhead_s",
             Lat[0] - L.seconds("service.parse") -
                 L.seconds("service.canonical_emit") -
                 L.seconds("pipeline.guarded") -
                 L.seconds("service.output_emit"),
             "s");
  Res.metric("service.hit_ratio", Hits / 2.0, "ratio");
  Res.metric("service.miss_latency_ms", 1e3 * Lat[0], "ms");
  Res.metric("service.hit_latency_ms", 1e3 * Lat[1], "ms");
  countMetrics(ExpectedCounts, Res);
  Res.metric("transform.am_rounds", Rounds, "count");
  double Unattributed = 0, ReplayS = 0;
  rootTimes(R, false, Unattributed, ReplayS);
  Res.metric("unattributed_s", Unattributed, "s");
  Res.metric("unattributed_share", Unattributed / ReplayS, "ratio");
  Res.metric("trace_overhead_s", ReplayS - median(Times), "s");
  Res.metric("mem.alloc_to_rss", AllocBytes / PeakBytes, "ratio");
  Res.metric("threadpool.parallel_for_us", parallelForMicros(), "us");
  if (!A.SpansPath.empty() && !R.write(A.SpansPath))
    Res.unsound("cannot write spans to " + A.SpansPath);
}

//===----------------------------------------------------------------------===//
// Workload: request-stream
//===----------------------------------------------------------------------===//

struct StreamProgram {
  std::string Text;
  std::optional<ReferenceRuns> Ref;
  size_t Instrs = 0;
  std::string Output; ///< First response's program.
  /// The dfa.* / am.* counters of its first response's telemetry session.
  std::vector<std::pair<std::string, uint64_t>> Work;
};

/// The response's dfa.* and am.* counters: machine-independent work.
std::vector<std::pair<std::string, uint64_t>>
workCounters(const am::service::Response &R) {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (const auto &KV : R.Counters)
    if (KV.first.rfind("dfa.", 0) == 0 || KV.first.rfind("am.", 0) == 0)
      Out.push_back(KV);
  return Out;
}

void runStream(const Args &A, Result &Res) {
  // Set-up: draw the stream (program sizes log-uniform, one request in
  // five repeating an earlier program verbatim), parse every distinct
  // program and record its reference runs.  Repeated; median reported.
  std::vector<StreamProgram> Progs;
  std::vector<size_t> Stream;
  std::vector<double> SetupTimes;
  for (unsigned Rep = 0; Rep < StreamSetups; ++Rep) {
    auto T0 = Clock::now();
    Progs.clear();
    Stream.clear();
    Rng R(A.Seed);
    // Sizes come from a golden-ratio sequence with a seeded offset: still
    // log-uniform, but stratified, so the size mix (and with it the
    // latency percentiles) hardly varies from seed to seed while every
    // program's text does.
    double SizePos = R.unit();
    for (unsigned Idx = 0; Idx < StreamRequests; ++Idx) {
      // Every fifth request repeats a seeded pick among the earlier
      // programs, so each seed's stream has the same repeat count.
      if (Idx % StreamRepeatEvery == StreamRepeatEvery - 1) {
        Stream.push_back(R.index(Progs.size()));
        continue;
      }
      SizePos = std::fmod(SizePos + 0.6180339887498949, 1.0);
      double Stmts = StreamMinStmts *
                     std::pow(StreamMaxStmts / StreamMinStmts, SizePos);
      StreamProgram SP;
      SP.Text = generateProgramText(R.next(),
                                    requestParams(static_cast<unsigned>(Stmts)));
      am::ParseResult P = am::parseProgram(SP.Text);
      if (!P.ok()) {
        Res.unsound("generated program does not parse: " + P.Error);
        return;
      }
      SP.Ref.emplace(P.Graph, R.next(), requestParams(0).NumVars, StreamRuns);
      if (!SP.Ref->ok()) {
        Res.unsound(SP.Ref->error());
        return;
      }
      SP.Instrs = P.Graph.numInstrs();
      Stream.push_back(Progs.size());
      Progs.push_back(std::move(SP));
    }
    SetupTimes.push_back(since(T0));
  }
  std::vector<double> ReqInstrs;
  for (size_t Idx : Stream)
    ReqInstrs.push_back(Progs[Idx].Instrs);
  Res.Notes.push_back(
      std::to_string(Stream.size()) + " requests over " +
      std::to_string(Progs.size()) + " distinct programs; input instrs p50 " +
      std::to_string(median(ReqInstrs)) + ", p99 " +
      std::to_string(percentile(ReqInstrs, 0.99)));

  // Timed: one closed-loop client.  A pass is the whole stream against a
  // fresh engine (cold cache).  Passes repeat while another one fits in
  // the run's time, so every run on a machine sees the same request mix;
  // the first pass always runs.  Its first request for each distinct
  // program is followed by the one-shot text-to-text optimization of that
  // program (optimize_s), so both figures sample the same stretch of time.
  std::vector<double> Lat, HitLat, MissLat, OptTimes;
  double FirstPassMissS = 0; ///< Each distinct program's first miss.
  uint64_t OptAllocBytes = 0;
  auto Start = Clock::now();
  double PassS = 0;
  unsigned Passes = 0;
  do {
    auto P0 = Clock::now();
    am::service::Engine Eng{am::service::ServiceLimits()};
    for (size_t Idx = 0; Idx < Stream.size(); ++Idx) {
      StreamProgram &SP = Progs[Stream[Idx]];
      am::service::Request Req;
      Req.Id = Idx;
      Req.Source = SP.Text;
      auto T0 = Clock::now();
      am::service::Response Resp = Eng.handle(Req);
      double T = since(T0);
      Lat.push_back(T);
      (Resp.Cached ? HitLat : MissLat).push_back(T);
      std::string Problem;
      if (Resp.Status != "ok") {
        Problem = "request " + std::to_string(Idx) + ": status " +
                  Resp.Status + " " + Resp.Error;
      } else if (SP.Output.empty()) {
        SP.Output = Resp.Program;
        SP.Work = workCounters(Resp);
        FirstPassMissS += T;
        uint64_t B0 = am::prof::allocatedBytes();
        auto T1 = Clock::now();
        std::string Direct = optimizeText(SP.Text);
        OptTimes.push_back(since(T1));
        OptAllocBytes += am::prof::allocatedBytes() - B0;
        Res.attempt(Direct == SP.Output
                        ? ""
                        : "one-shot output differs from the service's");
      } else if (Resp.Program != SP.Output) {
        Problem = "request " + std::to_string(Idx) +
                  ": program differs from an earlier response";
      } else if (workCounters(Resp) != SP.Work) {
        Problem = "request " + std::to_string(Idx) +
                  ": work counters differ from an earlier response";
      }
      Res.attempt(Problem);
    }
    PassS = since(P0);
    ++Passes;
  } while (since(Start) + PassS <= A.Seconds);

  const double PeakBytes = static_cast<double>(am::prof::peakRssBytes());

  // Output checks.  The negative control runs on every 16th program.
  uint64_t InEvals = 0, OutEvals = 0;
  double InInstrs = 0, OutInstrs = 0;
  bool ControlFlagged = true;
  for (size_t Idx = 0; Idx < Progs.size(); ++Idx) {
    const StreamProgram &SP = Progs[Idx];
    InEvals += SP.Ref->inputEvals();
    Res.attempt(checkOutputText(SP.Output, *SP.Ref, OutEvals));
    uint64_t Ignored = 0;
    if (Idx % 16 == 0 &&
        checkOutputText(perturbOutput(SP.Output), *SP.Ref, Ignored).empty())
      ControlFlagged = false;
    am::ParseResult OutParsed = am::parseProgram(SP.Output);
    InInstrs += SP.Instrs;
    OutInstrs += OutParsed.ok() ? OutParsed.Graph.numInstrs() : 0;
  }
  if (!ControlFlagged)
    Res.unsound("negative control: a perturbed output passed the check");

  if (!A.Trace) {
    Res.metric("setup_s", median(SetupTimes), "s");
    Res.metric("optimize_s", median(OptTimes), "s");
    Res.metric("peak_rss_mb", PeakBytes / (1 << 20), "MB");
    Res.metric("req_per_s", Lat.size() / sum(Lat), "1/s");
    Res.metric("latency_p50_ms", 1e3 * median(Lat), "ms");
    Res.metric("latency_p99_ms", 1e3 * percentile(Lat, 0.99), "ms");
    Res.metric("dyn_evals_ratio", static_cast<double>(OutEvals) / InEvals,
               "ratio");
    Res.metric("out_instrs_ratio", OutInstrs / InInstrs, "ratio");
    Res.Notes.push_back("passes: " + std::to_string(Passes) +
                        ", latency samples: " + std::to_string(Lat.size()));
    return;
  }

  // Traced: every distinct program once through the replay, the
  // standalone solves and the service pieces.  Layer figures are sums
  // over the distinct programs, i.e. the work behind the stream's misses.
  SpanRecorder R;
  Counts Work(NumDfaCounters, 0);
  uint64_t Rounds = 0, Patterns = 0;
  for (size_t Idx = 0; Idx < Progs.size(); ++Idx) {
    const StreamProgram &SP = Progs[Idx];
    Snapshots Snap;
    unsigned R1 = 0;
    Counts C0 = readCounts(NumDfaCounters);
    std::string Out = replay(SP.Text, R, Idx, &Snap, R1);
    Counts C = minus(readCounts(NumDfaCounters), C0);
    for (size_t K = 0; K < C.size(); ++K)
      Work[K] += C[K];
    Rounds += R1;
    Res.attempt(Out == SP.Output ? "" : "replay output differs");
    Patterns += standaloneSolves(Snap, R, Idx);
    Res.attempt(servicePieces(SP.Text, R, Idx) == SP.Output
                    ? ""
                    : "guarded pipeline output differs");
  }
  layerMetrics(R, /*Sum=*/true, Res);
  LayerTable L(R, true);
  Res.metric("service.overhead_s",
             FirstPassMissS - L.seconds("service.parse") -
                 L.seconds("service.canonical_emit") -
                 L.seconds("pipeline.guarded") -
                 L.seconds("service.output_emit"),
             "s");
  Res.metric("service.hit_ratio",
             static_cast<double>(HitLat.size()) / Lat.size(), "ratio");
  Res.metric("service.hit_latency_ms", 1e3 * median(HitLat), "ms");
  Res.metric("service.miss_latency_ms", 1e3 * median(MissLat), "ms");
  countMetrics(Work, Res);
  Res.metric("transform.am_rounds", static_cast<double>(Rounds), "count");
  Res.metric("ir.patterns", static_cast<double>(Patterns), "count");
  double Unattributed = 0, ReplayS = 0;
  rootTimes(R, true, Unattributed, ReplayS);
  Res.metric("unattributed_s", Unattributed, "s");
  Res.metric("unattributed_share", Unattributed / ReplayS, "ratio");
  Res.metric("trace_overhead_s", ReplayS - sum(OptTimes), "s");
  Res.metric("mem.alloc_to_rss", OptAllocBytes / PeakBytes, "ratio");
  Res.metric("threadpool.parallel_for_us", parallelForMicros(), "us");
  if (!A.SpansPath.empty() && !R.write(A.SpansPath))
    Res.unsound("cannot write spans to " + A.SpansPath);
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

/// A fixed integer loop, timed: the host's speed at that moment.  Shared
/// hosts drift by tens of percent over minutes; the report prints this
/// at the start and the end of a run so a reader can tell drift from a
/// change.  It feeds no metric.
double hostProbeMs() {
  auto T0 = Clock::now();
  volatile uint64_t Sink = 0;
  uint64_t X = 1;
  for (int Idx = 0; Idx < 20'000'000; ++Idx)
    X = X * 6364136223846793005ull + 1442695040888963407ull;
  Sink = X;
  (void)Sink;
  return 1e3 * since(T0);
}

void printJson(const Result &Res) {
  bool Correct = Res.ChecksSound && Res.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Res.Attempted),
              static_cast<unsigned long long>(Res.Failed));
  bool First = true;
  for (const auto &[Name, VU] : Res.Metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), VU.first, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
}

void printReport(const Args &A, const Result &Res) {
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               A.Trace ? 1 : 0);
  for (const std::string &N : Res.Notes)
    std::fprintf(stderr, "  %s\n", N.c_str());
  for (const auto &[Name, VU] : Res.Metrics)
    std::fprintf(stderr, "  %-32s %14.6g %s\n", Name.c_str(), VU.first,
                 VU.second.c_str());
  std::fprintf(stderr, "  %-32s %14.6g ratio (%llu failed / %llu attempted)\n",
               "error_rate",
               Res.Attempted ? static_cast<double>(Res.Failed) / Res.Attempted
                             : 0.0,
               static_cast<unsigned long long>(Res.Failed),
               static_cast<unsigned long long>(Res.Attempted));
  for (const std::string &P : Res.Problems)
    std::fprintf(stderr, "  FAILED: %s\n", P.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <large-serial|"
               "large-parallel|request-stream> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false;
  for (int Idx = 1; Idx + 1 < Argc; Idx += 2) {
    std::string Key = Argv[Idx], Val = Argv[Idx + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Val;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Val.empty();
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = *End == '\0' && A.Seconds > 0;
    } else if (Key == "--trace") {
      if (Val != "0" && Val != "1")
        return usage();
      A.Trace = Val == "1";
    } else if (Key == "--spans") {
      A.SpansPath = Val;
    } else {
      return usage();
    }
  }
  if (Argc % 2 != 1 || !HaveSeed || !HaveSeconds)
    return usage();

  Result Res;
  double ProbeStart = hostProbeMs();
  if (A.Workload == "large-serial")
    runLarge(A, 1, Res);
  else if (A.Workload == "large-parallel")
    runLarge(A, 4, Res);
  else if (A.Workload == "request-stream")
    runStream(A, Res);
  else
    return usage();
  Res.Notes.push_back("host speed probe: " + std::to_string(ProbeStart) +
                      " ms at start, " + std::to_string(hostProbeMs()) +
                      " ms at end");

  printReport(A, Res);
  printJson(Res);
  return 0;
}
