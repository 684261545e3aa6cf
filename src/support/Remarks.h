//===- support/Remarks.h - Optimization remarks & provenance ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide sink of typed *optimization remarks*: one record per
/// transformation decision — a decomposition, a hoist, an elimination, an
/// initialization sink, a deletion, a reconstruction, or a blocked motion
/// — each carrying the decision's position (stable instruction id, block,
/// index), the pass and AM fixpoint round that fired it, and the
/// *justifying dataflow facts* the paper's theorems hang the decision on
/// (e.g. the N-REDUNDANT bit for a rae kill, the latestness frontier
/// DELAYED ∧ frontier ∧ USABLE for a flush placement).
///
/// The remarks double as a provenance stream: every instruction carries a
/// stable id (Instr::Id) assigned on first observation, remarks that
/// create instructions record the parent ids they descend from, and
/// `Provenance` assembles the id-level lineage DAG — an assignment can be
/// followed from its original occurrence through decomposition and motion
/// across rounds to its final position or deleting remark.
///
/// Cost model mirrors support/Stats.h: collection is off by default and
/// every instrumentation site is gated on `AM_REMARKS_ENABLED()` — one
/// relaxed atomic load when the library is built normally, a compile-time
/// `false` (the whole site is dead code) under `-DAM_DISABLE_STATS`.
/// With collection off no instruction ids are assigned and no remark is
/// ever constructed, so optimized output is byte-identical to a build
/// without the subsystem.
///
/// The sink is thread-safe for add/read; the pass/round context is a
/// plain store because the optimizer pipeline is single-threaded (as are
/// the transformations themselves).
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_REMARKS_H
#define AM_SUPPORT_REMARKS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace am::remarks {

/// What kind of decision a remark records.
enum class Kind : uint8_t {
  Decompose,   ///< init: `x := t` split into `h := t; x := h` (or a branch
               ///< operand peeled into an initialization).
  Hoist,       ///< aht: an occurrence removed or an instance inserted at
               ///< the hoisting frontier (see Remark::Action).
  Eliminate,   ///< rae: a redundant occurrence deleted.
  SinkInit,    ///< flush: an initialization materialized at a latest point.
  DeleteInit,  ///< flush: an original initialization instance dropped.
  Reconstruct, ///< flush: a single temporary use rewritten back to its
               ///< expression.
  Blocked,     ///< aht: an occurrence that could not move (a preceding
               ///< blocker in its block).
  Rollback,    ///< guarded pipeline: a pass's result was discarded and its
               ///< input restored (the "reason" fact says why).
};

const char *kindName(Kind K);

/// Whether a Hoist remark records the removal of an occurrence or the
/// insertion of a new instance (None for every other kind).
enum class Action : uint8_t { None, Remove, Insert };

/// Where an inserted instruction was placed relative to its block.
enum class Placement : uint8_t {
  None,
  Entry,        ///< N-INSERT / N-INIT at the block entry.
  Exit,         ///< X-INSERT / X-INIT at the block exit.
  BeforeBranch, ///< X-INSERT placed before a non-blocking branch condition.
  FromPred,     ///< realized at this block's entry on behalf of a
                ///< branching predecessor whose condition blocks the
                ///< pattern (see Remark::FromBlock).
};

const char *placementName(Placement P);

/// One recorded decision.  Block ids are plain uint32_t (= am::BlockId)
/// so this header stays below the IR layer.
struct Remark {
  Kind K = Kind::Eliminate;
  Action Act = Action::None;
  /// Pass that fired the decision: "init", "rae", "aht" or "flush".
  std::string Pass;
  /// AM fixpoint round (1-based) the decision belongs to; 0 outside the
  /// fixpoint (init, flush, standalone passes).
  uint32_t Round = 0;
  /// Stable id of the subject instruction (the deleted occurrence, the
  /// inserted instance, the decomposed assignment, ...).
  uint32_t InstrId = 0;
  /// Block and instruction index of the subject *at decision time* — they
  /// index the graph snapshot the justifying analysis ran over, not the
  /// final program.
  uint32_t Block = 0xFFFFFFFFu;
  uint32_t InstrIndex = 0xFFFFFFFFu;
  /// True when the subject instruction leaves the program with this
  /// remark (its id appears in no later program state).
  bool Terminal = false;
  Placement Place = Placement::None;
  /// For Placement::FromPred: the branching predecessor whose exit
  /// insertion was realized here.
  uint32_t FromBlock = 0xFFFFFFFFu;
  /// The assignment pattern text, e.g. "x := a + b".
  std::string Pattern;
  /// The left-hand side / temporary name, for `--explain=<var>` lookup.
  std::string Var;
  /// Lineage: ids this decision's new instruction(s) descend from.
  std::vector<uint32_t> Parents;
  /// Ids introduced by this decision (Decompose records its two/one new
  /// instructions here; Hoist/SinkInit insertions use InstrId itself).
  std::vector<uint32_t> NewIds;
  /// The dataflow solve serial(s) the cited facts were read from
  /// (DataflowResult::SolveSerial); 0 when no solve was involved.
  uint64_t Solve = 0;
  /// The justifying facts, as (predicate, value) pairs — e.g.
  /// ("N-REDUNDANT", "1"), ("defined_by", "exit(b2)").
  std::vector<std::pair<std::string, std::string>> Facts;

  Remark &fact(std::string Name, std::string Value) {
    Facts.emplace_back(std::move(Name), std::move(Value));
    return *this;
  }
  /// First value recorded for fact \p Name, or "" if absent.
  const std::string &factValue(const std::string &Name) const;
};

/// One session's remark sink.  Mirrors stats::Registry: `get()` resolves
/// to the calling thread's current telemetry session, cheap to consult
/// when disabled; the process-default sink is never deallocated.
class Sink {
public:
  Sink();
  ~Sink();
  Sink(const Sink &) = delete;
  Sink &operator=(const Sink &) = delete;

  /// The calling thread's session sink (telemetry::Session::current).
  static Sink &get();

  /// Runtime switch.  When off (the default), add() drops remarks and
  /// instrumentation sites skip all remark construction.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every collected remark and resets the id counter, so a fresh
  /// run numbers instructions deterministically from 1.
  void clear();

  /// Allocates the next stable instruction id (never 0).
  uint32_t freshId() {
    return NextId.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends a remark (stamping the current pass/round when the remark
  /// carries none).  No-op when disabled.
  void add(Remark R);

  size_t size() const;
  uint64_t countKind(Kind K) const;

  /// Copy of the collected remarks, in emission order.
  std::vector<Remark> remarks() const;

  /// Copy of the remarks from index \p First on (emission order): what a
  /// stage added since it read size(), without copying the run's earlier
  /// remarks.
  std::vector<Remark> remarksFrom(size_t First) const;

  /// One JSON object: {"remarks": [{...}, ...]} — the `amopt
  /// --remarks=out.json` payload.
  std::string toJsonString() const;

  /// Current pass/round context, stamped onto remarks whose Pass is
  /// empty.  Set by the phase drivers (see PassScope); plain stores —
  /// the optimizer is single-threaded.
  void setPass(const char *P) { CurrentPass = P; }
  const char *pass() const { return CurrentPass; }
  void setRound(uint32_t R) { CurrentRound = R; }
  uint32_t round() const { return CurrentRound; }

private:
  struct Impl;
  Impl &impl() const { return *I; }

  std::unique_ptr<Impl> I;
  std::atomic<bool> Enabled{false};
  std::atomic<uint32_t> NextId{1};
  const char *CurrentPass = "";
  uint32_t CurrentRound = 0;
};

/// RAII enable/disable of collection (tests, amopt, the verifier).
class CollectionScope {
public:
  explicit CollectionScope(bool On = true) : Prev(Sink::get().enabled()) {
    Sink::get().setEnabled(On);
  }
  ~CollectionScope() { Sink::get().setEnabled(Prev); }
  CollectionScope(const CollectionScope &) = delete;
  CollectionScope &operator=(const CollectionScope &) = delete;

private:
  bool Prev;
};

/// RAII pass-name context: remarks added inside the scope default to this
/// pass name.
class PassScope {
public:
  explicit PassScope(const char *Pass) : Prev(Sink::get().pass()) {
    Sink::get().setPass(Pass);
  }
  ~PassScope() { Sink::get().setPass(Prev); }
  PassScope(const PassScope &) = delete;
  PassScope &operator=(const PassScope &) = delete;

private:
  const char *Prev;
};

//===----------------------------------------------------------------------===//
// Provenance DAG
//===----------------------------------------------------------------------===//

/// The id-level lineage DAG assembled from a remark stream: a node per
/// instruction id ever mentioned, an edge parent -> child whenever a
/// remark records that the child instruction descends from the parent
/// (Decompose subject -> NewIds; insertion Parents -> subject).
class Provenance {
public:
  static Provenance build(const std::vector<Remark> &Remarks);

  struct Node {
    uint32_t Id = 0;
    /// Indices into the remark stream mentioning this id (as subject or
    /// as a NewId), in emission order.
    std::vector<size_t> Events;
    std::vector<uint32_t> Parents;
    std::vector<uint32_t> Children;
  };

  const Node *node(uint32_t Id) const;

  /// Every id in the lineage of \p Id: its ancestors, itself, and all
  /// descendants of those ancestors (the connected "family" a reader
  /// needs to follow one assignment's history).  Sorted ascending.
  std::vector<uint32_t> family(uint32_t Id) const;

  /// All ids whose remarks carry Var == \p Var (subjects and NewIds).
  std::vector<uint32_t> idsForVar(const std::string &Var,
                                  const std::vector<Remark> &Remarks) const;

private:
  std::vector<Node> Nodes;           // sorted by Id
  const Node *find(uint32_t Id) const;
  Node &getOrCreate(uint32_t Id);
};

/// Renders the full lineage of \p Id as human-readable indented lines:
/// every remark touching the id's family in emission order, then the
/// final location of each surviving id.  \p FinalLocation maps an id to
/// its position in the final program ("" when the id was deleted); pass
/// nullptr to omit the final-position footer.
std::string explainId(uint32_t Id, const std::vector<Remark> &Remarks,
                      const Provenance &Prov,
                      const std::string (*FinalLocation)(uint32_t,
                                                         const void *) = nullptr,
                      const void *FinalCtx = nullptr);

} // namespace am::remarks

//===----------------------------------------------------------------------===//
// Instrumentation macros (mirror AM_STAT_*)
//===----------------------------------------------------------------------===//

#ifndef AM_DISABLE_STATS

/// True when remark collection is on; instrumentation sites wrap all
/// remark construction in `if (AM_REMARKS_ENABLED()) { ... }` so the
/// steady-state disabled cost is one relaxed atomic load.
#define AM_REMARKS_ENABLED() (::am::remarks::Sink::get().enabled())
/// Pass-name context for the rest of the enclosing scope.
#define AM_REMARK_PASS_SCOPE(Name)                                             \
  ::am::remarks::PassScope am_remark_pass_scope_(Name)
/// Stamps the AM fixpoint round onto subsequently added remarks.
#define AM_REMARK_SET_ROUND(N) (::am::remarks::Sink::get().setRound(N))

#else // AM_DISABLE_STATS — remarks compile out entirely.

#define AM_REMARKS_ENABLED() false
#define AM_REMARK_PASS_SCOPE(Name) do { } while (false)
#define AM_REMARK_SET_ROUND(N) do { } while (false)

#endif // AM_DISABLE_STATS

#endif // AM_SUPPORT_REMARKS_H
