//===- support/Remarks.cpp - Optimization remarks & provenance -----------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Remarks.h"

#include "support/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <mutex>

using namespace am;
using namespace am::remarks;

const char *remarks::kindName(Kind K) {
  switch (K) {
  case Kind::Decompose:
    return "decompose";
  case Kind::Hoist:
    return "hoist";
  case Kind::Eliminate:
    return "eliminate";
  case Kind::SinkInit:
    return "sink_init";
  case Kind::DeleteInit:
    return "delete_init";
  case Kind::Reconstruct:
    return "reconstruct";
  case Kind::Blocked:
    return "blocked";
  case Kind::Rollback:
    return "rollback";
  }
  return "unknown";
}

const char *remarks::placementName(Placement P) {
  switch (P) {
  case Placement::None:
    return "none";
  case Placement::Entry:
    return "entry";
  case Placement::Exit:
    return "exit";
  case Placement::BeforeBranch:
    return "before_branch";
  case Placement::FromPred:
    return "from_pred";
  }
  return "unknown";
}

const std::string &Remark::factValue(const std::string &Name) const {
  static const std::string Empty;
  for (const auto &[K, V] : Facts)
    if (K == Name)
      return V;
  return Empty;
}

//===----------------------------------------------------------------------===//
// Sink
//===----------------------------------------------------------------------===//

struct Sink::Impl {
  mutable std::mutex Mu;
  std::vector<Remark> Remarks;
};

Sink::Sink() : I(std::make_unique<Impl>()) {}

Sink::~Sink() = default;

Sink &Sink::get() {
  // The process-default session's sink is leaked (see
  // telemetry::Session::processDefault): instrumentation may fire from
  // static destructors.
  return telemetry::Session::current().remarks();
}

void Sink::clear() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.Remarks.clear();
  NextId.store(1, std::memory_order_relaxed);
  CurrentPass = "";
  CurrentRound = 0;
}

void Sink::add(Remark R) {
  if (!enabled())
    return;
  if (R.Pass.empty())
    R.Pass = CurrentPass;
  if (R.Round == 0)
    R.Round = CurrentRound;
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.Remarks.push_back(std::move(R));
}

size_t Sink::size() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Remarks.size();
}

uint64_t Sink::countKind(Kind K) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  uint64_t N = 0;
  for (const Remark &R : I.Remarks)
    N += R.K == K;
  return N;
}

std::vector<Remark> Sink::remarks() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Remarks;
}

std::vector<Remark> Sink::remarksFrom(size_t First) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  if (First >= I.Remarks.size())
    return {};
  return std::vector<Remark>(
      I.Remarks.begin() + static_cast<std::ptrdiff_t>(First), I.Remarks.end());
}

std::string Sink::toJsonString() const {
  std::vector<Remark> Rs = remarks();
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("remarks").beginArray();
  for (const Remark &R : Rs) {
    W.beginObject();
    W.key("kind").value(kindName(R.K));
    if (R.Act != Action::None)
      W.key("action").value(R.Act == Action::Remove ? "remove" : "insert");
    W.key("pass").value(R.Pass);
    W.key("round").value(static_cast<uint64_t>(R.Round));
    W.key("instr_id").value(static_cast<uint64_t>(R.InstrId));
    if (R.Block != 0xFFFFFFFFu)
      W.key("block").value(static_cast<uint64_t>(R.Block));
    if (R.InstrIndex != 0xFFFFFFFFu)
      W.key("index").value(static_cast<uint64_t>(R.InstrIndex));
    W.key("terminal").value(R.Terminal);
    if (R.Place != Placement::None)
      W.key("placement").value(placementName(R.Place));
    if (R.FromBlock != 0xFFFFFFFFu)
      W.key("from_block").value(static_cast<uint64_t>(R.FromBlock));
    if (!R.Pattern.empty())
      W.key("pattern").value(R.Pattern);
    if (!R.Var.empty())
      W.key("var").value(R.Var);
    if (!R.Parents.empty()) {
      W.key("parents").beginArray();
      for (uint32_t P : R.Parents)
        W.value(static_cast<uint64_t>(P));
      W.endArray();
    }
    if (!R.NewIds.empty()) {
      W.key("new_ids").beginArray();
      for (uint32_t N : R.NewIds)
        W.value(static_cast<uint64_t>(N));
      W.endArray();
    }
    if (R.Solve != 0)
      W.key("solve").value(R.Solve);
    if (!R.Facts.empty()) {
      W.key("facts").beginObject();
      for (const auto &[Name, Value] : R.Facts)
        W.key(Name).value(Value);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return Out;
}

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

const Provenance::Node *Provenance::find(uint32_t Id) const {
  auto It = std::lower_bound(
      Nodes.begin(), Nodes.end(), Id,
      [](const Node &N, uint32_t Want) { return N.Id < Want; });
  if (It != Nodes.end() && It->Id == Id)
    return &*It;
  return nullptr;
}

Provenance::Node &Provenance::getOrCreate(uint32_t Id) {
  auto It = std::lower_bound(
      Nodes.begin(), Nodes.end(), Id,
      [](const Node &N, uint32_t Want) { return N.Id < Want; });
  if (It != Nodes.end() && It->Id == Id)
    return *It;
  Node N;
  N.Id = Id;
  return *Nodes.insert(It, std::move(N));
}

const Provenance::Node *Provenance::node(uint32_t Id) const {
  return find(Id);
}

Provenance Provenance::build(const std::vector<Remark> &Remarks) {
  Provenance P;
  auto Link = [&P](uint32_t Parent, uint32_t Child) {
    if (Parent == 0 || Child == 0 || Parent == Child)
      return;
    Node &PN = P.getOrCreate(Parent);
    if (std::find(PN.Children.begin(), PN.Children.end(), Child) ==
        PN.Children.end())
      PN.Children.push_back(Child);
    Node &CN = P.getOrCreate(Child);
    if (std::find(CN.Parents.begin(), CN.Parents.end(), Parent) ==
        CN.Parents.end())
      CN.Parents.push_back(Parent);
  };
  for (size_t Idx = 0; Idx < Remarks.size(); ++Idx) {
    const Remark &R = Remarks[Idx];
    if (R.InstrId != 0)
      P.getOrCreate(R.InstrId).Events.push_back(Idx);
    for (uint32_t N : R.NewIds) {
      Node &NN = P.getOrCreate(N);
      if (NN.Events.empty() || NN.Events.back() != Idx)
        NN.Events.push_back(Idx);
      Link(R.InstrId, N);
    }
    for (uint32_t Par : R.Parents)
      Link(Par, R.InstrId);
  }
  return P;
}

std::vector<uint32_t> Provenance::family(uint32_t Id) const {
  std::vector<uint32_t> Result;
  if (!find(Id))
    return Result;
  // Ancestor closure (including Id), then descendant closure of every
  // ancestor — one assignment's whole family tree.
  std::vector<uint32_t> Work{Id};
  std::vector<uint32_t> Ancestors;
  while (!Work.empty()) {
    uint32_t Cur = Work.back();
    Work.pop_back();
    if (std::find(Ancestors.begin(), Ancestors.end(), Cur) != Ancestors.end())
      continue;
    Ancestors.push_back(Cur);
    if (const Node *N = find(Cur))
      for (uint32_t P : N->Parents)
        Work.push_back(P);
  }
  Work = Ancestors;
  while (!Work.empty()) {
    uint32_t Cur = Work.back();
    Work.pop_back();
    if (std::find(Result.begin(), Result.end(), Cur) != Result.end())
      continue;
    Result.push_back(Cur);
    if (const Node *N = find(Cur))
      for (uint32_t C : N->Children)
        Work.push_back(C);
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<uint32_t>
Provenance::idsForVar(const std::string &Var,
                      const std::vector<Remark> &Remarks) const {
  std::vector<uint32_t> Ids;
  auto Add = [&Ids](uint32_t Id) {
    if (Id != 0 &&
        std::find(Ids.begin(), Ids.end(), Id) == Ids.end())
      Ids.push_back(Id);
  };
  for (const Remark &R : Remarks) {
    if (R.Var != Var)
      continue;
    Add(R.InstrId);
    for (uint32_t N : R.NewIds)
      Add(N);
  }
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

//===----------------------------------------------------------------------===//
// explainId
//===----------------------------------------------------------------------===//

std::string remarks::explainId(uint32_t Id, const std::vector<Remark> &Remarks,
                               const Provenance &Prov,
                               const std::string (*FinalLocation)(uint32_t,
                                                                  const void *),
                               const void *FinalCtx) {
  std::string Out;
  std::vector<uint32_t> Family = Prov.family(Id);
  if (Family.empty()) {
    Out += "instr #" + std::to_string(Id) + ": no remarks recorded\n";
    return Out;
  }
  Out += "lineage of instr #" + std::to_string(Id) + " (family:";
  for (uint32_t F : Family)
    Out += " #" + std::to_string(F);
  Out += ")\n";

  // Emission order == decision order, so replay the remark stream and
  // print every remark that touches the family.
  auto InFamily = [&Family](uint32_t Want) {
    return std::binary_search(Family.begin(), Family.end(), Want);
  };
  for (const Remark &R : Remarks) {
    bool Touches = InFamily(R.InstrId);
    for (uint32_t N : R.NewIds)
      Touches = Touches || InFamily(N);
    if (!Touches)
      continue;
    Out += "  [" + R.Pass;
    if (R.Round != 0)
      Out += " round " + std::to_string(R.Round);
    Out += "] " + std::string(kindName(R.K));
    if (R.Act == Action::Remove)
      Out += "/remove";
    else if (R.Act == Action::Insert)
      Out += "/insert";
    Out += " #" + std::to_string(R.InstrId);
    if (!R.Pattern.empty())
      Out += " `" + R.Pattern + "`";
    if (R.Block != 0xFFFFFFFFu) {
      Out += " at b" + std::to_string(R.Block);
      if (R.Place != Placement::None && R.Place != Placement::Entry)
        Out += "/" + std::string(placementName(R.Place));
      else if (R.Place == Placement::Entry)
        Out += "/entry";
    }
    if (R.FromBlock != 0xFFFFFFFFu)
      Out += " (for branch block b" + std::to_string(R.FromBlock) + ")";
    if (!R.NewIds.empty()) {
      Out += " -> new";
      for (uint32_t N : R.NewIds)
        Out += " #" + std::to_string(N);
    }
    if (!R.Parents.empty()) {
      Out += " from";
      for (uint32_t P : R.Parents)
        Out += " #" + std::to_string(P);
    }
    if (R.Terminal)
      Out += " [terminal]";
    if (!R.Facts.empty()) {
      Out += "\n      because:";
      for (const auto &[Name, Value] : R.Facts)
        Out += " " + Name + "=" + Value;
      if (R.Solve != 0)
        Out += " (solve " + std::to_string(R.Solve) + ")";
    }
    Out += "\n";
  }

  if (FinalLocation) {
    for (uint32_t F : Family) {
      std::string Loc = FinalLocation(F, FinalCtx);
      if (!Loc.empty())
        Out += "  final: #" + std::to_string(F) + " " + Loc + "\n";
    }
  }
  return Out;
}
