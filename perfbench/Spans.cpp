//===- perfbench/Spans.cpp - In-memory span recorder ----------------------===//

#include "Spans.h"

#include "support/Profiler.h"

#include <fstream>

using namespace perfbench;

int SpanRecorder::open(const char *Name, uint64_t Group) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Group = Group;
  S.AllocBytes = am::prof::allocatedBytes();
  S.Allocs = am::prof::allocationCount();
  All.push_back(std::move(S));
  Open.push_back(static_cast<int>(All.size() - 1));
  All.back().Start = now();
  return Open.back();
}

void SpanRecorder::close(int Id) {
  Span &S = All[Id];
  S.End = now();
  S.AllocBytes = am::prof::allocatedBytes() - S.AllocBytes;
  S.Allocs = am::prof::allocationCount() - S.Allocs;
  Open.pop_back();
}

std::map<std::string, std::map<uint64_t, SpanRecorder::Totals>>
SpanRecorder::totals() const {
  std::map<std::string, std::map<uint64_t, Totals>> Out;
  for (const Span &S : All) {
    Totals &T = Out[S.Name][S.Group];
    T.Seconds += S.seconds();
    T.AllocBytes += S.AllocBytes;
    T.Allocs += S.Allocs;
  }
  return Out;
}

std::vector<double> SpanRecorder::selfSeconds() const {
  std::vector<double> Self(All.size());
  for (size_t Idx = 0; Idx < All.size(); ++Idx) {
    Self[Idx] += All[Idx].seconds();
    if (All[Idx].Parent >= 0)
      Self[All[Idx].Parent] -= All[Idx].seconds();
  }
  return Self;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream OS(Path);
  OS.precision(9);
  OS << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n";
  for (size_t Idx = 0; Idx < All.size(); ++Idx) {
    const Span &S = All[Idx];
    OS << (Idx ? ",\n" : "") << "{\"id\": " << Idx << ", \"name\": \""
       << S.Name << "\", \"parent\": " << S.Parent
       << ", \"group\": " << S.Group << ", \"start_s\": " << S.Start
       << ", \"end_s\": " << S.End << ", \"alloc_bytes\": " << S.AllocBytes
       << ", \"allocs\": " << S.Allocs << "}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS.flush());
}
