//===- perfbench/Spans.h - In-memory span recorder -------------*- C++ -*-===//
///
/// \file
/// The traced run's instrument.  The benchmark opens a span around each
/// call it makes into a library layer; a span has a name, a start, an end,
/// the span that caused it and the group (one optimization or one request)
/// it belongs to, plus the allocation made while it was open when the
/// library's allocation counters are live.  Spans stay in memory and are
/// written out once, when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  int Parent = -1; ///< Index of the enclosing span; -1 at top level.
  uint64_t Group = 0;
  double Start = 0, End = 0; ///< Seconds since the recorder was made.
  uint64_t AllocBytes = 0, Allocs = 0;
  double seconds() const { return End - Start; }
};

class SpanRecorder {
public:
  SpanRecorder() : Epoch(std::chrono::steady_clock::now()) {}

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint64_t Group)
        : R(R), Id(R.open(Name, Group)) {}
    ~Scope() { R.close(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int Id;
  };

  int open(const char *Name, uint64_t Group);
  void close(int Id);

  const std::vector<Span> &spans() const { return All; }

  struct Totals {
    double Seconds = 0;
    uint64_t AllocBytes = 0, Allocs = 0;
  };
  /// Summed duration and allocation of the spans of each name, per group.
  std::map<std::string, std::map<uint64_t, Totals>> totals() const;

  /// Per span: its duration minus the time its direct children cover.
  std::vector<double> selfSeconds() const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Epoch)
        .count();
  }

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> All;
  std::vector<int> Open;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
