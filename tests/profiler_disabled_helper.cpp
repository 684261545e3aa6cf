//===- tests/profiler_disabled_helper.cpp - Compiled-out prof TU -*- C++ -*-=//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with -DAM_DISABLE_STATS (see
// tests/CMakeLists.txt): AM_PROF_SCOPE must expand to nothing, so the
// scopes below can never create phase-tree nodes — even when the calling
// test has *enabled* the session's profiler — and the Chrome export of
// such a run has no events.  profiler_test.cpp asserts exactly that.
//
//===----------------------------------------------------------------------===//

#ifndef AM_DISABLE_STATS
#error "this file must be compiled with -DAM_DISABLE_STATS"
#endif

#include "support/Profiler.h"

#include <string>

namespace am::test {

/// Runs nested compiled-out profiler scopes; returns how many phase-tree
/// nodes the session profiler gained (must be 0).
size_t profileCompiledOutScopes() {
  prof::Profiler &P = prof::Profiler::get();
  size_t Before = P.numNodes();
  {
    AM_PROF_SCOPE("test.compiled_out_phase");
    {
      AM_PROF_SCOPE("test.compiled_out_inner");
    }
  }
  return P.numNodes() - Before;
}

/// The Chrome export of the session profiler after compiled-out scopes
/// ran: a valid document with zero events.
std::string compiledOutChromeTrace() {
  {
    AM_PROF_SCOPE("test.compiled_out_traced");
  }
  return prof::Profiler::get().toChromeTraceJson();
}

} // namespace am::test
