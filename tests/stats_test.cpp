//===- tests/stats_test.cpp - Stats registry and JSON ----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Remarks.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace am;
using namespace am::stats;

namespace am::test {
// Defined in stats_disabled_helper.cpp, which is compiled with
// -DAM_DISABLE_STATS.
void bumpCompiledOutStats();
bool compiledOutRemarksEnabled();
} // namespace am::test

//===----------------------------------------------------------------------===//
// Counters and gauges
//===----------------------------------------------------------------------===//

TEST(Stats, CounterAccumulatesAndResets) {
  Counter &C = Registry::get().counter("test.counter_semantics");
  C.reset();
  EXPECT_EQ(C.get(), 0u);
  C.add(1);
  C.add(41);
  EXPECT_EQ(C.get(), 42u);
  C.reset();
  EXPECT_EQ(C.get(), 0u);
}

TEST(Stats, RegistryReturnsTheSameInstrumentForTheSameName) {
  Counter &A = Registry::get().counter("test.same_name");
  Counter &B = Registry::get().counter("test.same_name");
  EXPECT_EQ(&A, &B);
  A.reset();
  A.add(3);
  EXPECT_EQ(B.get(), 3u);
  // References stay valid (deque storage) as more instruments register.
  for (int Idx = 0; Idx < 100; ++Idx)
    Registry::get().counter("test.churn." + std::to_string(Idx));
  EXPECT_EQ(A.get(), 3u);
}

TEST(Stats, MacrosResolveOnceAndIncrement) {
  AM_STAT_COUNTER(Ctr, "test.macro_counter");
  Ctr.reset();
  for (int Idx = 0; Idx < 10; ++Idx)
    AM_STAT_INC(Ctr);
  AM_STAT_ADD(Ctr, 32);
  EXPECT_EQ(Registry::get().counterValue("test.macro_counter"), 42u);
}

TEST(Stats, GaugeIsLastWriteWins) {
  AM_STAT_GAUGE(Gauge, "test.gauge");
  AM_STAT_SET(Gauge, 17);
  AM_STAT_SET(Gauge, -4);
  EXPECT_EQ(Registry::get().findGauge("test.gauge")->get(), -4);
}

TEST(Stats, CompiledOutMacrosRegisterNothing) {
  am::test::bumpCompiledOutStats();
  EXPECT_EQ(Registry::get().findCounter("test.compiled_out_counter"),
            nullptr);
  EXPECT_EQ(Registry::get().findGauge("test.compiled_out_gauge"), nullptr);
  EXPECT_EQ(Registry::get().counterValue("test.compiled_out_counter"), 0u);
}

TEST(Stats, CompiledOutRemarkMacrosAreInert) {
  // Even with the process-wide sink enabled, a TU built with
  // -DAM_DISABLE_STATS sees AM_REMARKS_ENABLED() == false.
  remarks::CollectionScope On;
  EXPECT_FALSE(am::test::compiledOutRemarksEnabled());
}

//===----------------------------------------------------------------------===//
// Dumps
//===----------------------------------------------------------------------===//

TEST(Stats, TextDumpListsInstrumentsAlphabetically) {
  Registry::get().counter("test.dump.b").reset();
  Registry::get().counter("test.dump.a").add(0);
  std::ostringstream OS;
  Registry::get().dumpText(OS);
  std::string Text = OS.str();
  size_t PosA = Text.find("test.dump.a");
  size_t PosB = Text.find("test.dump.b");
  ASSERT_NE(PosA, std::string::npos);
  ASSERT_NE(PosB, std::string::npos);
  EXPECT_LT(PosA, PosB);
}

TEST(Stats, JsonDumpIsValidAndRoundTripsValues) {
  Counter &C = Registry::get().counter("test.json.counter");
  C.reset();
  C.add(1234);
  std::string J = Registry::get().dumpJsonString();
  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error;
  // The dump carries the exact value; time lives in the profiler, so
  // there is no timer section.
  EXPECT_NE(J.find("\"test.json.counter\":1234"), std::string::npos) << J;
  EXPECT_NE(J.find("\"gauges\""), std::string::npos) << J;
  EXPECT_EQ(J.find("\"timers\""), std::string::npos) << J;
}

TEST(Stats, ResetAllZeroesEverything) {
  Counter &C = Registry::get().counter("test.resetall.counter");
  Gauge &G = Registry::get().gauge("test.resetall.gauge");
  C.add(5);
  G.set(99);
  Registry::get().resetAll();
  EXPECT_EQ(C.get(), 0u);
  EXPECT_EQ(G.get(), 0);
}

//===----------------------------------------------------------------------===//
// JSON writer / validator
//===----------------------------------------------------------------------===//

TEST(Json, WriterProducesValidNestedDocuments) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("s").value("a \"quoted\"\nstring");
  W.key("n").value(int64_t(-7));
  W.key("u").value(uint64_t(18446744073709551615ull));
  W.key("d").value(1.5);
  W.key("b").value(true);
  W.key("arr").beginArray().value(int64_t(1)).value("two").endArray();
  W.key("nested").beginObject().key("empty").beginArray().endArray().endObject();
  W.endObject();
  std::string Error;
  EXPECT_TRUE(json::validate(Out, &Error)) << Error << "\n" << Out;
  EXPECT_NE(Out.find("\\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(Out.find("18446744073709551615"), std::string::npos);
}

TEST(Json, EscapesControlCharacters) {
  // Note the split literal: "\x01b" would greedily parse as \x1b.
  std::string Q = json::quoted(std::string("a\x01" "b\tc"));
  EXPECT_EQ(Q, "\"a\\u0001b\\tc\"");
  EXPECT_TRUE(json::validate(Q));
}

TEST(Json, ValidatorAcceptsRfc8259Values) {
  for (const char *Good :
       {"{}", "[]", "null", "true", "-0.5e+10", "\"x\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u0041\"}", "  [1]  "})
    EXPECT_TRUE(json::validate(Good)) << Good;
}

TEST(Json, ValidatorRejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "}", "[1,]", "{\"a\"}", "{\"a\":}", "{a:1}", "01", "1.",
        "\"unterminated", "[1] trailing", "nul", "\"bad\\escape\""})
    EXPECT_FALSE(json::validate(Bad)) << Bad;
}
