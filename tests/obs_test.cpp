//===--- tests/obs_test.cpp - Observability layer tests -------------------===//
//
// The tracing/metrics subsystem: registry semantics (spans, counters,
// thread safety), the null-registry fast path, Chrome trace_event JSON
// well-formedness (checked with a small recursive-descent JSON parser, not
// substring poking), the stats tables, and end-to-end span/counter
// coverage when a registry rides through an Estimator and an
// EstimationSession.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "cost/Estimator.h"
#include "obs/HotpathAlloc.h"
#include "obs/Observability.h"
#include "session/EstimationSession.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

using namespace ptran;
using namespace ptran::testing;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON validator: accepts exactly the RFC 8259 grammar (no
// extensions), so a malformed trace — trailing comma, unescaped quote,
// bare NaN — fails the test instead of loading half-way in a viewer.
//===----------------------------------------------------------------------===//

class JsonValidator {
public:
  explicit JsonValidator(std::string_view Text) : Text(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Raw control character: must be escaped.
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos];
        if (E == 'u') {
          for (int I = 1; I <= 4; ++I)
            if (Pos + I >= Text.size() ||
                !std::isxdigit(static_cast<unsigned char>(Text[Pos + I])))
              return false;
          Pos += 4;
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!digits())
      return false;
    if (peek() == '.') {
      ++Pos;
      if (!digits())
        return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!digits())
        return false;
    }
    return Pos > Start;
  }

  bool digits() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Pos > Start;
  }

  bool literal(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  std::string_view Text;
  size_t Pos = 0;
};

std::set<std::string> spanNames(const ObsRegistry &Reg) {
  std::set<std::string> Names;
  for (const ObsRegistry::SpanRecord &S : Reg.spans())
    Names.insert(std::string(S.name()));
  return Names;
}

//===----------------------------------------------------------------------===//
// Registry semantics
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, CountersAccumulate) {
  ObsRegistry Reg;
  EXPECT_TRUE(Reg.empty());
  EXPECT_EQ(Reg.counterValue("x"), 0u);
  Reg.addCounter("x");
  Reg.addCounter("x", 4);
  Reg.addCounter("y", 2);
  EXPECT_EQ(Reg.counterValue("x"), 5u);
  EXPECT_EQ(Reg.counterValue("y"), 2u);
  EXPECT_FALSE(Reg.empty());
}

TEST(ObsRegistry, SpansRecordNameDetailAndOrder) {
  ObsRegistry Reg;
  {
    TimingSpan Outer(&Reg, "outer", "whole");
    TimingSpan Inner(&Reg, "inner");
  }
  std::vector<ObsRegistry::SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), 2u);
  // Inner ends first (destruction order), so it is recorded first.
  EXPECT_EQ(Spans[0].name(), "inner");
  EXPECT_EQ(Spans[1].name(), "outer");
  EXPECT_EQ(Spans[1].detail(), "whole");
  // The outer span covers the inner one.
  EXPECT_LE(Spans[1].StartNs, Spans[0].StartNs);
  EXPECT_GE(Spans[1].StartNs + Spans[1].DurNs,
            Spans[0].StartNs + Spans[0].DurNs);
}

TEST(ObsRegistry, NullRegistrySpanIsANoOp) {
  // The disabled fast path: must not crash, must not record anywhere.
  TimingSpan Span(nullptr, "nothing", "at all");
}

TEST(ObsRegistry, ConcurrentProducersAreSerialized) {
  // Pool workers and the orchestrating thread all write through one
  // registry; under -DPTRAN_SANITIZE=thread this doubles as the TSan
  // proof for the span/counter paths.
  ObsRegistry Reg;
  ThreadPool Pool(4);
  Pool.attachObservability(&Reg);
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([&Reg] {
      TimingSpan Span(&Reg, "work");
      Reg.addCounter("work.count");
    }));
  waitAll(Futures);
  EXPECT_EQ(Reg.counterValue("work.count"), 64u);
  EXPECT_EQ(Reg.spans().size(), 64u);
  EXPECT_EQ(Reg.counterValue("threadpool.tasks_executed"), 64u);
  EXPECT_GT(Reg.counterValue("threadpool.busy_ns"), 0u);
}

TEST(ObsRegistry, CounterHandlesShareSlotsWithNames) {
  ObsRegistry Reg;
  ObsCounter Hits = Reg.registerCounter("hits");
  // Registered but never bumped: not listed, and the registry is empty.
  EXPECT_TRUE(Reg.empty());
  EXPECT_TRUE(Reg.counters().empty());
  Hits.add();
  Reg.addCounter("hits", 2);
  Hits.add(3);
  EXPECT_EQ(Reg.counterValue("hits"), 6u);
  Reg.registerCounter("hits").add();
  EXPECT_EQ(Reg.counterValue("hits"), 7u);
  // A zero add lists the counter at 0, as addCounter(Name, 0) always did.
  Reg.registerCounter("zero").add(0);
  EXPECT_EQ(Reg.counters(),
            (std::map<std::string, uint64_t>{{"hits", 7}, {"zero", 0}}));
  // A handle resolved without a registry counts nothing.
  registerCounter(nullptr, "hits").add();
  ObsCounter().add(5);
}

TEST(ObsRegistry, RingRetainsTheNewestSpansInOrder) {
  ObsRegistry Reg;
  const size_t Cap = ObsRegistry::SpanCapacity, Extra = 37;
  for (size_t I = 0; I < Cap + Extra; ++I) {
    std::string Detail = std::to_string(I);
    TimingSpan Span(&Reg, "step", Detail);
  }
  EXPECT_EQ(Reg.spansRecorded(), Cap + Extra);
  std::vector<ObsRegistry::SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), Cap);
  for (size_t I = 0; I < Cap; ++I)
    ASSERT_EQ(Spans[I].detail(), std::to_string(Extra + I)) << "slot " << I;
  // Oldest first means non-decreasing start times across the wrap.
  for (size_t I = 1; I < Cap; ++I)
    ASSERT_LE(Spans[I - 1].StartNs, Spans[I].StartNs);
  // The stats table aggregates the retained window and says so.
  std::string Table = Reg.statsTable();
  size_t Row = Table.find("| step |");
  ASSERT_NE(Row, std::string::npos) << Table;
  std::string Line = Table.substr(Row, Table.find('\n', Row) - Row);
  EXPECT_NE(Line.find(" " + std::to_string(Cap) + " |"), std::string::npos)
      << Line;
  EXPECT_NE(Table.find("the last " + std::to_string(Cap) + " of " +
                       std::to_string(Cap + Extra)),
            std::string::npos)
      << Table;
  EXPECT_TRUE(JsonValidator(Reg.chromeTraceJson()).valid());
}

TEST(ObsRegistry, WarmSpansAndCounterHandlesAllocateNothing) {
  ObsRegistry Reg;
  ObsCounter Bumps = Reg.registerCounter("bumps");
  std::string Detail = "a function name well past the inline detail buffer";
  // Warm up: the thread's index is drawn on its first span.
  { TimingSpan Span(&Reg, "warm", Detail); }
  HotpathAllocScope Scope;
  for (int I = 0; I < 100; ++I) {
    TimingSpan Span(&Reg, "warm", Detail);
    Bumps.add();
  }
  EXPECT_EQ(Scope.count(), 0u);
  EXPECT_EQ(Reg.spansRecorded(), 101u);
  EXPECT_EQ(Reg.counterValue("bumps"), 100u);
}

TEST(ObsRegistry, LongDetailIsTruncatedAndStillValidJson) {
  ObsRegistry Reg;
  const size_t Keep = ObsRegistry::DetailCapacity - 1;
  // Escapes straddle the cut: a quote just inside it, a backslash and a
  // control character just past it.
  std::string Detail = std::string(Keep - 1, 'x') + "\"\\\n" +
                       std::string(100, 'y');
  { TimingSpan Span(&Reg, "long", Detail); }
  std::vector<ObsRegistry::SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].detail(), std::string_view(Detail).substr(0, Keep));
  std::string Json = Reg.chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("x\\\"\"}"), std::string::npos) << Json;
}

TEST(ObsRegistry, ConcurrentHandlesAndSpansStayExact) {
  // Connection threads bump through handles, by name and record spans at
  // once; under -DPTRAN_SANITIZE=thread this is the TSan proof for the
  // slots and the ring, wrapping included.
  ObsRegistry Reg;
  ObsCounter Handle = Reg.registerCounter("by.handle");
  const unsigned Threads = 4, PerThread = 3000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      for (unsigned I = 0; I < PerThread; ++I) {
        TimingSpan Span(&Reg, "request", "detail");
        Handle.add();
        Reg.addCounter("by.name", 2);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Reg.counterValue("by.handle"), Threads * PerThread);
  EXPECT_EQ(Reg.counterValue("by.name"), 2ull * Threads * PerThread);
  EXPECT_EQ(Reg.spansRecorded(), Threads * PerThread);
  std::vector<ObsRegistry::SpanRecord> Spans = Reg.spans();
  ASSERT_EQ(Spans.size(), ObsRegistry::SpanCapacity);
  std::set<uint32_t> Tids;
  for (const ObsRegistry::SpanRecord &S : Spans) {
    EXPECT_EQ(S.name(), "request");
    EXPECT_EQ(S.detail(), "detail");
    Tids.insert(S.Tid);
  }
  EXPECT_LE(Tids.size(), Threads);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(ObsTrace, ChromeTraceIsWellFormedJson) {
  ObsRegistry Reg;
  {
    // Names and details with every character class the escaper must
    // handle.
    TimingSpan Span(&Reg, "weird \"name\"", "back\\slash\nnewline\ttab");
  }
  Reg.addCounter("plain.counter", 7);
  std::string Json = Reg.chromeTraceJson();
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ObsTrace, EmptyRegistrySerializes) {
  ObsRegistry Reg;
  EXPECT_TRUE(JsonValidator(Reg.chromeTraceJson()).valid());
  // And the stats table renders (empty tables, no crash).
  EXPECT_FALSE(Reg.statsTable().empty());
}

TEST(ObsTrace, WriteFailureIsReported) {
  ObsRegistry Reg;
  std::string Error;
  EXPECT_FALSE(
      Reg.writeChromeTrace("/nonexistent-dir/trace.json", Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ObsStats, TableAggregatesPerSpanName) {
  ObsRegistry Reg;
  for (int I = 0; I < 3; ++I)
    TimingSpan Span(&Reg, "pass.a");
  { TimingSpan Span(&Reg, "pass.b"); }
  Reg.addCounter("some.counter", 41);
  std::string Table = Reg.statsTable();
  EXPECT_NE(Table.find("pass.a"), std::string::npos) << Table;
  EXPECT_NE(Table.find("pass.b"), std::string::npos);
  EXPECT_NE(Table.find("some.counter"), std::string::npos);
  EXPECT_NE(Table.find("41"), std::string::npos);
  // Aggregated: one row per name, so "pass.a" appears exactly once.
  size_t First = Table.find("pass.a");
  EXPECT_EQ(Table.find("pass.a", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// End to end
//===----------------------------------------------------------------------===//

TEST(ObsEndToEnd, EstimatorRecordsEveryPass) {
  std::unique_ptr<Program> P = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  ObsRegistry Reg;
  auto Est = Estimator::create(
      *P, CostModel::optimizing(),
      EstimatorOptions(Diags).observability(Reg));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  TimeAnalysis TA = Est->analyze();
  (void)TA;

  std::set<std::string> Names = spanNames(Reg);
  for (const char *Expected :
       {"analysis.program", "analysis.cfg", "analysis.intervals",
        "analysis.ecfg", "analysis.fcdg", "plan.counters", "profiled-run",
        "timeanalysis.run", "timeanalysis.scc"})
    EXPECT_TRUE(Names.count(Expected)) << "missing span " << Expected;
  // One program analysis per estimator: counter plans, recovery, loop
  // tracking and TIME/VAR all read the same one.
  size_t ProgramSpans = 0;
  for (const ObsRegistry::SpanRecord &S : Reg.spans())
    ProgramSpans += S.name() == "analysis.program";
  EXPECT_EQ(ProgramSpans, 1u);
  EXPECT_GT(Reg.counterValue("recovery.calls"), 0u);
  // Recovery is one pass over a plan-time schedule: no iteration count.
  EXPECT_EQ(Reg.counterValue("recovery.fixpoint_iterations"), 0u);
  EXPECT_GT(Reg.counterValue("timeanalysis.evaluations"), 0u);
  EXPECT_TRUE(JsonValidator(Reg.chromeTraceJson()).valid());
}

TEST(ObsEndToEnd, DisabledObservabilityRecordsNothing) {
  // The same pipeline without a registry must leave a fresh registry
  // untouched — i.e. nothing secretly writes to a global.
  std::unique_ptr<Program> P = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  ObsRegistry Untouched;
  auto Est =
      Estimator::create(*P, CostModel::optimizing(), EstimatorOptions(Diags));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  (void)Est->analyze();
  EXPECT_TRUE(Untouched.empty());
}

TEST(ObsEndToEnd, SessionRoutesCacheCountersThroughRegistry) {
  std::unique_ptr<Program> P = parseWorkload(livermoreLoops());
  DiagnosticEngine Diags;
  ObsRegistry Reg;
  auto Session = EstimationSession::create(
      *P, CostModel::optimizing(),
      EstimatorOptions(Diags).jobs(2).observability(Reg));
  ASSERT_NE(Session, nullptr) << Diags.str();

  ASSERT_TRUE(Session->profiledRun().Ok);
  ASSERT_TRUE(Session->estimateEntry().Ok);
  // Same inputs again: pure cache hit, answered from the published view.
  ASSERT_TRUE(Session->estimateEntry().Ok);
  // New run dirties the inputs; the run's view refresh reruns the
  // TIME/VAR sweep incrementally, and the read after it is a hit again.
  ASSERT_TRUE(Session->profiledRun().Ok);
  ASSERT_TRUE(Session->estimateEntry().Ok);

  EXPECT_EQ(Reg.counterValue("session.runs"), 2u);
  EXPECT_EQ(Reg.counterValue("session.queries"), 3u);
  EXPECT_EQ(Reg.counterValue("session.cache_hits"), 2u);
  EXPECT_GE(Reg.counterValue("session.cache_misses"), 1u);
  EXPECT_GT(Reg.counterValue("session.dirty_functions"), 0u);
  EXPECT_EQ(Reg.counterValue("session.evaluations"),
            Session->totalEvaluations());
  // The analysis fan-out's pool, joined before create() returns, reports
  // through the same registry.
  EXPECT_GT(Reg.counterValue("threadpool.tasks_executed"), 0u);
  EXPECT_TRUE(JsonValidator(Reg.chromeTraceJson()).valid());
}

TEST(ObsEndToEnd, TraceRoundTripsThroughAFile) {
  Figure1Program Fix = makeFigure1();
  DiagnosticEngine Diags;
  ObsRegistry Reg;
  auto Est = Estimator::create(*Fix.Prog, CostModel::optimizing(),
                               EstimatorOptions(Diags).observability(Reg));
  ASSERT_NE(Est, nullptr) << Diags.str();
  ASSERT_TRUE(Est->profiledRun().Ok);
  (void)Est->analyze();

  std::string Path = "ptran_obs_trace.json"; // test working directory
  std::string Error;
  ASSERT_TRUE(Reg.writeChromeTrace(Path, Error)) << Error;
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string OnDisk((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  // The file gets a trailing newline for tool friendliness.
  EXPECT_EQ(OnDisk, Reg.chromeTraceJson() + "\n");
  EXPECT_TRUE(JsonValidator(OnDisk).valid());
  std::remove(Path.c_str());
}

} // namespace
