//===--- tests/serve_test.cpp - Daemon core and protocol tests ------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the ptran-serve core with no socket in sight: the frame
/// codec round-trips (including binary bodies) and rejects malformed
/// frames, ServeCore dispatches every verb, per-request budgets degrade or
/// fail per policy and unrepresentable deadlines are refused, the verb
/// table marks exactly the state-changing requests as mutating (a walk
/// over every row on a durable primary and a standby), LRU eviction
/// enforces the memory budget, and — the point of the file — many
/// threads hammering one ServeCore concurrently get responses
/// byte-identical to a single-threaded reference run. The
/// tsan preset reruns this binary under ThreadSanitizer, which is what
/// actually certifies the locking.
///
//===----------------------------------------------------------------------===//

#include "obs/HotpathAlloc.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "support/Bytes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::serve;

namespace {

/// Enough structure for real estimates (calls, loops, a branch) while one
/// request stays well under a millisecond.
const char *TinySource = R"(      program main
      integer i, n
      n = 16
      do 10 i = 1, n
        call leaf(i)
 10   continue
      end
      subroutine leaf(k)
      integer k, j
      real s
      s = 0
      do 20 j = 1, 4
        if (s .gt. 10) then
          s = s - 10
        else
          s = s + j * k
        endif
 20   continue
      end
)";

WireMessage makeRequest(const std::string &Verb, const std::string &Session) {
  WireMessage M;
  M.Verb = Verb;
  if (!Session.empty())
    M.Params["session"] = Session;
  return M;
}

/// load-program + one profiled run for \p Session on \p Core.
void loadAndRun(ServeCore &Core, const std::string &Session) {
  WireMessage Load = makeRequest("load-program", Session);
  Load.Body = TinySource;
  WireMessage Resp = Core.handle(Load);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  Resp = Core.handle(makeRequest("run", Session));
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
}

} // namespace

//===--- Frame codec ------------------------------------------------------===//

TEST(Protocol, RoundTripsVerbParamsAndBinaryBody) {
  WireMessage M;
  M.Verb = "ingest-profile";
  M.Params["session"] = "s0";
  M.Params["note"] = "values may contain = signs = twice";
  M.Body = std::string("\x00\x01\xff\n\x7f junk", 9); // Binary, with NUL.

  std::string Error;
  std::optional<std::vector<uint8_t>> Bytes = encodeFrame(M, Error);
  ASSERT_TRUE(Bytes) << Error;
  std::optional<WireMessage> Back =
      decodeFrame(Bytes->data(), Bytes->size(), Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->Verb, M.Verb);
  EXPECT_EQ(Back->Params, M.Params);
  EXPECT_EQ(Back->Body, M.Body);
}

TEST(Protocol, RoundTripsEmptyParamsAndEmptyBody) {
  WireMessage M;
  M.Verb = "ping";
  std::string Error;
  std::optional<std::vector<uint8_t>> Bytes = encodeFrame(M, Error);
  ASSERT_TRUE(Bytes) << Error;
  std::optional<WireMessage> Back =
      decodeFrame(Bytes->data(), Bytes->size(), Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->Verb, "ping");
  EXPECT_TRUE(Back->Params.empty());
  EXPECT_TRUE(Back->Body.empty());
}

TEST(Protocol, RejectsUnframeableMessages) {
  std::string Error;
  WireMessage M;
  M.Verb = "two\nlines";
  EXPECT_FALSE(encodeFrame(M, Error));

  M.Verb = "ok";
  M.Params["key"] = "line1\nline2"; // Newline in a value corrupts framing.
  EXPECT_FALSE(encodeFrame(M, Error));

  M.Params.clear();
  M.Params["bad=key"] = "v"; // '=' in a key shifts the value split.
  EXPECT_FALSE(encodeFrame(M, Error));
}

TEST(Protocol, RejectsMalformedFrames) {
  std::string Error;
  // Too short for the header-length field.
  EXPECT_FALSE(decodeFrame(reinterpret_cast<const uint8_t *>("ab"), 2, Error));
  // Header length pointing past the payload.
  uint8_t Lie[8] = {0xff, 0xff, 0, 0, 'p', 'i', 'n', 'g'};
  EXPECT_FALSE(decodeFrame(Lie, sizeof(Lie), Error));
  // Parameter line without '='.
  WireMessage M;
  M.Verb = "ok";
  std::optional<std::vector<uint8_t>> Bytes = encodeFrame(M, Error);
  ASSERT_TRUE(Bytes);
  std::string Garbled = "ok\nnot-a-pair";
  std::vector<uint8_t> Frame = {static_cast<uint8_t>(Garbled.size()), 0, 0, 0};
  Frame.insert(Frame.end(), Garbled.begin(), Garbled.end());
  EXPECT_FALSE(decodeFrame(Frame.data(), Frame.size(), Error));
  EXPECT_NE(Error.find("key=value"), std::string::npos);
}

//===--- ServeCore dispatch -----------------------------------------------===//

TEST(ServeCoreTest, LoadRunEstimateCaptureIngest) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  WireMessage Est = Core.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(Est.Verb, "ok") << Est.param("message");
  EXPECT_EQ(Est.param("function"), "main");
  EXPECT_EQ(Est.param("degraded"), "0");
  double Time = std::stod(Est.param("time"));
  EXPECT_GT(Time, 0.0);

  // estimate on a named function.
  WireMessage EstLeaf = makeRequest("estimate", "s0");
  EstLeaf.Params["function"] = "leaf";
  WireMessage LeafResp = Core.handle(EstLeaf);
  ASSERT_EQ(LeafResp.Verb, "ok");
  EXPECT_EQ(LeafResp.param("function"), "leaf");
  EXPECT_LT(std::stod(LeafResp.param("time")), Time);

  // capture-profile emits a parseable body; re-ingesting it doubles the
  // accumulated totals, which leaves the *average* estimate unchanged.
  WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(Cap.Verb, "ok");
  ASSERT_FALSE(Cap.Body.empty());
  WireMessage Ingest = makeRequest("ingest-profile", "s0");
  Ingest.Body = Cap.Body;
  WireMessage IngResp = Core.handle(Ingest);
  ASSERT_EQ(IngResp.Verb, "ok") << IngResp.param("message");
  EXPECT_EQ(IngResp.param("accepted"), "2");
  EXPECT_EQ(IngResp.param("quarantined"), "0");

  WireMessage Est2 = Core.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(Est2.Verb, "ok");
  EXPECT_EQ(Est2.param("time"), Est.param("time"));
}

TEST(ServeCoreTest, EstimateBatchRoundTripsAndMatchesSingleEstimates) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  // Reference: two single estimates.
  WireMessage EstMain = makeRequest("estimate", "s0");
  EstMain.Params["function"] = "main";
  WireMessage MainResp = Core.handle(EstMain);
  ASSERT_EQ(MainResp.Verb, "ok") << MainResp.param("message");
  WireMessage EstLeaf = makeRequest("estimate", "s0");
  EstLeaf.Params["function"] = "leaf";
  WireMessage LeafResp = Core.handle(EstLeaf);
  ASSERT_EQ(LeafResp.Verb, "ok") << LeafResp.param("message");

  // The batch goes through the frame codec (indexed params survive the
  // wire) before it reaches the core.
  WireMessage Batch = makeRequest("estimate-batch", "s0");
  Batch.Params["count"] = "2";
  Batch.Params["function.0"] = "main";
  Batch.Params["function.1"] = "leaf";
  std::string Error;
  std::optional<std::vector<uint8_t>> Frame = encodeFrame(Batch, Error);
  ASSERT_TRUE(Frame) << Error;
  std::optional<WireMessage> Decoded =
      decodeFrame(Frame->data(), Frame->size(), Error);
  ASSERT_TRUE(Decoded) << Error;
  ASSERT_EQ(Decoded->Params, Batch.Params);

  WireMessage Resp = Core.handle(*Decoded);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  EXPECT_EQ(Resp.param("count"), "2");
  EXPECT_EQ(Resp.param("failed"), "0");
  EXPECT_EQ(Resp.param("ok.0"), "1");
  EXPECT_EQ(Resp.param("ok.1"), "1");
  EXPECT_EQ(Resp.param("function.0"), "main");
  EXPECT_EQ(Resp.param("function.1"), "leaf");
  // Full-precision rendering: the batch answers are byte-identical to the
  // single-estimate responses.
  for (const char *Key : {"time", "var", "stddev", "degraded",
                          "quarantined"}) {
    EXPECT_EQ(Resp.param(std::string(Key) + ".0"), MainResp.param(Key))
        << Key;
    EXPECT_EQ(Resp.param(std::string(Key) + ".1"), LeafResp.param(Key))
        << Key;
  }

  // The response itself round-trips the codec too.
  std::optional<std::vector<uint8_t>> RespFrame = encodeFrame(Resp, Error);
  ASSERT_TRUE(RespFrame) << Error;
  std::optional<WireMessage> RespBack =
      decodeFrame(RespFrame->data(), RespFrame->size(), Error);
  ASSERT_TRUE(RespBack) << Error;
  EXPECT_EQ(RespBack->Params, Resp.Params);
}

TEST(ServeCoreTest, EstimateBatchReportsPerItemFailures) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  WireMessage Batch = makeRequest("estimate-batch", "s0");
  Batch.Params["count"] = "3";
  Batch.Params["function.0"] = "leaf";
  Batch.Params["function.1"] = "nosuchfn";
  Batch.Params["function.2"] = "main";
  WireMessage Resp = Core.handle(Batch);
  // One bad function does not discard its batch-mates' answers.
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  EXPECT_EQ(Resp.param("count"), "3");
  EXPECT_EQ(Resp.param("failed"), "1");
  EXPECT_EQ(Resp.param("ok.0"), "1");
  EXPECT_EQ(Resp.param("ok.1"), "0");
  EXPECT_EQ(Resp.param("ok.2"), "1");
  EXPECT_EQ(Resp.param("error-code.1"), "estimate-failed");
  EXPECT_NE(Resp.param("error.1").find("nosuchfn"), std::string::npos)
      << Resp.param("error.1");
  EXPECT_FALSE(Resp.hasParam("time.1"));
  EXPECT_GT(std::stod(Resp.param("time.2")), 0.0);
}

TEST(ServeCoreTest, EstimateBatchValidatesItsShape) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  // Missing / zero / garbage count.
  for (const char *Count : {"", "0", "three"}) {
    WireMessage Batch = makeRequest("estimate-batch", "s0");
    if (*Count)
      Batch.Params["count"] = Count;
    WireMessage Resp = Core.handle(Batch);
    EXPECT_EQ(Resp.Verb, "error") << Count;
    EXPECT_EQ(Resp.param("code"), "bad-request") << Count;
  }

  // count promises more slots than were sent.
  WireMessage Short = makeRequest("estimate-batch", "s0");
  Short.Params["count"] = "2";
  Short.Params["function.0"] = "main";
  WireMessage Resp = Core.handle(Short);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_NE(Resp.param("message").find("function.1"), std::string::npos)
      << Resp.param("message");

  // count disagreeing with the keys actually sent: indexed parameters at
  // or past count mean the client dropped requests on the floor (or
  // miscounted); silently ignoring them would answer a different batch
  // than the one sent. Regression: these used to be silently ignored.
  WireMessage Extra = makeRequest("estimate-batch", "s0");
  Extra.Params["count"] = "1";
  Extra.Params["function.0"] = "main";
  Extra.Params["function.2"] = "leaf";
  Resp = Core.handle(Extra);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");
  EXPECT_NE(Resp.param("message").find("function.2"), std::string::npos)
      << Resp.param("message");
  EXPECT_NE(Resp.param("message").find("disagrees"), std::string::npos)
      << Resp.param("message");

  // Same for a stray per-index override and for a garbled index.
  WireMessage StrayLV = makeRequest("estimate-batch", "s0");
  StrayLV.Params["count"] = "1";
  StrayLV.Params["function.0"] = "main";
  StrayLV.Params["loop-variance.7"] = "zero";
  Resp = Core.handle(StrayLV);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");
  EXPECT_NE(Resp.param("message").find("loop-variance.7"), std::string::npos)
      << Resp.param("message");

  WireMessage BadIdx = makeRequest("estimate-batch", "s0");
  BadIdx.Params["count"] = "1";
  BadIdx.Params["function.0"] = "main";
  BadIdx.Params["function.x"] = "leaf";
  Resp = Core.handle(BadIdx);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");

  // Per-index loop-variance is validated like the single-estimate one.
  WireMessage BadLV = makeRequest("estimate-batch", "s0");
  BadLV.Params["count"] = "1";
  BadLV.Params["function.0"] = "main";
  BadLV.Params["loop-variance.0"] = "sideways";
  Resp = Core.handle(BadLV);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");

  // Unknown session fails before any parsing.
  WireMessage NoSession = makeRequest("estimate-batch", "nowhere");
  NoSession.Params["count"] = "1";
  NoSession.Params["function.0"] = "main";
  Resp = Core.handle(NoSession);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "unknown-session");
}

TEST(ServeCoreTest, ErrorsAreStructured) {
  ServeOptions Opts;
  ServeCore Core(Opts);

  WireMessage R = Core.handle(makeRequest("estimate", "nope"));
  EXPECT_EQ(R.Verb, "error");
  EXPECT_EQ(R.param("code"), "unknown-session");

  R = Core.handle(makeRequest("no-such-verb", ""));
  EXPECT_EQ(R.Verb, "error");
  EXPECT_EQ(R.param("code"), "bad-request");

  WireMessage Load = makeRequest("load-program", "bad");
  Load.Body = "      program main\n      this is not a statement\n      end\n";
  R = Core.handle(Load);
  EXPECT_EQ(R.Verb, "error");
  EXPECT_EQ(R.param("code"), "bad-program");

  WireMessage Ing = makeRequest("ingest-profile", "bad2");
  R = Core.handle(Ing);
  EXPECT_EQ(R.param("code"), "unknown-session");

  // Garbage profile bytes on a real session.
  ServeCore Core2{ServeOptions()};
  {
    WireMessage Load2 = makeRequest("load-program", "s");
    Load2.Body = TinySource;
    ASSERT_EQ(Core2.handle(Load2).Verb, "ok");
    WireMessage Bad = makeRequest("ingest-profile", "s");
    Bad.Body = "not a PTPF image";
    R = Core2.handle(Bad);
    EXPECT_EQ(R.Verb, "error");
    EXPECT_EQ(R.param("code"), "bad-profile");
  }
}

TEST(ServeCoreTest, StepBudgetDegradesUnderDegradePolicy) {
  ServeOptions Opts; // Daemon default: Degrade.
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  // A one-step budget trips during input refresh; under Degrade the
  // answer arrives tagged instead of erroring. Step budgets are
  // deterministic, so this is stable in CI where wall clocks are not.
  WireMessage Est = makeRequest("estimate", "s0");
  Est.Params["step-budget"] = "1";
  WireMessage R = Core.handle(Est);
  ASSERT_EQ(R.Verb, "ok") << R.param("message");
  EXPECT_EQ(R.param("degraded"), "1");
  EXPECT_NE(R.param("degrade-reason").find("step budget"), std::string::npos);

  // The next unbudgeted query lifts the degradation and recomputes
  // exactly: same answer as a never-degraded session.
  WireMessage Clean = Core.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(Clean.Verb, "ok");
  EXPECT_EQ(Clean.param("degraded"), "0");

  ServeCore Ref{ServeOptions()};
  loadAndRun(Ref, "s0");
  WireMessage RefResp = Ref.handle(makeRequest("estimate", "s0"));
  EXPECT_EQ(Clean.param("time"), RefResp.param("time"));
  EXPECT_EQ(Clean.param("var"), RefResp.param("var"));
}

TEST(ServeCoreTest, StepBudgetFailsUnderFailPolicy) {
  ServeOptions Opts;
  Opts.OnDeadline = DeadlinePolicy::Fail;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  WireMessage Est = makeRequest("estimate", "s0");
  Est.Params["step-budget"] = "1";
  WireMessage R = Core.handle(Est);
  EXPECT_EQ(R.Verb, "error");
  EXPECT_EQ(R.param("code"), "timeout");
  EXPECT_NE(R.param("message").find("timeout:"), std::string::npos);
}

TEST(ServeCoreTest, DefaultStepBudgetActsAsBackstop) {
  ServeOptions Opts;
  Opts.DefaultStepBudget = 1; // Absurdly tight daemon-wide default.
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");
  WireMessage R = Core.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(R.Verb, "ok");
  EXPECT_EQ(R.param("degraded"), "1");

  // An explicit per-request budget overrides the daemon default.
  WireMessage Est = makeRequest("estimate", "s0");
  Est.Params["step-budget"] = "1000000";
  R = Core.handle(Est);
  ASSERT_EQ(R.Verb, "ok");
  EXPECT_EQ(R.param("degraded"), "0");
}

//===--- LRU eviction -----------------------------------------------------===//

TEST(ServeCoreTest, LruEvictionHoldsTheSessionCap) {
  ServeOptions Opts;
  Opts.MaxSessions = 2;
  ServeCore Core(Opts);
  loadAndRun(Core, "a");
  loadAndRun(Core, "b");
  EXPECT_EQ(Core.sessionCount(), 2u);

  // Touch "a" so "b" is the LRU victim when "c" arrives.
  ASSERT_EQ(Core.handle(makeRequest("estimate", "a")).Verb, "ok");
  loadAndRun(Core, "c");
  EXPECT_EQ(Core.sessionCount(), 2u);
  EXPECT_EQ(Core.handle(makeRequest("estimate", "a")).Verb, "ok");
  EXPECT_EQ(Core.handle(makeRequest("estimate", "c")).Verb, "ok");
  WireMessage R = Core.handle(makeRequest("estimate", "b"));
  EXPECT_EQ(R.Verb, "error");
  EXPECT_EQ(R.param("code"), "unknown-session");
}

TEST(ServeCoreTest, MemoryBudgetEvictsByBytes) {
  ServeOptions Opts;
  ServeCore Probe{ServeOptions()};
  // Learn one session's heuristic charge, then budget for about two.
  {
    WireMessage Load = makeRequest("load-program", "probe");
    Load.Body = TinySource;
    WireMessage R = Probe.handle(Load);
    ASSERT_EQ(R.Verb, "ok");
    Opts.MemoryBudgetBytes = 2 * std::stoull(R.param("memory-bytes")) + 1024;
  }
  ServeCore Core(Opts);
  loadAndRun(Core, "a");
  loadAndRun(Core, "b");
  EXPECT_EQ(Core.sessionCount(), 2u);
  EXPECT_LE(Core.residentBytes(), Opts.MemoryBudgetBytes);
  loadAndRun(Core, "c");
  EXPECT_EQ(Core.sessionCount(), 2u);
  EXPECT_LE(Core.residentBytes(), Opts.MemoryBudgetBytes);
  // The oldest ("a") was the victim.
  EXPECT_EQ(Core.handle(makeRequest("estimate", "a")).param("code"),
            "unknown-session");
}

//===--- Concurrency vs single-threaded reference -------------------------===//

TEST(ServeCoreTest, ConcurrentEstimatesMatchSerialReferenceExactly) {
  // Reference: one core, one thread.
  ServeCore Ref{ServeOptions()};
  loadAndRun(Ref, "s0");
  WireMessage RefMain = Ref.handle(makeRequest("estimate", "s0"));
  WireMessage EstLeafReq = makeRequest("estimate", "s0");
  EstLeafReq.Params["function"] = "leaf";
  WireMessage RefLeaf = Ref.handle(EstLeafReq);
  ASSERT_EQ(RefMain.Verb, "ok");
  ASSERT_EQ(RefLeaf.Verb, "ok");

  // Subject: many threads, two sessions, interleaved queries. Every
  // response must be byte-identical to the reference (full %.17g
  // precision, so "close" is not good enough).
  ServeCore Core{ServeOptions()};
  loadAndRun(Core, "s0");
  loadAndRun(Core, "s1");
  constexpr unsigned Threads = 8, PerThread = 25;
  std::vector<std::string> Bad(Threads);
  {
    std::vector<std::jthread> Pool;
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back([&, T] {
        for (unsigned I = 0; I < PerThread; ++I) {
          WireMessage Req = makeRequest("estimate", I % 2 ? "s0" : "s1");
          const WireMessage &Want = (T + I) % 2 ? RefMain : RefLeaf;
          if ((T + I) % 2 == 0)
            Req.Params["function"] = "leaf";
          WireMessage Got = Core.handle(Req);
          if (Got.Verb != "ok" || Got.param("time") != Want.param("time") ||
              Got.param("var") != Want.param("var") ||
              Got.param("stddev") != Want.param("stddev")) {
            Bad[T] = "thread " + std::to_string(T) + " request " +
                     std::to_string(I) + ": got " + Got.param("time") +
                     "/" + Got.param("var") + " want " + Want.param("time") +
                     "/" + Want.param("var");
            return;
          }
        }
      });
  }
  for (const std::string &Msg : Bad)
    EXPECT_TRUE(Msg.empty()) << Msg;
}

TEST(ServeCoreTest, ConcurrentIngestsAccumulateLikeSerialIngests) {
  // Ingest is additive and serialized per session: N concurrent ingests of
  // the same profile must land the session in exactly the state N serial
  // ingests produce.
  ServeCore Core{ServeOptions()};
  loadAndRun(Core, "s0");
  WireMessage Cap = Core.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(Cap.Verb, "ok");

  constexpr unsigned Ingesters = 6, Estimators = 4, PerThread = 10;
  std::atomic<unsigned> Failures{0};
  {
    std::vector<std::jthread> Pool;
    for (unsigned T = 0; T < Ingesters; ++T)
      Pool.emplace_back([&] {
        for (unsigned I = 0; I < PerThread; ++I) {
          WireMessage Req = makeRequest("ingest-profile", "s0");
          Req.Body = Cap.Body;
          WireMessage R = Core.handle(Req);
          if (R.Verb != "ok" || R.param("accepted") != "2")
            Failures.fetch_add(1);
        }
      });
    // Concurrent estimates must always see *some* consistent state — no
    // torn reads, no errors — while the ingests land.
    for (unsigned T = 0; T < Estimators; ++T)
      Pool.emplace_back([&] {
        for (unsigned I = 0; I < PerThread; ++I)
          if (Core.handle(makeRequest("estimate", "s0")).Verb != "ok")
            Failures.fetch_add(1);
      });
  }
  EXPECT_EQ(Failures.load(), 0u);

  // Reference: the same number of ingests, serially.
  ServeCore Ref{ServeOptions()};
  loadAndRun(Ref, "s0");
  WireMessage RefCap = Ref.handle(makeRequest("capture-profile", "s0"));
  ASSERT_EQ(RefCap.Verb, "ok");
  ASSERT_EQ(RefCap.Body, Cap.Body) << "profile capture is not deterministic";
  for (unsigned I = 0; I < Ingesters * PerThread; ++I) {
    WireMessage Req = makeRequest("ingest-profile", "s0");
    Req.Body = RefCap.Body;
    ASSERT_EQ(Ref.handle(Req).Verb, "ok");
  }
  WireMessage Got = Core.handle(makeRequest("estimate", "s0"));
  WireMessage Want = Ref.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(Got.Verb, "ok");
  EXPECT_EQ(Got.param("time"), Want.param("time"));
  EXPECT_EQ(Got.param("var"), Want.param("var"));
}

TEST(ServeCoreTest, ConcurrentLoadsEvictionsAndQueriesStayCoherent) {
  // Eviction stress: a 3-session cap with 6 session names cycling through
  // loads, runs and estimates from many threads. Responses may be
  // unknown-session (the name was just evicted) but never torn or
  // malformed, and the registry must respect the cap throughout.
  ServeOptions Opts;
  Opts.MaxSessions = 3;
  ServeCore Core(Opts);
  std::atomic<unsigned> Failures{0};
  {
    std::vector<std::jthread> Pool;
    for (unsigned T = 0; T < 6; ++T)
      Pool.emplace_back([&, T] {
        std::string Name = "s" + std::to_string(T);
        for (unsigned I = 0; I < 8; ++I) {
          WireMessage Load = makeRequest("load-program", Name);
          Load.Body = TinySource;
          if (Core.handle(Load).Verb != "ok")
            Failures.fetch_add(1);
          for (unsigned Q = 0; Q < 3; ++Q) {
            WireMessage R = Core.handle(makeRequest("estimate", Name));
            bool Ok = R.Verb == "ok" ||
                      (R.Verb == "error" &&
                       R.param("code") == "unknown-session");
            if (!Ok)
              Failures.fetch_add(1);
          }
        }
      });
  }
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_LE(Core.sessionCount(), 3u);
}

//===--- Wire transport: mid-frame peer closes ----------------------------===//

namespace {

/// Writes \p Size bytes to \p Fd and closes it, simulating a peer that
/// dies mid-frame.
void writeThenClose(int Fd, const void *Data, size_t Size) {
  ASSERT_EQ(::send(Fd, Data, Size, MSG_NOSIGNAL),
            static_cast<ssize_t>(Size));
  ::close(Fd);
}

} // namespace

TEST(WireTest, CleanEofBetweenFramesIsNotAnError) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ::close(Fds[0]); // Peer hangs up without sending a byte.
  WireMessage M;
  std::string Error;
  EXPECT_EQ(readFrame(Fds[1], M, Error), 0);
  EXPECT_TRUE(Error.empty()) << Error;
  ::close(Fds[1]);
}

TEST(WireTest, PeerClosingInsideLengthPrefixIsATruncatedFrame) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // Regression: a peer dying after 2 of the 4 length-prefix bytes used to
  // surface as a bare read failure; it must name what was cut short.
  const uint8_t Half[2] = {0x10, 0x00};
  writeThenClose(Fds[0], Half, sizeof(Half));
  WireMessage M;
  std::string Error;
  EXPECT_EQ(readFrame(Fds[1], M, Error), -1);
  EXPECT_NE(Error.find("truncated frame"), std::string::npos) << Error;
  EXPECT_NE(Error.find("2 of 4"), std::string::npos) << Error;
  EXPECT_NE(Error.find("length-prefix"), std::string::npos) << Error;
  ::close(Fds[1]);
}

TEST(WireTest, PeerClosingInsidePayloadIsATruncatedFrame) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // A full prefix promising 10 payload bytes, then only 3 arrive. The
  // partially-filled buffer must NOT reach the codec (which could
  // misparse a half-written header as a shorter valid frame).
  uint8_t Bytes[4 + 3] = {10, 0, 0, 0, 'o', 'k', '\n'};
  writeThenClose(Fds[0], Bytes, sizeof(Bytes));
  WireMessage M;
  std::string Error;
  EXPECT_EQ(readFrame(Fds[1], M, Error), -1);
  EXPECT_NE(Error.find("truncated frame"), std::string::npos) << Error;
  EXPECT_NE(Error.find("3 of 10 payload bytes"), std::string::npos) << Error;
  ::close(Fds[1]);
}

TEST(WireTest, PeerClosingAfterPrefixAloneIsATruncatedFrame) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // EOF exactly on the payload boundary: the prefix promised bytes that
  // never came, which is a truncated frame, not a clean hang-up.
  const uint8_t Prefix[4] = {5, 0, 0, 0};
  writeThenClose(Fds[0], Prefix, sizeof(Prefix));
  WireMessage M;
  std::string Error;
  EXPECT_EQ(readFrame(Fds[1], M, Error), -1);
  EXPECT_NE(Error.find("truncated frame"), std::string::npos) << Error;
  EXPECT_NE(Error.find("0 of 5 payload bytes"), std::string::npos) << Error;
  ::close(Fds[1]);
}

TEST(WireTest, PayloadBufferGrowsWithTheBytesThatArrive) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // Regression: a prefix promising the largest legal frame used to
  // zero-fill a MaxFramePayload buffer before one payload byte arrived.
  uint8_t Bytes[4 + 16];
  storeLE32(Bytes, MaxFramePayload);
  std::memset(Bytes + 4, 'x', 16);
  writeThenClose(Fds[0], Bytes, sizeof(Bytes));
  WireMessage M;
  std::string Error;
  uint64_t Before = threadAllocBytes();
  EXPECT_EQ(readFrame(Fds[1], M, Error), -1);
  EXPECT_LE(threadAllocBytes() - Before, uint64_t(2) << 20);
  EXPECT_NE(Error.find("truncated frame"), std::string::npos) << Error;
  EXPECT_NE(Error.find("16 of " + std::to_string(MaxFramePayload) +
                       " payload bytes"),
            std::string::npos)
      << Error;
  ::close(Fds[1]);
}

TEST(WireTest, WholeFramesRoundTripOverASocketPair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  WireMessage M;
  M.Verb = "estimate";
  M.Params["session"] = "s0";
  M.Body = std::string("\x00\x01payload", 9);
  std::string Error;
  ASSERT_TRUE(writeFrame(Fds[0], M, Error)) << Error;
  ::close(Fds[0]);
  WireMessage Back;
  ASSERT_EQ(readFrame(Fds[1], Back, Error), 1) << Error;
  EXPECT_EQ(Back.Verb, M.Verb);
  EXPECT_EQ(Back.Params, M.Params);
  EXPECT_EQ(Back.Body, M.Body);
  // And the hang-up after the frame is still a clean EOF.
  EXPECT_EQ(readFrame(Fds[1], Back, Error), 0);
  ::close(Fds[1]);
}

TEST(WireTest, WritingToAClosedPeerFailsInsteadOfRaisingSigpipe) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ::close(Fds[1]); // Peer gone: an unsuppressed SIGPIPE would kill us here.
  WireMessage M;
  M.Verb = "estimate";
  M.Body = std::string(4096, 'x');
  std::string Error;
  bool Ok = writeFrame(Fds[0], M, Error);
  for (int I = 0; Ok && I < 64; ++I) // Drain the buffer until EPIPE.
    Ok = writeFrame(Fds[0], M, Error);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Error.empty());
  ::close(Fds[0]);
}

TEST(WireTest, ListenProbesLivenessBeforeRemovingAnExistingSocket) {
  std::string Path =
      "/tmp/ptran-wire-live-" + std::to_string(::getpid()) + ".sock";
  ::unlink(Path.c_str());
  std::string Error;

  // A live listener on the path must be refused, not unlinked.
  int Live = listenUnix(Path, Error);
  ASSERT_GE(Live, 0) << Error;
  EXPECT_EQ(listenUnix(Path, Error), -1);
  EXPECT_NE(Error.find("already listening"), std::string::npos) << Error;
  // ... and the original listener still owns the path.
  int Probe = connectUnix(Path, Error);
  EXPECT_GE(Probe, 0) << Error;
  if (Probe >= 0)
    ::close(Probe);
  ::close(Live);

  // Once the listener is gone the socket file is stale; a new daemon
  // reclaims the path.
  int Reclaimed = listenUnix(Path, Error);
  EXPECT_GE(Reclaimed, 0) << Error;
  if (Reclaimed >= 0)
    ::close(Reclaimed);
  ::unlink(Path.c_str());

  // A plain file at the path is never unlinked, whatever its state.
  int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  EXPECT_EQ(listenUnix(Path, Error), -1);
  EXPECT_NE(Error.find("not a socket"), std::string::npos) << Error;
  struct stat St;
  EXPECT_EQ(::stat(Path.c_str(), &St), 0); // Still there.
  ::unlink(Path.c_str());
}

//===--- stream-deltas verb -----------------------------------------------===//

namespace {

/// Appends one 16-byte little-endian stream record to \p Body.
void appendRecord(std::string &Body, uint32_t FuncIdx, uint32_t CondIdx,
                  double Delta) {
  std::vector<uint8_t> Rec;
  ByteWriter W(Rec);
  W.u32(FuncIdx);
  W.u32(CondIdx);
  W.f64(Delta);
  Body.append(Rec.begin(), Rec.end());
}

/// Runs describe on \p Session and returns the stream index of \p Fn.
unsigned describeFunctionIndex(ServeCore &Core, const std::string &Session,
                               const std::string &Fn) {
  WireMessage Desc = makeRequest("stream-deltas", Session);
  Desc.Params["describe"] = "1";
  WireMessage Resp = Core.handle(Desc);
  EXPECT_EQ(Resp.Verb, "ok") << Resp.param("message");
  unsigned N = static_cast<unsigned>(std::stoul(Resp.param("functions")));
  for (unsigned I = 0; I < N; ++I)
    if (Resp.param("function." + std::to_string(I)) == Fn) {
      EXPECT_GT(std::stoul(Resp.param("conditions." + std::to_string(I))),
                0u);
      return I;
    }
  ADD_FAILURE() << "function " << Fn << " not in stream describe";
  return N;
}

} // namespace

TEST(ServeCoreTest, StreamDeltasDescribeAppendFlushChangesEstimates) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");
  loadAndRun(Core, "s1");

  WireMessage Before = Core.handle([&] {
    WireMessage E = makeRequest("estimate", "s0");
    E.Params["function"] = "leaf";
    return E;
  }());
  ASSERT_EQ(Before.Verb, "ok") << Before.param("message");

  unsigned Leaf0 = describeFunctionIndex(Core, "s0", "leaf");
  unsigned Leaf1 = describeFunctionIndex(Core, "s1", "leaf");
  ASSERT_EQ(Leaf0, Leaf1); // Same program, same stream order.

  // Stream the same deltas into both sessions and flush: the folds must
  // be deterministic, so the two sessions answer byte-identically.
  for (const char *Session : {"s0", "s1"}) {
    WireMessage Ing = makeRequest("stream-deltas", Session);
    for (int I = 0; I < 8; ++I)
      appendRecord(Ing.Body, Leaf0, 0, 2.0);
    Ing.Params["flush"] = "1";
    WireMessage Resp = Core.handle(Ing);
    ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
    EXPECT_EQ(Resp.param("appended"), "8");
    EXPECT_EQ(Resp.param("dropped"), "0");
    EXPECT_EQ(Resp.param("flushed-cells"), "1");
    EXPECT_EQ(Resp.param("flushed-functions"), "1");
    EXPECT_EQ(Resp.param("epoch"), "0");
  }

  WireMessage EstLeaf = makeRequest("estimate", "s0");
  EstLeaf.Params["function"] = "leaf";
  WireMessage After = Core.handle(EstLeaf);
  ASSERT_EQ(After.Verb, "ok") << After.param("message");
  // The streamed invocation deltas reached the estimator.
  EXPECT_NE(After.param("time"), Before.param("time"));

  WireMessage EstLeaf1 = makeRequest("estimate", "s1");
  EstLeaf1.Params["function"] = "leaf";
  WireMessage After1 = Core.handle(EstLeaf1);
  ASSERT_EQ(After1.Verb, "ok") << After1.param("message");
  for (const char *Key : {"time", "var", "stddev"})
    EXPECT_EQ(After.param(Key), After1.param(Key)) << Key;
}

TEST(ServeCoreTest, StreamDeltasValidatesBodyAndRecords) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");

  // Unknown session first.
  WireMessage NoS = makeRequest("stream-deltas", "nowhere");
  WireMessage Resp = Core.handle(NoS);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "unknown-session");

  // A body that is not a whole number of records is rejected outright.
  WireMessage Ragged = makeRequest("stream-deltas", "s0");
  Ragged.Body = std::string(7, '\0');
  Resp = Core.handle(Ragged);
  EXPECT_EQ(Resp.Verb, "error");
  EXPECT_EQ(Resp.param("code"), "bad-request");
  EXPECT_NE(Resp.param("message").find("16"), std::string::npos)
      << Resp.param("message");

  // Records with bad indices or bad values are dropped (and counted),
  // while their batch-mates land.
  unsigned Leaf = describeFunctionIndex(Core, "s0", "leaf");
  WireMessage Mixed = makeRequest("stream-deltas", "s0");
  appendRecord(Mixed.Body, Leaf, 0, 1.0);
  appendRecord(Mixed.Body, 9999, 0, 1.0);     // No such function row.
  appendRecord(Mixed.Body, Leaf, 9999, 1.0);  // No such condition cell.
  appendRecord(Mixed.Body, Leaf, 0, -3.0);    // Negative count.
  Mixed.Params["flush"] = "1";
  Resp = Core.handle(Mixed);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  EXPECT_EQ(Resp.param("appended"), "1");
  EXPECT_EQ(Resp.param("dropped"), "3");
  EXPECT_EQ(Resp.param("flushed-cells"), "1");

  // An append-free flush still seals an epoch.
  WireMessage Empty = makeRequest("stream-deltas", "s0");
  Empty.Params["flush"] = "1";
  Resp = Core.handle(Empty);
  ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
  EXPECT_EQ(Resp.param("appended"), "0");
  EXPECT_EQ(Resp.param("flushed-cells"), "0");
  EXPECT_EQ(Resp.param("epoch"), "1");
}

//===--- Per-request deadlines --------------------------------------------===//

TEST(ServeCoreTest, DeadlinesBeyondTheRepresentableLimitAreRejected) {
  ServeOptions Opts;
  ServeCore Core(Opts);
  loadAndRun(Core, "s0");
  WireMessage Ref = Core.handle(makeRequest("estimate", "s0"));
  ASSERT_EQ(Ref.Verb, "ok") << Ref.param("message");

  // A long but representable deadline is honoured: the exact answer.
  WireMessage Far = makeRequest("estimate", "s0");
  Far.Params["deadline-ms"] = "1e9";
  WireMessage R = Core.handle(Far);
  ASSERT_EQ(R.Verb, "ok") << R.param("message");
  EXPECT_EQ(R.param("degraded"), "0");
  EXPECT_EQ(R.param("time"), Ref.param("time"));

  // Past the limit the nanosecond budget no longer fits in int64_t. Such a
  // deadline used to wrap into the past and be served as already expired
  // (a degraded static-frequency answer); it is now a bad request naming
  // the limit, on every verb that takes a deadline.
  for (const char *Verb : {"estimate", "estimate-batch", "ingest-profile"})
    for (const char *Ms : {"1e13", "9.3e12", "1e300"}) {
      WireMessage Huge = makeRequest(Verb, "s0");
      Huge.Params["deadline-ms"] = Ms;
      R = Core.handle(Huge);
      EXPECT_EQ(R.Verb, "error") << Verb << " " << Ms;
      EXPECT_EQ(R.param("code"), "bad-request") << Verb << " " << Ms;
      EXPECT_NE(R.param("message").find("1e12"), std::string::npos)
          << R.param("message");
    }
}

//===--- The verb table ---------------------------------------------------===//

namespace {

/// A fresh directory under /tmp, removed (one level deep) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/ptran-serve-XXXXXX";
    EXPECT_NE(::mkdtemp(Buf), nullptr);
    Path = Buf;
  }
  ~TempDir() {
    for (const auto &[Name, Size] : listFiles())
      ::unlink((Path + "/" + Name).c_str());
    ::rmdir(Path.c_str());
  }
  /// (name, size) of every file in the directory, sorted by name.
  std::vector<std::pair<std::string, long long>> listFiles() const {
    std::vector<std::pair<std::string, long long>> Files;
    DIR *D = ::opendir(Path.c_str());
    if (!D)
      return Files;
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      struct stat St;
      if (Name != "." && Name != ".." &&
          ::stat((Path + "/" + Name).c_str(), &St) == 0)
        Files.emplace_back(Name, static_cast<long long>(St.st_size));
    }
    ::closedir(D);
    std::sort(Files.begin(), Files.end());
    return Files;
  }
};

/// A ServeCore over its own state directory (durable) or none, with a
/// stats registry, a no-op promote hook, and session s0 loaded and run.
struct TestDaemon {
  TempDir Dir;
  std::unique_ptr<durable::StateStore> Store;
  ObsRegistry Obs;
  std::unique_ptr<ServeCore> Core;

  explicit TestDaemon(bool Durable) {
    ServeOptions Opts;
    if (Durable) {
      std::string Error;
      durable::StateStore::Recovery Recovered;
      Store = durable::StateStore::open(Dir.Path, durable::FsyncPolicy::Never,
                                        Recovered, Error);
      EXPECT_TRUE(Store) << Error;
      Opts.Store = Store.get();
    }
    Opts.Obs = &Obs;
    Opts.Promote = [](std::string &) { return true; };
    Core = std::make_unique<ServeCore>(Opts);
    loadAndRun(*Core, "s0");
  }

  /// Everything a request could change: the journal, the state-dir files,
  /// the registry, and each session's captured profile and estimates.
  std::vector<std::string> state() {
    std::vector<std::string> S;
    S.push_back("journal lsn=" + std::to_string(Store->journal().lastLsn()) +
                " bytes=" + std::to_string(Store->journal().sizeBytes()));
    for (const auto &[Name, Size] : Dir.listFiles())
      S.push_back(Name + " " + std::to_string(Size));
    S.push_back("sessions=" + std::to_string(Core->sessionCount()));
    for (const char *Session : {"s0", "s1"}) {
      WireMessage Cap = Core->handle(makeRequest("capture-profile", Session));
      S.push_back(Cap.Verb + " profile of " + std::to_string(Cap.Body.size()) +
                  " bytes, hash " +
                  std::to_string(std::hash<std::string>{}(Cap.Body)));
      for (const char *Fn : {"", "leaf"}) {
        WireMessage Est = makeRequest("estimate", Session);
        Est.Params["function"] = Fn;
        WireMessage R = Core->handle(Est);
        S.push_back(R.Verb + " " + R.param("time") + " " + R.param("var"));
      }
    }
    return S;
  }
};

/// One valid request per verb (two for stream-deltas: a flushed append
/// and the read-only describe), built against a daemon set up by
/// TestDaemon. Every verb in the table must have an entry here.
struct VerbRequests {
  bool AcceptsDeadline;
  std::function<std::vector<WireMessage>(ServeCore &)> Build;
};

std::map<std::string, VerbRequests> verbRequests() {
  auto One = [](const char *Verb, const char *Session) {
    return [=](ServeCore &) {
      return std::vector<WireMessage>{makeRequest(Verb, Session)};
    };
  };
  std::map<std::string, VerbRequests> M;
  M["estimate"] = {true, [](ServeCore &) {
                     WireMessage R = makeRequest("estimate", "s0");
                     R.Params["function"] = "leaf";
                     return std::vector<WireMessage>{R};
                   }};
  M["estimate-batch"] = {true, [](ServeCore &) {
                           WireMessage R = makeRequest("estimate-batch", "s0");
                           R.Params["count"] = "2";
                           R.Params["function.0"] = "main";
                           R.Params["function.1"] = "leaf";
                           return std::vector<WireMessage>{R};
                         }};
  M["stream-deltas"] = {false, [](ServeCore &Core) {
                          unsigned Leaf =
                              describeFunctionIndex(Core, "s0", "leaf");
                          WireMessage Append =
                              makeRequest("stream-deltas", "s0");
                          appendRecord(Append.Body, Leaf, 0, 2.0);
                          Append.Params["flush"] = "1";
                          WireMessage Describe =
                              makeRequest("stream-deltas", "s0");
                          Describe.Params["describe"] = "1";
                          return std::vector<WireMessage>{Append, Describe};
                        }};
  M["ingest-profile"] = {true, [](ServeCore &Core) {
                           WireMessage R = makeRequest("ingest-profile", "s0");
                           R.Body = Core.handle(makeRequest("capture-profile",
                                                            "s0"))
                                        .Body;
                           return std::vector<WireMessage>{R};
                         }};
  M["capture-profile"] = {false, One("capture-profile", "s0")};
  M["run"] = {false, One("run", "s0")};
  M["load-program"] = {false, [](ServeCore &) {
                         WireMessage R = makeRequest("load-program", "s1");
                         R.Params["workload"] = "simple";
                         return std::vector<WireMessage>{R};
                       }};
  M["checkpoint"] = {false, One("checkpoint", "")};
  M["stats"] = {false, One("stats", "")};
  M["ping"] = {false, One("ping", "")};
  M["shutdown"] = {false, One("shutdown", "")};
  M["promote"] = {false, One("promote", "")};
  return M;
}

} // namespace

TEST(VerbTable, EveryVerbHasARequestBuilder) {
  std::map<std::string, VerbRequests> Requests = verbRequests();
  std::vector<std::string_view> Names = ServeCore::verbNames();
  for (std::string_view Name : Names)
    EXPECT_TRUE(Requests.count(std::string(Name)))
        << "verb '" << Name << "' has no request builder in verbRequests()";
  for (const auto &[Name, Unused] : Requests)
    EXPECT_NE(std::find(Names.begin(), Names.end(), Name), Names.end())
        << "verbRequests() builds '" << Name << "', which is not a verb";
}

TEST(VerbTable, ExactlyTheStateChangingRequestsAreRefusedOnAStandby) {
  std::map<std::string, VerbRequests> Requests = verbRequests();
  unsigned Mutating = 0, Reads = 0;
  for (std::string_view Name : ServeCore::verbNames()) {
    auto It = Requests.find(std::string(Name));
    if (It == Requests.end())
      continue; // EveryVerbHasARequestBuilder reports it.
    TestDaemon Probe(/*Durable=*/true);
    size_t N = It->second.Build(*Probe.Core).size();
    for (size_t I = 0; I != N; ++I) {
      SCOPED_TRACE(std::string(Name) + " request " + std::to_string(I));
      // Primary: a valid request answers ok; record whether it changed
      // any state.
      TestDaemon Primary(/*Durable=*/true);
      WireMessage Req = It->second.Build(*Primary.Core)[I];
      std::vector<std::string> Before = Primary.state();
      WireMessage Resp = Primary.Core->handle(Req);
      ASSERT_EQ(Resp.Verb, "ok") << Resp.param("message");
      bool Changed = Primary.state() != Before;
      (Changed ? Mutating : Reads)++;

      // Standby: a state change is refused with read-only and leaves the
      // journal and every file untouched; anything else answers.
      TestDaemon Standby(/*Durable=*/true);
      Req = It->second.Build(*Standby.Core)[I];
      Standby.Core->setReadOnly(true);
      Before = Standby.state();
      WireMessage StandbyResp = Standby.Core->handle(Req);
      EXPECT_EQ(Standby.state(), Before);
      if (Changed) {
        EXPECT_EQ(StandbyResp.Verb, "error");
        EXPECT_EQ(StandbyResp.param("code"), "read-only");
      } else {
        EXPECT_EQ(StandbyResp.Verb, "ok") << StandbyResp.param("message");
      }
    }
  }
  // load-program, run, stream-deltas append, ingest-profile, checkpoint;
  // and at least estimate, estimate-batch, describe, capture, stats, ping.
  EXPECT_GE(Mutating, 5u);
  EXPECT_GE(Reads, 6u);
}

TEST(VerbTable, MalformedDeadlinesAreRejectedExactlyWhereAccepted) {
  std::map<std::string, VerbRequests> Requests = verbRequests();
  for (std::string_view Name : ServeCore::verbNames()) {
    auto It = Requests.find(std::string(Name));
    if (It == Requests.end())
      continue;
    for (const char *Param : {"deadline-ms", "step-budget"})
      for (const char *Bad : {"soon", "-1", ""}) {
        SCOPED_TRACE(std::string(Name) + " " + Param + "=" + Bad);
        TestDaemon Plain(/*Durable=*/false), Junk(/*Durable=*/false);
        WireMessage Want = Plain.Core->handle(It->second.Build(*Plain.Core)[0]);
        WireMessage Req = It->second.Build(*Junk.Core)[0];
        Req.Params[Param] = Bad;
        WireMessage Got = Junk.Core->handle(Req);
        if (It->second.AcceptsDeadline) {
          EXPECT_EQ(Got.Verb, "error");
          EXPECT_EQ(Got.param("code"), "bad-request");
          EXPECT_NE(Got.param("message").find(Param), std::string::npos)
              << Got.param("message");
        } else {
          // The parameter is not this verb's: ignored.
          EXPECT_EQ(Got.Verb, Want.Verb);
          EXPECT_EQ(Got.param("code"), Want.param("code"));
          EXPECT_EQ(Got.param("message"), Want.param("message"));
        }
      }
  }
}
