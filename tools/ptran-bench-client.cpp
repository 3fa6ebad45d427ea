//===--- tools/ptran-bench-client.cpp - Daemon load generator -------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Load generator for ptran-serve: opens many concurrent connections and
/// drives a mixed estimate / ingest-profile stream against a handful of
/// sessions, then prints throughput and a per-kind latency table
/// (p50/p95/p99/max). Setup loads the sessions, runs each once profiled
/// and captures its profile image; the ingest traffic re-ingests those
/// same bytes, which is exactly the accumulate-another-run's-worth shape
/// the paper's program database sees.
///
/// Exit status is 0 when every request got a well-formed response (shed
/// and deadline-degraded responses count as success — they are the load-
/// shedding behavior under test) and at least one estimate succeeded.
///
//===----------------------------------------------------------------------===//

#include "serve/Wire.h"
#include "support/Bytes.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace ptran;
using namespace ptran::serve;

namespace {

const char *UsageText = R"(usage: ptran-bench-client --socket=PATH [options]

Drives concurrent mixed estimate/ingest traffic against a running
ptran-serve and prints throughput plus a latency percentile table.

options:
  --socket=PATH       daemon socket to connect to (required)
  --connections=N     concurrent client connections (default 100)
  --requests=N        requests per connection (default 20)
  --sessions=N        distinct sessions to spread load over (default 4)
  --ingest-every=N    every Nth request is an ingest-profile (default 4,
                      0 = estimates only)
  --stream-every=N    every Nth request is a stream-deltas append+flush
                      (default 0 = no streaming traffic)
  --stream-writers=N  dedicated writer threads that loop stream-deltas
                      appends (no flush) for the whole run, on top of the
                      request mix, then seal them with one flush each
                      (default 0)
  --deadline-ms=MS    per-request deadline sent with every estimate
                      (default none)
  --setup-only        load + run + capture the sessions, then exit (used
                      to populate a daemon whose state-dir is under test)
  --probe=S[:FUNC]    skip the load phase; send one estimate for session S
                      (optionally function FUNC) and print the full-
                      precision answer. Repeatable; recovery tests diff
                      the output of two daemons byte-for-byte.
  --scrape-stats      fetch and print the daemon's stats table afterwards
  --shutdown          send a shutdown request when done
  --help              show this help
)";

struct Options {
  std::string SocketPath;
  unsigned Connections = 100;
  unsigned Requests = 20;
  unsigned Sessions = 4;
  unsigned IngestEvery = 4;
  unsigned StreamEvery = 0;
  unsigned StreamWriters = 0;
  double DeadlineMs = 0;
  bool SetupOnly = false;
  std::vector<std::string> Probes;
  bool ScrapeStats = false;
  bool Shutdown = false;
};

/// A small three-function program: enough call-graph and loop structure
/// that estimates exercise the interprocedural pass, small enough that one
/// request is milliseconds, not seconds.
const char *BenchSource = R"(      program main
      integer i, n
      real a(64)
      n = 32
      do 10 i = 1, n
        call work(i)
 10   continue
      call tail(n)
      end
      subroutine work(k)
      integer k, j
      real s
      s = 0
      do 20 j = 1, 8
        s = s + j * k
        if (s .gt. 100) then
          s = s - 100
        endif
 20   continue
      end
      subroutine tail(n)
      integer n, i
      real t
      t = 1
      do 30 i = 1, n
        t = t * 1.01
 30   continue
      print t
      end
)";

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  auto Value = [](const std::string &Arg,
                  const std::string &Prefix) -> std::optional<std::string> {
    if (Arg.rfind(Prefix, 0) == 0)
      return Arg.substr(Prefix.size());
    return std::nullopt;
  };
  auto Invalid = [](const std::string &Flag, const std::string &Got,
                    const std::string &Expected) {
    std::fprintf(stderr, "ptran-bench-client: %s wants %s, got '%s'\n",
                 Flag.c_str(), Expected.c_str(), Got.c_str());
    return false;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(UsageText, stdout);
      std::exit(0);
    }
    if (Arg == "--scrape-stats") {
      Opts.ScrapeStats = true;
    } else if (Arg == "--setup-only") {
      Opts.SetupOnly = true;
    } else if (auto V = Value(Arg, "--probe=")) {
      if (V->empty())
        return Invalid("--probe", *V, "SESSION or SESSION:FUNCTION");
      Opts.Probes.push_back(*V);
    } else if (Arg == "--shutdown") {
      Opts.Shutdown = true;
    } else if (auto V = Value(Arg, "--socket=")) {
      Opts.SocketPath = *V;
    } else if (auto V = Value(Arg, "--connections=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--connections", *V, "a positive integer");
      Opts.Connections = *N;
    } else if (auto V = Value(Arg, "--requests=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--requests", *V, "a positive integer");
      Opts.Requests = *N;
    } else if (auto V = Value(Arg, "--sessions=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--sessions", *V, "a positive integer");
      Opts.Sessions = *N;
    } else if (auto V = Value(Arg, "--ingest-every=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--ingest-every", *V, "an unsigned integer");
      Opts.IngestEvery = *N;
    } else if (auto V = Value(Arg, "--stream-every=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--stream-every", *V, "an unsigned integer");
      Opts.StreamEvery = *N;
    } else if (auto V = Value(Arg, "--stream-writers=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--stream-writers", *V, "an unsigned integer");
      Opts.StreamWriters = *N;
    } else if (auto V = Value(Arg, "--deadline-ms=")) {
      std::optional<double> D = parseDouble(*V);
      if (!D || *D < 0)
        return Invalid("--deadline-ms", *V, "a non-negative number");
      Opts.DeadlineMs = *D;
    } else {
      std::fprintf(stderr, "ptran-bench-client: unknown argument '%s'\n%s",
                   Arg.c_str(), UsageText);
      return false;
    }
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "ptran-bench-client: --socket=PATH is required\n%s",
                 UsageText);
    return false;
  }
  return true;
}

enum class Outcome { Ok, Degraded, Shed, Error };

/// Request kinds the latency table reports separately.
enum Kind : unsigned {
  KindEstimate = 0,
  KindIngest = 1,
  KindStream = 2,
  KindStreamWriter = 3,
};

struct Sample {
  uint64_t LatencyNs = 0;
  unsigned Kind = KindEstimate;
  Outcome What = Outcome::Error;
};

/// One request/response round trip, timed. Returns nullopt on transport
/// failure (connection gone).
std::optional<Sample> roundTrip(int Fd, const WireMessage &Request,
                                unsigned Kind) {
  Sample S;
  S.Kind = Kind;
  std::string Error;
  auto Start = std::chrono::steady_clock::now();
  WireMessage Resp;
  if (!writeFrame(Fd, Request, Error) || readFrame(Fd, Resp, Error) != 1)
    return std::nullopt;
  S.LatencyNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  if (Resp.Verb == "ok")
    S.What = Resp.param("degraded") == "1" ? Outcome::Degraded : Outcome::Ok;
  else if (Resp.param("code") == "overloaded")
    S.What = Outcome::Shed;
  else
    S.What = Outcome::Error;
  return S;
}

std::string sessionName(unsigned I) { return "bench-" + std::to_string(I); }

/// Builds a stream-deltas body from a describe response: one 16-byte
/// record (u32 function LE | u32 condition 0 LE | f64 delta 1.0 LE) per
/// function that has at least one condition. Deterministic, so reference
/// and recovered daemons fed the same stream traffic agree bit-for-bit.
std::string streamBodyFromDescribe(const WireMessage &Describe) {
  std::optional<unsigned> Funcs = parseUnsigned(Describe.param("functions"));
  std::vector<uint8_t> Body;
  ByteWriter W(Body);
  for (unsigned I = 0; Funcs && I < *Funcs; ++I) {
    std::optional<unsigned> Conds =
        parseUnsigned(Describe.param("conditions." + std::to_string(I)));
    if (!Conds || *Conds == 0)
      continue;
    W.u32(I);
    W.u32(0);
    W.f64(1.0);
  }
  return std::string(Body.begin(), Body.end());
}

/// Loads the bench sessions, runs each once and captures its profile.
/// False (with a message) on any setup failure.
bool setUpSessions(const Options &Opts, std::string &ProfileBytes,
                   std::string &StreamBody) {
  std::string Error;
  int Fd = connectUnix(Opts.SocketPath, Error);
  if (Fd < 0) {
    std::fprintf(stderr, "ptran-bench-client: %s\n", Error.c_str());
    return false;
  }
  bool Ok = true;
  for (unsigned I = 0; Ok && I < Opts.Sessions; ++I) {
    WireMessage Load;
    Load.Verb = "load-program";
    Load.Params["session"] = sessionName(I);
    Load.Body = BenchSource;
    WireMessage Run;
    Run.Verb = "run";
    Run.Params["session"] = sessionName(I);
    WireMessage Capture;
    Capture.Verb = "capture-profile";
    Capture.Params["session"] = sessionName(I);
    for (const WireMessage &Req : {Load, Run, Capture}) {
      WireMessage Resp;
      if (!writeFrame(Fd, Req, Error) || readFrame(Fd, Resp, Error) != 1) {
        std::fprintf(stderr, "ptran-bench-client: setup %s failed: %s\n",
                     Req.Verb.c_str(), Error.c_str());
        Ok = false;
        break;
      }
      if (Resp.Verb != "ok") {
        std::fprintf(stderr, "ptran-bench-client: setup %s failed: %s\n",
                     Req.Verb.c_str(), Resp.param("message").c_str());
        Ok = false;
        break;
      }
      if (Req.Verb == "capture-profile")
        ProfileBytes = Resp.Body;
    }
  }
  // Every session runs the same program, so one describe (session 0)
  // yields the stream body all workers share.
  if (Ok && (Opts.StreamEvery > 0 || Opts.StreamWriters > 0)) {
    WireMessage Req, Resp;
    Req.Verb = "stream-deltas";
    Req.Params["session"] = sessionName(0);
    Req.Params["describe"] = "1";
    if (!writeFrame(Fd, Req, Error) || readFrame(Fd, Resp, Error) != 1 ||
        Resp.Verb != "ok") {
      std::fprintf(stderr, "ptran-bench-client: setup describe failed\n");
      Ok = false;
    } else {
      StreamBody = streamBodyFromDescribe(Resp);
    }
  }
  ::close(Fd);
  return Ok;
}

/// `--probe` mode: one estimate per probe spec against an already-running,
/// already-populated daemon, printed at full precision. Two daemons whose
/// durable state agrees print byte-identical output.
int runProbes(const Options &Opts) {
  std::string Error;
  int Fd = connectUnix(Opts.SocketPath, Error);
  if (Fd < 0) {
    std::fprintf(stderr, "ptran-bench-client: %s\n", Error.c_str());
    return 1;
  }
  int Exit = 0;
  for (const std::string &P : Opts.Probes) {
    std::string Session = P, Func;
    size_t Colon = P.find(':');
    if (Colon != std::string::npos) {
      Session = P.substr(0, Colon);
      Func = P.substr(Colon + 1);
    }
    WireMessage Req, Resp;
    Req.Verb = "estimate";
    Req.Params["session"] = Session;
    Req.Params["function"] = Func;
    if (!writeFrame(Fd, Req, Error) || readFrame(Fd, Resp, Error) != 1) {
      std::fprintf(stderr, "ptran-bench-client: probe transport failed: %s\n",
                   Error.c_str());
      ::close(Fd);
      return 1;
    }
    if (Resp.Verb != "ok") {
      std::printf("probe %s error code=%s message=%s\n", P.c_str(),
                  Resp.param("code").c_str(), Resp.param("message").c_str());
      Exit = 1;
      continue;
    }
    std::printf("probe %s function=%s time=%s var=%s stddev=%s degraded=%s "
                "quarantined=%s\n",
                P.c_str(), Resp.param("function").c_str(),
                Resp.param("time").c_str(), Resp.param("var").c_str(),
                Resp.param("stddev").c_str(), Resp.param("degraded").c_str(),
                Resp.param("quarantined").c_str());
  }
  if (Opts.Shutdown) {
    WireMessage Req, Resp;
    Req.Verb = "shutdown";
    if (!writeFrame(Fd, Req, Error) || readFrame(Fd, Resp, Error) != 1 ||
        Resp.Verb != "ok") {
      std::fprintf(stderr, "ptran-bench-client: shutdown failed\n");
      Exit = 1;
    }
  }
  ::close(Fd);
  return Exit;
}

void workerLoop(const Options &Opts, unsigned Worker,
                const std::string &ProfileBytes,
                const std::string &StreamBody, std::vector<Sample> &Out,
                std::atomic<bool> &TransportFailed) {
  std::string Error;
  int Fd = connectUnix(Opts.SocketPath, Error);
  if (Fd < 0) {
    TransportFailed.store(true);
    return;
  }
  for (unsigned I = 0; I < Opts.Requests; ++I) {
    std::string Session = sessionName((Worker + I) % Opts.Sessions);
    WireMessage Req;
    unsigned Kind = KindEstimate;
    if (Opts.StreamEvery > 0 && !StreamBody.empty() &&
        (I % Opts.StreamEvery) == Opts.StreamEvery - 1)
      Kind = KindStream;
    else if (Opts.IngestEvery > 0 &&
             (I % Opts.IngestEvery) == Opts.IngestEvery - 1)
      Kind = KindIngest;
    if (Kind == KindStream) {
      Req.Verb = "stream-deltas";
      Req.Params["session"] = Session;
      Req.Params["flush"] = "1";
      Req.Body = StreamBody;
    } else if (Kind == KindIngest) {
      Req.Verb = "ingest-profile";
      Req.Params["session"] = Session;
      Req.Body = ProfileBytes;
    } else {
      Req.Verb = "estimate";
      Req.Params["session"] = Session;
      if (Opts.DeadlineMs > 0)
        Req.Params["deadline-ms"] = formatDouble(Opts.DeadlineMs, 6);
    }
    std::optional<Sample> S = roundTrip(Fd, Req, Kind);
    if (!S) {
      TransportFailed.store(true);
      break;
    }
    Out.push_back(*S);
  }
  ::close(Fd);
}

/// A dedicated stream writer: loops un-flushed stream-deltas appends on
/// its own connection until the request workers finish. This is the
/// firehose shape the sharded delta ingest (and the replication shipper
/// behind it) is sized for: many tiny appends folded by the epoch
/// flusher, not by the client. The one flush=1 at the end folds whatever
/// the daemon's flusher has not yet, so every append is in the session
/// state when the client returns and a probe taken next reads the final
/// answer rather than racing the flusher.
void streamWriterLoop(const Options &Opts, unsigned Writer,
                      const std::string &StreamBody,
                      std::atomic<bool> &MainDone, std::vector<Sample> &Out,
                      std::atomic<bool> &TransportFailed) {
  std::string Error;
  int Fd = connectUnix(Opts.SocketPath, Error);
  if (Fd < 0) {
    TransportFailed.store(true);
    return;
  }
  WireMessage Req;
  Req.Verb = "stream-deltas";
  Req.Params["session"] = sessionName(Writer % Opts.Sessions);
  Req.Body = StreamBody;
  bool Connected = true;
  while (Connected && !MainDone.load(std::memory_order_acquire)) {
    std::optional<Sample> S = roundTrip(Fd, Req, KindStreamWriter);
    if (!S) {
      // The daemon may shut down while we are mid-append; only a failure
      // before the main workers finished is a real transport error.
      if (!MainDone.load(std::memory_order_acquire))
        TransportFailed.store(true);
      Connected = false;
    } else {
      Out.push_back(*S);
    }
  }
  if (Connected) {
    Req.Body.clear();
    Req.Params["flush"] = "1";
    roundTrip(Fd, Req, KindStreamWriter);
  }
  ::close(Fd);
}

uint64_t percentile(std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Index = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

std::string msString(uint64_t Ns) {
  return formatDouble(static_cast<double>(Ns) / 1e6, 4);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  if (!Opts.Probes.empty())
    return runProbes(Opts);

  std::string ProfileBytes, StreamBody;
  if (!setUpSessions(Opts, ProfileBytes, StreamBody))
    return 1;
  if (Opts.SetupOnly)
    return 0;

  std::vector<std::vector<Sample>> PerWorker(Opts.Connections);
  std::vector<std::vector<Sample>> PerWriter(Opts.StreamWriters);
  std::atomic<bool> TransportFailed{false};
  std::atomic<bool> MainDone{false};
  auto Start = std::chrono::steady_clock::now();
  {
    // Writers outlive the request workers (they stop when MainDone flips),
    // so the destruction order matters: workers join first, then MainDone,
    // then the writer jthreads join on scope exit.
    std::vector<std::jthread> Writers;
    for (unsigned W = 0; W < Opts.StreamWriters; ++W)
      Writers.emplace_back([&, W] {
        streamWriterLoop(Opts, W, StreamBody, MainDone, PerWriter[W],
                         TransportFailed);
      });
    {
      std::vector<std::jthread> Workers;
      for (unsigned W = 0; W < Opts.Connections; ++W)
        Workers.emplace_back([&, W] {
          workerLoop(Opts, W, ProfileBytes, StreamBody, PerWorker[W],
                     TransportFailed);
        });
    }
    MainDone.store(true, std::memory_order_release);
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  // Aggregate per kind.
  struct Agg {
    std::vector<uint64_t> Latencies;
    uint64_t Count = 0, Ok = 0, Degraded = 0, Shed = 0, Errors = 0;
  };
  Agg ByKind[4]; // [0] estimate, [1] ingest, [2] stream, [3] writer.
  std::vector<std::vector<Sample>> AllSamples = PerWorker;
  AllSamples.insert(AllSamples.end(), PerWriter.begin(), PerWriter.end());
  for (const std::vector<Sample> &Samples : AllSamples)
    for (const Sample &S : Samples) {
      Agg &A = ByKind[S.Kind];
      ++A.Count;
      A.Latencies.push_back(S.LatencyNs);
      switch (S.What) {
      case Outcome::Ok:
        ++A.Ok;
        break;
      case Outcome::Degraded:
        ++A.Degraded;
        break;
      case Outcome::Shed:
        ++A.Shed;
        break;
      case Outcome::Error:
        ++A.Errors;
        break;
      }
    }

  uint64_t Total =
      ByKind[0].Count + ByKind[1].Count + ByKind[2].Count + ByKind[3].Count;
  std::printf("%llu requests over %u connections in %s s: %s req/s\n",
              static_cast<unsigned long long>(Total), Opts.Connections,
              formatDouble(Seconds, 4).c_str(),
              formatDouble(Seconds > 0 ? Total / Seconds : 0, 5).c_str());

  TablePrinter Table({"kind", "count", "ok", "degraded", "shed", "errors",
                      "p50 ms", "p95 ms", "p99 ms", "max ms"});
  const char *Names[4] = {"estimate", "ingest", "stream", "stream-writer"};
  for (int K = 0; K < 4; ++K) {
    Agg &A = ByKind[K];
    if (A.Count == 0)
      continue;
    std::sort(A.Latencies.begin(), A.Latencies.end());
    Table.addRow({Names[K], std::to_string(A.Count), std::to_string(A.Ok),
                  std::to_string(A.Degraded), std::to_string(A.Shed),
                  std::to_string(A.Errors),
                  msString(percentile(A.Latencies, 0.50)),
                  msString(percentile(A.Latencies, 0.95)),
                  msString(percentile(A.Latencies, 0.99)),
                  msString(A.Latencies.back())});
  }
  std::fputs(Table.str().c_str(), stdout);

  int Exit = 0;
  if (TransportFailed.load()) {
    std::fprintf(stderr, "ptran-bench-client: a connection failed mid-run\n");
    Exit = 1;
  }
  if (ByKind[0].Ok + ByKind[0].Degraded == 0) {
    std::fprintf(stderr, "ptran-bench-client: no estimate ever succeeded\n");
    Exit = 1;
  }
  uint64_t Errors = ByKind[0].Errors + ByKind[1].Errors + ByKind[2].Errors +
                    ByKind[3].Errors;
  if (Errors > 0) {
    std::fprintf(stderr, "ptran-bench-client: %llu request(s) errored\n",
                 static_cast<unsigned long long>(Errors));
    Exit = 1;
  }

  std::string Error;
  if (Opts.ScrapeStats || Opts.Shutdown) {
    int Fd = connectUnix(Opts.SocketPath, Error);
    if (Fd < 0) {
      std::fprintf(stderr, "ptran-bench-client: %s\n", Error.c_str());
      return 1;
    }
    if (Opts.ScrapeStats) {
      WireMessage Req, Resp;
      Req.Verb = "stats";
      if (writeFrame(Fd, Req, Error) && readFrame(Fd, Resp, Error) == 1 &&
          Resp.Verb == "ok")
        std::fputs(Resp.Body.c_str(), stdout);
      else {
        std::fprintf(stderr, "ptran-bench-client: stats scrape failed\n");
        Exit = 1;
      }
    }
    if (Opts.Shutdown) {
      WireMessage Req, Resp;
      Req.Verb = "shutdown";
      if (!writeFrame(Fd, Req, Error) || readFrame(Fd, Resp, Error) != 1 ||
          Resp.Verb != "ok") {
        std::fprintf(stderr, "ptran-bench-client: shutdown failed\n");
        Exit = 1;
      }
    }
    ::close(Fd);
  }
  return Exit;
}
