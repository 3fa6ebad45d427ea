//===--- perfbench/loadgen.cpp - Serve benchmark driver -------------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's driver, started by perfbench/run.py. Two modes:
///
///   perfbench-loadgen run   --workload=W --seed=N --seconds=T --serve=EXE
///                           --dir=RUNDIR
///   perfbench-loadgen trace --workload=W --seed=N --seconds=T --serve=EXE
///                           --dir=RUNDIR [--trace-out=FILE]
///
/// `run` spawns the workload's ptran-serve daemon(s) repeatedly to time
/// set-up, keeps the last deployment, drives it closed loop from 4
/// connections for T seconds and then checks every session's answers
/// against an in-process serial replay of the acknowledged mutations.
/// `trace` calls each layer's public entry points directly, records a span
/// around every call and reports per-layer self times. Both print one JSON
/// object as the last line of stdout: {correct, attempted, failed,
/// metrics, provenance, ...}.
///
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "cost/TimeAnalysis.h"
#include "freq/Frequencies.h"
#include "ir/Printer.h"
#include "obs/Observability.h"
#include "parser/Parser.h"
#include "profile/ProfileFile.h"
#include "repl/Replication.h"
#include "repl/Standby.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "session/EstimationSession.h"
#include "stream/DeltaStream.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace ptran;
using namespace ptran::serve;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

Clock::duration seconds(double S) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(S));
}

uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench-loadgen: %s\n", Message.c_str());
  std::exit(2);
}

/// Host-wide CPU ticks from /proc/stat: all of them, and those stolen by
/// the hypervisor for other guests. Recorded with every run because on a
/// shared host steal moves every latency and throughput figure.
struct HostCpu {
  double Total = 0, Steal = 0;
};

HostCpu hostCpu() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  HostCpu H;
  In >> Cpu;
  for (int I = 1; I <= 8; ++I) {
    double V = 0;
    In >> V;
    H.Total += V;
    if (I == 8)
      H.Steal = V;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Workloads and the traffic they generate
//===----------------------------------------------------------------------===//

/// The three traffic mixes. Why each exists is in perfbench/README.md.
struct Workload {
  const char *Name;
  unsigned Sessions;
  bool ManyFunctions; ///< One session of makeManyFunctionProgram(255, 3).
  bool Replicated;    ///< Durable primary plus one --standby-of follower.
};

const Workload Workloads[] = {
    {"hot-estimate", 4, false, false},
    {"profile-churn", 1, true, false},
    {"replicated-writes", 4, false, true},
};

constexpr unsigned Connections = 4;

/// ptran-bench-client's three-function program: call graph and loops
/// enough to exercise the interprocedural pass, small enough that a cached
/// estimate is all request overhead.
const char *SmallSource = R"(      program main
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

std::string programSource(const Workload &W) {
  if (!W.ManyFunctions)
    return SmallSource;
  return printProgram(*makeManyFunctionProgram(255, 3));
}

std::string sessionName(unsigned I) { return "bench-" + std::to_string(I); }

enum Kind : unsigned { Estimate, EstimateBatch, Ingest, Stream, NumKinds };
const char *KindNames[NumKinds] = {"estimate", "estimate-batch",
                                   "ingest-profile", "stream-deltas"};
bool isRead(unsigned K) { return K == Estimate || K == EstimateBatch; }

/// Inputs every request is built from; filled during set-up from the
/// daemon's own answers (the captured profile, the stream cell table).
struct Traffic {
  std::string Source;
  std::vector<std::string> Functions;
  std::string Profile;
  std::vector<std::string> StreamBodies;
  std::vector<unsigned> StreamRecords;
};

struct Request {
  unsigned K = Estimate;
  unsigned Session = 0;
  unsigned Arg = 0; ///< Function index (estimate) or stream body index.
};

/// One connection's request stream. Deterministic in (seed, connection).
class RequestGen {
public:
  RequestGen(const Workload &W, const Traffic &T, uint64_t Seed,
             unsigned Conn)
      : W(W), T(T), R(Seed * 1000003ull + Conn + 1), Phase(R.next() & 1) {}

  Request next() {
    Request Q;
    uint64_t I = Index++;
    if (W.ManyFunctions) {
      // profile-churn: strict alternation of ingest and entry estimate.
      Q.K = (I & 1) == Phase ? Ingest : Estimate;
      Q.Arg = ~0u;
      return Q;
    }
    Q.Session = static_cast<unsigned>(R.uniformInt(0, W.Sessions - 1));
    Q.Arg = static_cast<unsigned>(
        R.uniformInt(0, static_cast<int64_t>(T.Functions.size()) - 1));
    uint64_t Pick = R.uniformInt(0, 15);
    if (!W.Replicated) {
      Q.K = Pick == 0 ? EstimateBatch : Estimate;
      return Q;
    }
    if (Pick < 2)
      Q.K = Ingest;
    else if (Pick < 4) {
      Q.K = Stream;
      Q.Arg = static_cast<unsigned>(
          R.uniformInt(0, static_cast<int64_t>(T.StreamBodies.size()) - 1));
    } else
      Q.K = Estimate;
    return Q;
  }

private:
  const Workload &W;
  const Traffic &T;
  Rng R;
  uint64_t Phase;
  uint64_t Index = 0;
};

WireMessage toWire(const Request &Q, const Traffic &T) {
  WireMessage M;
  M.Params["session"] = sessionName(Q.Session);
  switch (Q.K) {
  case Estimate:
    M.Verb = "estimate";
    if (Q.Arg != ~0u)
      M.Params["function"] = T.Functions[Q.Arg];
    break;
  case EstimateBatch:
    M.Verb = "estimate-batch";
    M.Params["count"] = std::to_string(T.Functions.size());
    for (size_t I = 0; I < T.Functions.size(); ++I)
      M.Params["function." + std::to_string(I)] =
          T.Functions[(I + Q.Arg) % T.Functions.size()];
    break;
  case Ingest:
    M.Verb = "ingest-profile";
    M.Body = T.Profile;
    break;
  case Stream:
    M.Verb = "stream-deltas";
    M.Params["flush"] = "1";
    M.Body = T.StreamBodies[Q.Arg];
    break;
  }
  return M;
}

/// A probe of every function of a session at full precision.
WireMessage probeRequest(unsigned Session, const Traffic &T) {
  Request Q;
  Q.K = EstimateBatch;
  Q.Session = Session;
  return toWire(Q, T);
}

/// Stream bodies drawn from the seed against the daemon's cell table:
/// 16-byte records (u32 function | u32 condition | f64 delta), integer
/// deltas so any fold order sums exactly.
void makeStreamBodies(const std::vector<unsigned> &CondsPerFunction,
                      uint64_t Seed, Traffic &T) {
  Rng R(Seed ^ 0x5eedull);
  T.StreamBodies.clear();
  T.StreamRecords.clear();
  for (unsigned B = 0; B < 16; ++B) {
    std::string Body;
    unsigned Records = 0;
    for (unsigned F = 0; F < CondsPerFunction.size(); ++F) {
      for (unsigned C = 0; C < CondsPerFunction[F]; ++C) {
        bool Last = F + 1 == CondsPerFunction.size() &&
                    C + 1 == CondsPerFunction[F];
        if (R.uniformInt(0, 1) == 0 && !(Body.empty() && Last))
          continue;
        double Delta = static_cast<double>(R.uniformInt(1, 4));
        uint8_t Rec[16];
        uint64_t Bits;
        std::memcpy(&Bits, &Delta, sizeof(Bits));
        for (int I = 0; I < 4; ++I) {
          Rec[I] = static_cast<uint8_t>(F >> (8 * I));
          Rec[4 + I] = static_cast<uint8_t>(C >> (8 * I));
        }
        for (int I = 0; I < 8; ++I)
          Rec[8 + I] = static_cast<uint8_t>(Bits >> (8 * I));
        Body.append(reinterpret_cast<const char *>(Rec), sizeof(Rec));
        ++Records;
      }
    }
    T.StreamBodies.push_back(Body);
    T.StreamRecords.push_back(Records);
  }
}

//===----------------------------------------------------------------------===//
// Daemon processes and connections
//===----------------------------------------------------------------------===//

class Conn {
public:
  explicit Conn(const std::string &Path) { Fd = connectUnix(Path, Error); }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  bool ok() const { return Fd >= 0; }
  std::optional<WireMessage> call(const WireMessage &M) {
    WireMessage Resp;
    if (Fd < 0 || !writeFrame(Fd, M, Error) ||
        readFrame(Fd, Resp, Error) != 1)
      return std::nullopt;
    return Resp;
  }

private:
  int Fd = -1;
  std::string Error;
};

/// A spawned ptran-serve. stop() sends SIGTERM and waits for the exit.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::string &Exe, const std::vector<std::string> &Args,
             const std::string &Log, std::string &Error) {
    Argv = Args;
    std::vector<std::string> Full = {Exe};
    Full.insert(Full.end(), Args.begin(), Args.end());
    std::vector<char *> CArgs;
    for (std::string &A : Full)
      CArgs.push_back(A.data());
    CArgs.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    int Rc = posix_spawn(&Pid, Exe.c_str(), &Actions, nullptr, CArgs.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Pid = -1;
      Error = "cannot spawn " + Exe + ": " + std::strerror(Rc);
      return false;
    }
    return true;
  }

  bool running() {
    if (Pid <= 0)
      return false;
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return false;
    }
    return true;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    for (int I = 0; I < 1000; ++I) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }

  /// Resident set size in KiB from /proc, 0 when unreadable.
  uint64_t rssKb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmRSS:", 0) == 0)
        return std::strtoull(Line.c_str() + 6, nullptr, 10);
    return 0;
  }

  std::vector<std::string> Argv;

private:
  pid_t Pid = -1;
};

bool waitReady(Daemon &D, const std::string &Socket, std::string &Error) {
  auto Deadline = Clock::now() + std::chrono::seconds(60);
  WireMessage Ping;
  Ping.Verb = "ping";
  while (Clock::now() < Deadline) {
    if (!D.running()) {
      Error = "daemon at " + Socket + " exited during start-up";
      return false;
    }
    Conn C(Socket);
    if (C.ok()) {
      std::optional<WireMessage> R = C.call(Ping);
      if (R && R->Verb == "ok")
        return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Error = "daemon at " + Socket + " never answered ping";
  return false;
}

/// `stats` scraped into counters plus the number of retained spans.
struct StatsScrape {
  std::map<std::string, uint64_t> Counters;
  uint64_t Spans = 0;
  bool Ok = false;
  uint64_t counter(const std::string &N) const {
    auto It = Counters.find(N);
    return It == Counters.end() ? 0 : It->second;
  }
  uint64_t counterSum() const {
    uint64_t S = 0;
    for (const auto &KV : Counters)
      S += KV.second;
    return S;
  }
};

StatsScrape scrapeStats(const std::string &Socket) {
  StatsScrape S;
  Conn C(Socket);
  WireMessage Req;
  Req.Verb = "stats";
  std::optional<WireMessage> R = C.call(Req);
  if (!R || R->Verb != "ok")
    return S;
  S.Ok = true;
  bool InCounters = false;
  std::istringstream In(R->Body);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find("=== observability: counters") != std::string::npos)
      InCounters = true;
    if (Line.empty() || Line[0] != '|')
      continue;
    std::vector<std::string> Cells;
    for (const std::string &Cell : split(Line, '|'))
      Cells.emplace_back(trim(Cell));
    // "| a | b |" splits into {"", "a", "b", ""}.
    if (Cells.size() < 4)
      continue;
    const std::string &Name = Cells[1], &Value = Cells[2];
    if (Value.empty() || !std::isdigit(static_cast<unsigned char>(Value[0])))
      continue; // Header row.
    uint64_t V = std::strtoull(Value.c_str(), nullptr, 10);
    if (InCounters)
      S.Counters[Name] = V;
    else
      S.Spans += V;
  }
  return S;
}

/// The workload's daemon(s), spawned, loaded, run and captured.
struct Deployment {
  Daemon Primary, Standby;
  std::string PrimarySocket, StandbySocket;
  bool Replicated = false;
};

std::vector<std::string> primaryFlags(const Workload &W,
                                      const std::string &Dir) {
  std::vector<std::string> F = {"--socket=" + Dir + "/p.sock"};
  if (W.Replicated) {
    F.push_back("--state-dir=" + Dir + "/primary");
    F.push_back("--fsync=batch");
    F.push_back("--repl-ack=always");
  }
  return F;
}

/// The standby takes its own --repl-ack: it ignores the primary's
/// `ok ack=always` and, without the flag, never acks, so every primary
/// write would wait out the 5 s degrade timeout.
std::vector<std::string> standbyFlags(const std::string &Dir) {
  return {"--socket=" + Dir + "/s.sock", "--state-dir=" + Dir + "/standby",
          "--fsync=batch", "--standby-of=" + Dir + "/p.sock",
          "--repl-ack=always"};
}

bool callOk(Conn &C, const WireMessage &M, WireMessage &Resp,
            std::string &Error) {
  std::optional<WireMessage> R = C.call(M);
  if (!R) {
    Error = M.Verb + ": transport failure";
    return false;
  }
  if (R->Verb != "ok") {
    Error = M.Verb + ": " + R->param("code") + " " + R->param("message");
    return false;
  }
  Resp = std::move(*R);
  return true;
}

bool sameAnswers(const std::string &A, const std::string &B,
                 const Workload &W, const Traffic &T, std::string &Error) {
  Conn CA(A), CB(B);
  for (unsigned S = 0; S < W.Sessions; ++S) {
    std::optional<WireMessage> RA = CA.call(probeRequest(S, T));
    std::optional<WireMessage> RB = CB.call(probeRequest(S, T));
    if (!RA || !RB || RA->Verb != "ok" || RB->Verb != "ok" ||
        RA->Params != RB->Params) {
      Error = "session " + sessionName(S) + " answers differ";
      return false;
    }
  }
  return true;
}

bool deploy(const Workload &W, const std::string &Dir, const std::string &Exe,
            uint64_t Seed, Traffic &T, Deployment &D, std::string &Error) {
  ::mkdir(Dir.c_str(), 0755);
  D.Replicated = W.Replicated;
  D.PrimarySocket = Dir + "/p.sock";
  if (!D.Primary.start(Exe, primaryFlags(W, Dir), Dir + "/primary.log",
                       Error) ||
      !waitReady(D.Primary, D.PrimarySocket, Error))
    return false;
  if (W.Replicated) {
    D.StandbySocket = Dir + "/s.sock";
    if (!D.Standby.start(Exe, standbyFlags(Dir), Dir + "/standby.log",
                         Error) ||
        !waitReady(D.Standby, D.StandbySocket, Error))
      return false;
  }
  Conn C(D.PrimarySocket);
  WireMessage Resp;
  for (unsigned S = 0; S < W.Sessions; ++S) {
    WireMessage Load, Run, Capture;
    Load.Verb = "load-program";
    Load.Body = T.Source;
    Run.Verb = "run";
    Capture.Verb = "capture-profile";
    for (WireMessage *M : {&Load, &Run, &Capture}) {
      M->Params["session"] = sessionName(S);
      if (!callOk(C, *M, Resp, Error))
        return false;
    }
    if (S == 0)
      T.Profile = Resp.Body;
  }
  if (W.Replicated) {
    WireMessage Describe;
    Describe.Verb = "stream-deltas";
    Describe.Params["session"] = sessionName(0);
    Describe.Params["describe"] = "1";
    if (!callOk(C, Describe, Resp, Error))
      return false;
    std::vector<unsigned> Conds;
    std::optional<unsigned> Funcs = parseUnsigned(Resp.param("functions"));
    for (unsigned F = 0; Funcs && F < *Funcs; ++F)
      Conds.push_back(
          parseUnsigned(Resp.param("conditions." + std::to_string(F)))
              .value_or(0));
    makeStreamBodies(Conds, Seed, T);
    // Set-up ends when the standby serves the primary's answers.
    auto Deadline = Clock::now() + std::chrono::seconds(60);
    while (!sameAnswers(D.PrimarySocket, D.StandbySocket, W, T, Error)) {
      if (Clock::now() > Deadline)
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Closed-loop load and the correctness gate
//===----------------------------------------------------------------------===//

/// Acknowledged mutations, per session: ingest count and stream-body
/// counts. Ingests and stream folds commute and every count stays below
/// 2^53, so replaying these serially must reproduce the daemon exactly.
struct Ledger {
  std::map<unsigned, uint64_t> Ingests;
  std::map<std::pair<unsigned, unsigned>, uint64_t> Streams;
  void merge(const Ledger &O) {
    for (const auto &KV : O.Ingests)
      Ingests[KV.first] += KV.second;
    for (const auto &KV : O.Streams)
      Streams[KV.first] += KV.second;
  }
};

/// One answered request: its latency and when it completed, both in ns,
/// the latter from the start of the phase.
struct Sample {
  uint64_t Ns = 0;
  uint64_t DoneNs = 0;
};

struct LoadResult {
  std::vector<Sample> ReadNs, WriteNs;
  uint64_t Attempted = 0, Ok = 0, Failed = 0, StreamUpdates = 0;
  bool TransportFailed = false;
  Ledger L;
  void merge(const LoadResult &O) {
    ReadNs.insert(ReadNs.end(), O.ReadNs.begin(), O.ReadNs.end());
    WriteNs.insert(WriteNs.end(), O.WriteNs.begin(), O.WriteNs.end());
    Attempted += O.Attempted;
    Ok += O.Ok;
    Failed += O.Failed;
    StreamUpdates += O.StreamUpdates;
    TransportFailed |= O.TransportFailed;
    L.merge(O.L);
  }
};

void closedLoop(const std::string &Socket, RequestGen &Gen, const Traffic &T,
                Clock::time_point Begin, Clock::time_point Until,
                LoadResult &Out) {
  Conn C(Socket);
  while (Clock::now() < Until) {
    Request Q = Gen.next();
    WireMessage M = toWire(Q, T);
    ++Out.Attempted;
    auto Start = Clock::now();
    std::optional<WireMessage> R = C.call(M);
    auto Done = Clock::now();
    Sample S{nsBetween(Start, Done), nsBetween(Begin, Done)};
    if (!R) {
      // Whether the daemon applied the request is unknown, so the replay
      // cannot be checked; every later request would fail too.
      ++Out.Failed;
      Out.TransportFailed = true;
      return;
    }
    if (R->Verb != "ok" || R->param("degraded") == "1") {
      ++Out.Failed;
      continue;
    }
    ++Out.Ok;
    (isRead(Q.K) ? Out.ReadNs : Out.WriteNs).push_back(S);
    if (Q.K == Ingest)
      ++Out.L.Ingests[Q.Session];
    if (Q.K == Stream) {
      ++Out.L.Streams[{Q.Session, Q.Arg}];
      Out.StreamUpdates += std::strtoull(R->param("appended").c_str(),
                                         nullptr, 10);
    }
  }
}

/// Host steal read at every window boundary of a timed phase. On a shared
/// virtualised host the hypervisor steals the guest's CPUs in bursts of a
/// fraction of a second to a few seconds, and a stolen CPU stalls the
/// chain of threads every request crosses.
struct WindowSampler {
  static constexpr double WidthS = 0.25;
  std::vector<HostCpu> Host;

  unsigned windows() const {
    return Host.size() < 2 ? 0 : static_cast<unsigned>(Host.size() - 1);
  }
  unsigned of(const Sample &S) const {
    return std::min(windows() - 1,
                    static_cast<unsigned>(S.DoneNs / (WidthS * 1e9)));
  }
  double stealShare(unsigned W) const {
    return (Host[W + 1].Steal - Host[W].Steal) /
           std::max(1.0, Host[W + 1].Total - Host[W].Total);
  }
  /// The windows the figures come from: every window with at most 2 %
  /// steal, or the quietest quarter when fewer qualify. The rest is
  /// interference from other guests.
  std::vector<bool> quiet() const {
    std::vector<unsigned> Order(windows());
    for (unsigned W = 0; W < windows(); ++W)
      Order[W] = W;
    std::stable_sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      return stealShare(A) < stealShare(B);
    });
    std::vector<bool> Keep(windows(), false);
    for (unsigned I = 0; I < windows(); ++I)
      Keep[Order[I]] = 4 * I < windows() || stealShare(Order[I]) <= 0.02;
    return Keep;
  }
};

LoadResult runLoad(const std::string &Socket, std::vector<RequestGen> &Gens,
                   const Traffic &T, double Seconds,
                   WindowSampler *Sampler = nullptr) {
  std::vector<LoadResult> Per(Gens.size());
  auto Begin = Clock::now();
  auto Until = Begin + seconds(Seconds);
  {
    std::jthread SamplerThread;
    if (Sampler)
      SamplerThread = std::jthread([&] {
        unsigned Windows = std::max(1.0, std::ceil(Seconds / Sampler->WidthS));
        for (unsigned K = 0; K <= Windows; ++K) {
          std::this_thread::sleep_until(Begin + seconds(K * Sampler->WidthS));
          Sampler->Host.push_back(hostCpu());
        }
      });
    std::vector<std::jthread> Threads;
    for (size_t I = 0; I < Gens.size(); ++I)
      Threads.emplace_back(
          [&, I] { closedLoop(Socket, Gens[I], T, Begin, Until, Per[I]); });
  }
  LoadResult All;
  for (const LoadResult &R : Per)
    All.merge(R);
  return All;
}

/// Replays \p L serially on an in-process ServeCore built like the
/// daemon's sessions and compares every session's full-precision probe
/// with \p Socket's. False with \p Error on the first difference.
bool gate(const Workload &W, const Traffic &T, const Ledger &L,
          const std::string &Socket, std::string &Error) {
  ServeOptions Opts;
  ServeCore Ref(Opts);
  WireMessage Resp;
  auto Do = [&](WireMessage M) {
    Resp = Ref.handle(M);
    if (Resp.Verb != "ok") {
      Error = "replay " + M.Verb + " failed: " + Resp.param("message");
      return false;
    }
    return true;
  };
  for (unsigned S = 0; S < W.Sessions; ++S) {
    WireMessage Load, Run;
    Load.Verb = "load-program";
    Load.Body = T.Source;
    Load.Params["session"] = sessionName(S);
    Run.Verb = "run";
    Run.Params["session"] = sessionName(S);
    if (!Do(Load) || !Do(Run))
      return false;
  }
  for (const auto &[S, N] : L.Ingests)
    for (uint64_t I = 0; I < N; ++I)
      if (!Do(toWire(Request{Ingest, S, 0}, T)))
        return false;
  for (const auto &[Key, N] : L.Streams)
    for (uint64_t I = 0; I < N; ++I)
      if (!Do(toWire(Request{Stream, Key.first, Key.second}, T)))
        return false;
  Conn C(Socket);
  for (unsigned S = 0; S < W.Sessions; ++S) {
    WireMessage Want = Ref.handle(probeRequest(S, T));
    std::optional<WireMessage> Got = C.call(probeRequest(S, T));
    if (!Got || Got->Params != Want.Params) {
      Error = "session " + sessionName(S) + " at " + Socket +
              " differs from the serial replay";
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double percentileMs(std::vector<uint64_t> &Ns, double P) {
  if (Ns.empty())
    return 0;
  std::sort(Ns.begin(), Ns.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Ns.size()));
  return static_cast<double>(Ns[std::max<size_t>(Rank, 1) - 1]) / 1e6;
}

std::string firstLine(const std::string &Path, const std::string &Key) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line
                                        : std::string(trim(Line.substr(
                                              Colon + 1)));
    }
  return "unknown";
}

struct Report {
  bool Correct = true;
  std::string Why;
  uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, std::string> Extra; ///< Pre-rendered JSON values.

  void set(const std::string &Name, double Value, const char *Unit,
           uint64_t Samples) {
    Metrics[Name] = Metric{Value, Unit, Samples};
  }

  void print(const Workload &W, uint64_t Seed, double Seconds,
             const std::string &Mode,
             const std::map<std::string, std::vector<std::string>> &Flags) {
    utsname U{};
    ::uname(&U);
    std::string Out = "{\"correct\": ";
    Out += Correct ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"why\": " + jsonString(Why);
    Out += ", \"metrics\": {";
    bool First = true;
    for (const auto &[Name, M] : Metrics) {
      Out += First ? "" : ", ";
      First = false;
      Out += jsonString(Name) + ": {\"value\": " + jsonNumber(M.Value) +
             ", \"unit\": " + jsonString(M.Unit) +
             ", \"samples\": " + std::to_string(M.Samples) + "}";
    }
    Out += "}, \"provenance\": {";
    Out += "\"workload\": " + jsonString(W.Name);
    Out += ", \"mode\": " + jsonString(Mode);
    Out += ", \"seed\": " + std::to_string(Seed);
    Out += ", \"seconds\": " + jsonNumber(Seconds);
    Out += ", \"connections\": " + std::to_string(Connections);
    Out += ", \"machine\": " +
           jsonString(std::string(U.sysname) + " " + U.release + " " +
                      U.machine + ", " +
                      firstLine("/proc/cpuinfo", "model name"));
    Out += ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    Out += ", \"compiler\": " + jsonString(PERFBENCH_COMPILER);
    Out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
    Out += ", \"daemon_flags\": {";
    First = true;
    for (const auto &[Role, Args] : Flags) {
      Out += First ? "" : ", ";
      First = false;
      Out += jsonString(Role) + ": [";
      for (size_t I = 0; I < Args.size(); ++I)
        Out += (I ? ", " : "") + jsonString(Args[I]);
      Out += "]";
    }
    Out += "}}";
    for (const auto &[Key, Json] : Extra)
      Out += ", " + jsonString(Key) + ": " + Json;
    Out += "}";
    std::printf("%s\n", Out.c_str());
    std::fflush(stdout);
  }
};

struct Args {
  std::string Mode;
  const Workload *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Serve, Dir, TraceOut;
};

/// Set-ups are timed at least MinSetups times and until they have taken
/// MinSetupS in all; `setup_s` and `setup_rss_mb` are their medians. The
/// time floor gives the 5 ms set-up of hot-estimate ~150 samples: with 11,
/// its per-run median spread 0.15-0.38 between runs.
constexpr unsigned MinSetups = 11;
constexpr double MinSetupS = 1.0;

//===----------------------------------------------------------------------===//
// run: end-to-end metrics from untraced closed-loop traffic
//===----------------------------------------------------------------------===//

int runMode(const Args &A) {
  const Workload &W = *A.W;
  Traffic T;
  T.Source = programSource(W);
  {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> P = parseProgram(T.Source, Diags);
    if (!P)
      die("workload program does not parse: " + Diags.str());
    for (const auto &F : P->functions())
      T.Functions.push_back(F->name());
  }

  Report Rep;
  std::vector<double> SetupS, SetupRssMb;
  std::unique_ptr<Deployment> D;
  std::string Error;
  double SetupTotalS = 0;
  for (unsigned I = 0; I < MinSetups || SetupTotalS < MinSetupS; ++I) {
    D.reset(); // Stop the previous deployment before timing the next.
    D = std::make_unique<Deployment>();
    auto Start = Clock::now();
    if (!deploy(W, A.Dir + "/setup-" + std::to_string(I), A.Serve, A.Seed, T,
                *D, Error))
      die("set-up failed: " + Error);
    SetupS.push_back(secondsBetween(Start, Clock::now()));
    SetupTotalS += SetupS.back();
    SetupRssMb.push_back(static_cast<double>(D->Primary.rssKb()) / 1024.0);
  }

  std::vector<RequestGen> Gens;
  for (unsigned C = 0; C < Connections; ++C)
    Gens.emplace_back(W, T, A.Seed, C);
  // Warm-up: first estimates fill the session caches and the daemon's
  // threads and allocator reach their steady state before timing. It also
  // absorbs the first seconds of load after an idle spell, which on a
  // shared virtualised host see less steal and run faster than the rest.
  LoadResult Warm = runLoad(D->PrimarySocket, Gens, T,
                            std::min(5.0, A.Seconds / 4));
  StatsScrape Before = scrapeStats(D->PrimarySocket);
  uint64_t RssBefore = D->Primary.rssKb();
  WindowSampler Sampler;
  auto Start = Clock::now();
  LoadResult Load = runLoad(D->PrimarySocket, Gens, T, A.Seconds, &Sampler);
  double Elapsed = secondsBetween(Start, Clock::now());
  uint64_t RssAfter = D->Primary.rssKb();
  StatsScrape After = scrapeStats(D->PrimarySocket);
  if (!Before.Ok || !After.Ok)
    die("stats scrape failed");

  // Writes the daemon answered `ok` but whose durability degraded.
  uint64_t Degraded =
      After.counter("repl.ack_timeouts") - Before.counter("repl.ack_timeouts") +
      After.counter("durable.append_failures") -
      Before.counter("durable.append_failures");
  uint64_t Failed = Load.Failed + Degraded;
  Rep.Attempted = Load.Attempted;
  Rep.Failed = Failed;

  Ledger All = Warm.L;
  All.merge(Load.L);
  if (Warm.TransportFailed || Load.TransportFailed) {
    Rep.Correct = false;
    Rep.Why = "a connection failed mid-run";
  } else if (!gate(W, T, All, D->PrimarySocket, Error)) {
    Rep.Correct = false;
    Rep.Why = Error;
  } else if (W.Replicated) {
    auto Deadline = Clock::now() + std::chrono::seconds(30);
    while (!sameAnswers(D->PrimarySocket, D->StandbySocket, W, T, Error) &&
           Clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!sameAnswers(D->PrimarySocket, D->StandbySocket, W, T, Error)) {
      Rep.Correct = false;
      Rep.Why = "standby: " + Error;
    }
  }

  // Latency and throughput figures come from the quiet windows; RSS
  // growth, failures and stream updates from the whole phase.
  std::vector<bool> Quiet = Sampler.quiet();
  std::vector<uint64_t> ReadNs, WriteNs;
  for (const Sample &S : Load.ReadNs)
    if (Quiet[Sampler.of(S)])
      ReadNs.push_back(S.Ns);
  for (const Sample &S : Load.WriteNs)
    if (Quiet[Sampler.of(S)])
      WriteNs.push_back(S.Ns);
  unsigned QuietWindows = 0;
  double QuietSteal = 0, AllSteal = 0;
  for (unsigned Win = 0; Win < Sampler.windows(); ++Win) {
    AllSteal += Sampler.stealShare(Win) / Sampler.windows();
    if (Quiet[Win]) {
      ++QuietWindows;
      QuietSteal += Sampler.stealShare(Win);
    }
  }
  double QuietS = QuietWindows * WindowSampler::WidthS;
  uint64_t QuietReqs = ReadNs.size() + WriteNs.size();

  Rep.set("setup_s", median(SetupS), "s", SetupS.size());
  Rep.set("setup_rss_mb", median(SetupRssMb), "MB", SetupRssMb.size());
  Rep.set("throughput_rps", QuietReqs / QuietS, "1/s", QuietReqs);
  Rep.set("read_p50_ms", percentileMs(ReadNs, 0.50), "ms", ReadNs.size());
  Rep.set("read_p99_ms", percentileMs(ReadNs, 0.99), "ms", ReadNs.size());
  if (!WriteNs.empty()) {
    Rep.set("write_p50_ms", percentileMs(WriteNs, 0.50), "ms",
            WriteNs.size());
    Rep.set("write_p99_ms", percentileMs(WriteNs, 0.99), "ms",
            WriteNs.size());
  }
  if (W.Replicated)
    Rep.set("stream_updates_per_s", Load.StreamUpdates / Elapsed, "1/s",
            Load.StreamUpdates);
  // How clean the run was: host steal over all windows and the kept ones.
  Rep.Extra["host_steal"] =
      "{\"all_windows\": " + jsonNumber(AllSteal) +
      ", \"quiet_windows\": " + jsonNumber(QuietSteal / QuietWindows) +
      ", \"windows\": " + std::to_string(Sampler.windows()) +
      ", \"kept\": " + std::to_string(QuietWindows) + "}";
  Rep.set("rss_growth_kb_per_kreq",
          (static_cast<double>(RssAfter) - static_cast<double>(RssBefore)) /
              (static_cast<double>(Load.Attempted) / 1000.0),
          "KiB/kreq", Load.Attempted);
  Rep.set("failed_share",
          static_cast<double>(Failed) / static_cast<double>(Load.Attempted),
          "ratio", Load.Attempted);

  std::map<std::string, std::vector<std::string>> Flags = {
      {"primary", D->Primary.Argv}};
  if (W.Replicated)
    Flags["standby"] = D->Standby.Argv;
  D.reset();
  Rep.print(W, A.Seed, A.Seconds, "run", Flags);
  return 0;
}

//===----------------------------------------------------------------------===//
// trace: per-layer self times from direct calls into each layer
//===----------------------------------------------------------------------===//

/// Spans kept in memory and written out when the run ends. A span's self
/// time is its duration minus the durations of its child spans.
class Tracer {
public:
  struct SpanRec {
    const char *Name;
    uint64_t Req = 0;
    int64_t Parent = -1;
    uint64_t StartNs = 0, EndNs = 0;
  };

  explicit Tracer(bool On) : On(On), Epoch(Clock::now()) {}

  /// Records a finished span and returns its id, the parent of spans
  /// added after it. Disabled: one branch.
  int64_t add(const char *Name, uint64_t Req, int64_t Parent,
              Clock::time_point Start, Clock::time_point End) {
    if (!On)
      return -1;
    Spans.push_back(
        {Name, Req, Parent, nsBetween(Epoch, Start), nsBetween(Epoch, End)});
    return static_cast<int64_t>(Spans.size()) - 1;
  }
  /// Calls \p F inside a span.
  template <typename Fn>
  auto span(const char *Name, uint64_t Req, int64_t Parent, Fn &&F) {
    struct Closer {
      Tracer &T;
      const char *Name;
      uint64_t Req;
      int64_t Parent;
      Clock::time_point Start;
      ~Closer() { T.add(Name, Req, Parent, Start, Clock::now()); }
    } C{*this, Name, Req, Parent, Clock::now()};
    return F();
  }

  /// Self nanoseconds and span count per name.
  std::map<std::string, std::pair<uint64_t, uint64_t>> selfByName() const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const SpanRec &S : Spans)
      if (S.Parent >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    std::map<std::string, std::pair<uint64_t, uint64_t>> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      auto &E = Out[Spans[I].Name];
      uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
      E.first += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
      ++E.second;
    }
    return Out;
  }

  /// Durations (ns) of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const SpanRec &S : Spans)
      if (Name == S.Name)
        Out.push_back(static_cast<double>(S.EndNs - S.StartNs));
    return Out;
  }

  bool writeChromeTrace(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"traceEvents\": [";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      Out << (I ? ",\n" : "\n") << "{\"name\": " << jsonString(S.Name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << S.StartNs / 1000.0 << ", \"dur\": "
          << (S.EndNs - S.StartNs) / 1000.0 << ", \"args\": {\"req\": "
          << S.Req << ", \"id\": " << I << ", \"parent\": " << S.Parent
          << "}}";
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

  void reserve(size_t N) {
    if (On)
      Spans.reserve(Spans.size() + N);
  }

private:
  bool On;
  Clock::time_point Epoch;
  std::vector<SpanRec> Spans;
};

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / V.size();
}

/// Accepts shipper subscriptions over socketpairs the way the daemon's
/// accept loop does, one thread per connection.
class SubscriptionServer {
public:
  explicit SubscriptionServer(repl::JournalShipper &S) : Shipper(S) {}
  ~SubscriptionServer() {
    Shipper.stop();
    std::lock_guard<std::mutex> L(Mu);
    for (std::thread &T : Threads)
      T.join();
  }
  SubscriptionServer(const SubscriptionServer &) = delete;
  SubscriptionServer &operator=(const SubscriptionServer &) = delete;
  int connect(std::string &Error) {
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) < 0) {
      Error = "socketpair failed";
      return -1;
    }
    std::lock_guard<std::mutex> L(Mu);
    Threads.emplace_back([this, Fd = Sv[0]] {
      WireMessage Sub;
      std::string Err;
      if (readFrame(Fd, Sub, Err) == 1 && Sub.Verb == "repl-subscribe")
        Shipper.runSubscription(Fd, Sub);
      ::close(Fd);
    });
    return Sv[1];
  }

private:
  repl::JournalShipper &Shipper;
  std::mutex Mu;
  std::vector<std::thread> Threads;
};

/// The serve -> repl boundary: forwards to the shipper and times every
/// durability wait. ServeCore::handle calls it on a pool thread; the
/// thread that owns the tracer collects the waits with drain().
class TracedHooks : public ReplicationHooks {
public:
  explicit TracedHooks(ReplicationHooks &Inner) : Inner(Inner) {}
  void onAppend(uint64_t Lsn) override { Inner.onAppend(Lsn); }
  bool waitDurable(uint64_t Lsn) override {
    auto Start = Clock::now();
    bool Ok = Inner.waitDurable(Lsn);
    std::lock_guard<std::mutex> L(Mu);
    Waits.emplace_back(Start, Clock::now());
    return Ok;
  }
  uint64_t minSubscriberLsn() override { return Inner.minSubscriberLsn(); }

  /// Adds the waits since the last drain as repl.ack_wait spans.
  void drain(Tracer &Tr, uint64_t Req, int64_t Parent) {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &[Start, End] : Waits)
      Tr.add("repl.ack_wait", Req, Parent, Start, End);
    Waits.clear();
  }

private:
  ReplicationHooks &Inner;
  std::mutex Mu;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Waits;
};

/// An in-process ServeCore configured like the workload's primary: an
/// ephemeral core, or a durable one (--fsync=batch) shipping to a standby
/// core over a socketpair with ack=always. It runs no background flusher.
class InProcessServer {
public:
  InProcessServer(const Workload &W, const std::string &Dir) {
    ServeOptions Opts;
    Opts.Obs = &Obs;
    if (W.Replicated) {
      ::mkdir(Dir.c_str(), 0755);
      std::string Error;
      durable::StateStore::Recovery RecP, RecS;
      StoreP = durable::StateStore::open(
          Dir + "/p", durable::FsyncPolicy::Batch, RecP, Error);
      StoreS = durable::StateStore::open(
          Dir + "/s", durable::FsyncPolicy::Batch, RecS, Error);
      if (!StoreP || !StoreS)
        die("state store open failed: " + Error);
      repl::JournalShipper::Options ShipOpts;
      ShipOpts.Store = StoreP.get();
      ShipOpts.Ack = repl::AckMode::Always;
      Shipper = std::make_unique<repl::JournalShipper>(ShipOpts);
      Subs = std::make_unique<SubscriptionServer>(*Shipper);
      Hooks = std::make_unique<TracedHooks>(*Shipper);
      Opts.Store = StoreP.get();
      Opts.Repl = Hooks.get();
    }
    Core = std::make_unique<ServeCore>(Opts);
    if (!W.Replicated)
      return;
    Shipper->setCore(Core.get());
    ServeOptions SOpts;
    SOpts.Store = StoreS.get();
    SOpts.Obs = &StandbyObs;
    StandbyCore = std::make_unique<ServeCore>(SOpts);
    StandbyCore->setReadOnly(true);
    repl::StandbyReplicator::Options ROpts;
    ROpts.Core = StandbyCore.get();
    ROpts.Store = StoreS.get();
    ROpts.Ack = repl::AckMode::Always;
    ROpts.Obs = &StandbyObs;
    ROpts.Backoff = RetryPolicy().retries(1u << 30).baseDelay(
        std::chrono::milliseconds(1));
    ROpts.Connect = [this](std::string &Err) { return Subs->connect(Err); };
    Replica = std::make_unique<repl::StandbyReplicator>(ROpts);
    std::string Error;
    if (!Replica->start(Error))
      die("standby start failed: " + Error);
  }
  ~InProcessServer() {
    if (Replica)
      Replica->stop();
    Replica.reset();
    StandbyCore.reset();
    Subs.reset();
    Core.reset();
    Hooks.reset();
    Shipper.reset();
  }
  InProcessServer(const InProcessServer &) = delete;
  InProcessServer &operator=(const InProcessServer &) = delete;

  WireMessage handle(const WireMessage &M) { return Core->handle(M); }

  /// Waits until the standby subscribed and applied the whole journal:
  /// before that the shipper's waitDurable returns at once (no live
  /// subscriber), which is not the steady state being measured.
  void awaitStandby() {
    if (!Replica)
      return;
    auto Deadline = Clock::now() + std::chrono::seconds(30);
    while (Shipper->subscriberCount() == 0 ||
           Replica->lastAppliedLsn() < StoreP->journal().lastLsn()) {
      if (Clock::now() > Deadline)
        die("in-process standby never caught up");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Records the durability waits since the last call (none when the
  /// core is ephemeral).
  void drainWaits(Tracer &Tr, uint64_t Req, int64_t Parent) {
    if (Hooks)
      Hooks->drain(Tr, Req, Parent);
  }

  /// Journal records per batch the standby applied.
  double recordsPerBatch() const {
    uint64_t Batches = StandbyObs.counterValue("repl.batches_applied");
    return Batches ? static_cast<double>(
                         StandbyObs.counterValue("repl.records_applied")) /
                         Batches
                   : 0;
  }

  ObsRegistry Obs, StandbyObs;
  std::unique_ptr<durable::StateStore> StoreP, StoreS;
  std::unique_ptr<repl::JournalShipper> Shipper;
  std::unique_ptr<SubscriptionServer> Subs;
  std::unique_ptr<TracedHooks> Hooks;
  std::unique_ptr<ServeCore> Core;
  std::unique_ptr<ServeCore> StandbyCore;
  std::unique_ptr<repl::StandbyReplicator> Replica;
};

void setUpInProcess(const Workload &W, const Traffic &T,
                    InProcessServer &S) {
  for (unsigned I = 0; I < W.Sessions; ++I) {
    WireMessage Load, Run;
    Load.Verb = "load-program";
    Load.Body = T.Source;
    Load.Params["session"] = sessionName(I);
    Run.Verb = "run";
    Run.Params["session"] = sessionName(I);
    if (S.handle(Load).Verb != "ok" || S.handle(Run).Verb != "ok")
      die("in-process set-up failed");
  }
  S.awaitStandby();
  Tracer Discard(false);
  S.drainWaits(Discard, 0, -1);
}

/// Runs \p Seq through \p S the way the daemon serves one connection: the
/// client thread writes each request frame; a connection thread reads it,
/// submits ServeCore::handle to a pool sized like the daemon's, waits, and
/// writes the response frame back. Per request the client records the
/// request span with children serve.wire (out: client write to connection
/// read; back: connection write to client read), serve.core.queue (pool
/// submit to start) and serve.core (handle; repl.ack_wait below it).
/// writeFrame and readFrame run the codec inside: encodeFrame +
/// decodeFrame of the same messages, timed after each request as
/// serve.protocol children of the wire spans, split that share out of the
/// wire's self time. Fills each request's client-side duration and the
/// part of it the layers' spans cover (all but the connection thread's
/// wake-up after the pool). Calls \p Before(I) ahead of request I.
/// Returns false when a response is not `ok`.
bool pipeline(InProcessServer &S, ThreadPool &Pool,
              const std::vector<Request> &Seq, const Traffic &T, Tracer &Tr,
              std::vector<double> &TotalNs, std::vector<double> &LayersNs,
              const std::function<void(uint64_t)> &Before) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) < 0)
    die("socketpair failed");
  struct Stamps {
    Clock::time_point ReadDone, Started, Finished, WriteStart;
    bool Ok = false;
  };
  std::mutex Mu;
  Stamps Shared; // Written before the response frame, read after it.
  std::jthread Connection([&] {
    std::string Error;
    for (size_t I = 0; I < Seq.size(); ++I) {
      WireMessage Got, Resp;
      if (readFrame(Fds[1], Got, Error) != 1)
        die("wire: " + Error);
      Stamps St;
      St.ReadDone = Clock::now();
      Pool.submit([&] {
            St.Started = Clock::now();
            Resp = S.handle(Got);
            St.Finished = Clock::now();
          })
          .get();
      St.Ok = Resp.Verb == "ok";
      St.WriteStart = Clock::now();
      {
        std::lock_guard<std::mutex> L(Mu);
        Shared = St;
      }
      if (!writeFrame(Fds[1], Resp, Error))
        die("wire: " + Error);
    }
  });
  std::string Error;
  bool AllOk = true;
  for (uint64_t I = 0; I < Seq.size(); ++I) {
    Before(I);
    WireMessage M = toWire(Seq[I], T), Back;
    auto Start = Clock::now();
    if (!writeFrame(Fds[0], M, Error) || readFrame(Fds[0], Back, Error) != 1)
      die("wire: " + Error);
    auto Done = Clock::now();
    Stamps St;
    {
      std::lock_guard<std::mutex> L(Mu);
      St = Shared;
    }
    AllOk &= St.Ok;
    TotalNs.push_back(static_cast<double>(nsBetween(Start, Done)));
    LayersNs.push_back(static_cast<double>(nsBetween(Start, St.Finished) +
                                           nsBetween(St.WriteStart, Done)));
    int64_t Root = Tr.add(KindNames[Seq[I].K], I, -1, Start, Done);
    int64_t Out = Tr.add("serve.wire", I, Root, Start, St.ReadDone);
    Tr.add("serve.core.queue", I, Root, St.ReadDone, St.Started);
    int64_t Core = Tr.add("serve.core", I, Root, St.Started, St.Finished);
    S.drainWaits(Tr, I, Core);
    int64_t In = Tr.add("serve.wire", I, Root, St.WriteStart, Done);
    for (auto [Msg, Wire] : {std::pair{&M, Out}, std::pair{&Back, In}}) {
      auto Bytes = Tr.span("serve.protocol", I, Wire,
                           [&] { return encodeFrame(*Msg, Error); });
      if (!Bytes || !Tr.span("serve.protocol", I, Wire, [&] {
            return decodeFrame(Bytes->data(), Bytes->size(), Error);
          }))
        die("protocol: " + Error);
    }
  }
  Connection.join();
  ::close(Fds[0]);
  ::close(Fds[1]);
  return AllOk;
}

/// One EstimationSession per workload session, built like ServeCore's.
struct SoloSession {
  std::unique_ptr<Program> Prog;
  DiagnosticEngine Diags;
  std::unique_ptr<EstimationSession> Session;
  std::unique_ptr<CounterDeltaStream> Stream;
};

std::unique_ptr<SoloSession> makeSolo(const std::string &Source,
                                      Tracer *Tr) {
  auto S = std::make_unique<SoloSession>();
  static Tracer Off(false);
  Tracer &T = Tr ? *Tr : Off;
  S->Prog = T.span("parser", 0, -1,
                   [&] { return parseProgram(Source, S->Diags); });
  if (!S->Prog)
    die("program does not parse");
  T.span("core", 0, -1, [&] {
    return ProgramAnalysis::compute(*S->Prog, S->Diags);
  });
  EstimatorOptions EOpts(S->Diags);
  EOpts.jobs(1).onDeadline(DeadlinePolicy::Degrade);
  S->Session = EstimationSession::create(*S->Prog, CostModel(), EOpts);
  if (!S->Session)
    die("session create failed");
  RunResult R =
      T.span("interp", 0, -1, [&] { return S->Session->profiledRun(); });
  if (!R.Ok)
    die("profiled run failed: " + R.Error);
  return S;
}

/// The write records a workload's mutations journal, read back from a
/// scratch store. Workloads without writes use replicated-writes' mix.
std::vector<durable::DurableRecord>
writeRecords(const Workload &W, const Traffic &T, uint64_t Seed,
             const std::string &Dir) {
  const Workload &Mix = (W.Replicated || W.ManyFunctions) ? W : Workloads[2];
  ::mkdir(Dir.c_str(), 0755);
  std::string Error;
  {
    durable::StateStore::Recovery Rec;
    auto Store = durable::StateStore::open(Dir, durable::FsyncPolicy::Never,
                                           Rec, Error);
    if (!Store)
      die("state store open failed: " + Error);
    ServeOptions Opts;
    Opts.Store = Store.get();
    ServeCore Core(Opts);
    WireMessage Load, Run;
    Load.Verb = "load-program";
    Load.Body = T.Source;
    Load.Params["session"] = sessionName(0);
    Run.Verb = "run";
    Run.Params["session"] = sessionName(0);
    Core.handle(Load);
    Core.handle(Run);
    RequestGen Gen(Mix, T, Seed, 99);
    unsigned Writes = 0;
    while (Writes < 32) {
      Request Q = Gen.next();
      if (isRead(Q.K))
        continue;
      Q.Session = 0;
      if (Core.handle(toWire(Q, T)).Verb != "ok")
        die("scratch write failed");
      ++Writes;
    }
  }
  durable::StateStore::Recovery Rec;
  auto Store =
      durable::StateStore::open(Dir, durable::FsyncPolicy::Never, Rec, Error);
  if (!Store)
    die("state store reopen failed: " + Error);
  std::vector<durable::DurableRecord> Out;
  for (durable::DurableRecord &R : Rec.Records)
    if (R.Type == durable::RecordType::ProfileIngest ||
        R.Type == durable::RecordType::EpochFold)
      Out.push_back(std::move(R));
  if (Out.empty())
    die("no write records journaled");
  return Out;
}

int traceMode(const Args &A) {
  const Workload &W = *A.W;
  Report Rep;
  Tracer Tr(true);
  double Phase = std::max(0.5, A.Seconds * 0.25);

  // -- Set-up layers: parser, core (ProgramAnalysis), interp. -----------
  Traffic T;
  T.Source = programSource(W);
  std::vector<double> ParseMs, AnalysisMs, RunMs;
  std::vector<std::unique_ptr<SoloSession>> Solo;
  for (unsigned I = 0; I < 3; ++I) {
    Tracer Setup(true);
    auto S = makeSolo(T.Source, &Setup);
    ParseMs.push_back(Setup.durations("parser")[0] / 1e6);
    AnalysisMs.push_back(Setup.durations("core")[0] / 1e6);
    RunMs.push_back(Setup.durations("interp")[0] / 1e6);
  }
  for (unsigned I = 0; I < W.Sessions; ++I)
    Solo.push_back(makeSolo(T.Source, nullptr));
  for (const auto &F : Solo[0]->Prog->functions())
    T.Functions.push_back(F->name());
  Rep.set("parser.parse_ms", median(ParseMs), "ms", ParseMs.size());
  Rep.set("analysis.program_ms", median(AnalysisMs), "ms", AnalysisMs.size());
  Rep.set("interp.profiled_run_ms", median(RunMs), "ms", RunMs.size());

  // -- Client-observed single-connection latency against the daemon. ---
  std::string Error;
  auto D = std::make_unique<Deployment>();
  if (!deploy(W, A.Dir + "/trace", A.Serve, A.Seed, T, *D, Error))
    die("set-up failed: " + Error);
  std::map<std::string, std::vector<std::string>> Flags = {
      {"primary", D->Primary.Argv}};
  if (W.Replicated)
    Flags["standby"] = D->Standby.Argv;
  std::vector<Request> Seq;
  StatsScrape Before = scrapeStats(D->PrimarySocket);
  {
    RequestGen Gen(W, T, A.Seed, 0);
    Conn C(D->PrimarySocket);
    auto Until = Clock::now() + seconds(Phase);
    while (Clock::now() < Until || Seq.size() < 8) {
      Request Q = Gen.next();
      std::optional<WireMessage> R = C.call(toWire(Q, T));
      Seq.push_back(Q);
      ++Rep.Attempted;
      if (!R || R->Verb != "ok")
        ++Rep.Failed;
    }
  }
  StatsScrape After = scrapeStats(D->PrimarySocket);
  double N = static_cast<double>(Seq.size());
  // The closing `stats` request bumps serve.requests once itself.
  Rep.set("obs.bumps_per_req",
          (static_cast<double>(After.counterSum()) - Before.counterSum() - 1) /
              N,
          "count", Seq.size());
  Rep.set("obs.spans_retained_per_kreq",
          (static_cast<double>(After.Spans) - Before.Spans) / N * 1000.0,
          "count", Seq.size());

  // Stream bodies for layers the workload's own traffic does not reach,
  // drawn against a solo session's cell table (the daemon's is the same).
  if (T.StreamBodies.empty()) {
    Solo[0]->Stream = CounterDeltaStream::create(*Solo[0]->Session);
    std::vector<unsigned> Conds;
    for (unsigned F = 0; F < Solo[0]->Stream->numFunctions(); ++F)
      Conds.push_back(Solo[0]->Stream->numConditions(F));
    makeStreamBodies(Conds, A.Seed, T);
  }

  // -- The same sequence through each layer in process, untraced then
  //    traced; both must end with the daemon's exact answers. The traced
  //    pass takes turns with a fresh deployment, 16 requests each, so the
  //    client-observed latency its layers are checked against is measured
  //    under the same host conditions. ----------------------------------
  constexpr uint64_t Turn = 16;
  ThreadPool Pool(ThreadPool::resolveJobs(0));
  // Per request, client-side: untraced, traced, the traced layers, and
  // the paired daemon's latency.
  std::vector<double> PipelineNs[2], LayersNs, ObservedNs, Unused;
  double RecordsPerBatch = 0;
  Traffic PairT = T;
  auto Pair = std::make_unique<Deployment>();
  if (!deploy(W, A.Dir + "/pair", A.Serve, A.Seed, PairT, *Pair, Error))
    die("set-up failed: " + Error);
  auto PairC = std::make_unique<Conn>(Pair->PrimarySocket);
  const std::function<void(uint64_t)> Unpaired = [](uint64_t) {};
  const std::function<void(uint64_t)> Observe = [&](uint64_t From) {
    if (From % Turn)
      return;
    for (uint64_t I = From; I < std::min<uint64_t>(From + Turn, Seq.size());
         ++I) {
      auto Start = Clock::now();
      std::optional<WireMessage> R = PairC->call(toWire(Seq[I], T));
      ObservedNs.push_back(
          static_cast<double>(nsBetween(Start, Clock::now())));
      ++Rep.Attempted;
      if (!R || R->Verb != "ok")
        ++Rep.Failed;
    }
  };
  for (int Traced = 0; Traced < 2; ++Traced) {
    Tracer Off(false);
    Tracer &PT = Traced ? Tr : Off;
    InProcessServer S(W, A.Dir + "/inproc-" + std::to_string(Traced));
    setUpInProcess(W, T, S);
    PT.reserve(Seq.size() * 12);
    bool Ok = pipeline(S, Pool, Seq, T, PT, PipelineNs[Traced],
                       Traced ? LayersNs : Unused,
                       Traced ? Observe : Unpaired);
    Rep.Attempted += Seq.size();
    if (!Ok) {
      ++Rep.Failed;
      Rep.Correct = false;
      Rep.Why = "an in-process request failed";
    }
    // The paired daemon has the whole sequence once the traced pass ends.
    std::vector<std::string> Daemons = {D->PrimarySocket};
    if (Traced)
      Daemons.push_back(Pair->PrimarySocket);
    for (const std::string &Socket : Daemons) {
      Conn C(Socket);
      for (unsigned I = 0; I < W.Sessions; ++I) {
        std::optional<WireMessage> Got = C.call(probeRequest(I, T));
        if (!Got || Got->Params != S.handle(probeRequest(I, T)).Params) {
          Rep.Correct = false;
          Rep.Why = "in-process answers differ from the daemon's";
        }
      }
    }
    if (Traced && W.Replicated)
      RecordsPerBatch = S.recordsPerBatch();
  }
  PairC.reset();
  Pair.reset();
  D.reset();
  Rep.set("trace.overhead", median(PipelineNs[1]) / median(PipelineNs[0]),
          "ratio", Seq.size());

  // -- Session, profile and stream layers on solo sessions, same
  //    sequence; ChildNs[I] is what request I spent in them. -------------
  std::vector<uint8_t> ProfileBytes(T.Profile.begin(), T.Profile.end());
  std::vector<double> ChildNs(Seq.size(), 0);
  uint64_t Reads = 0, Evaluations = 0, Hits = 0, StreamRecs = 0;
  const uint64_t Solo0 = 1u << 30; // Request ids of calls outside Seq.
  auto SoloIngest = [&](SoloSession &S, uint64_t Req) {
    std::optional<ProfileFile> PF = Tr.span("profile.decode", Req, -1, [&] {
      return ProfileFile::deserialize(ProfileBytes, nullptr);
    });
    if (!PF)
      die("captured profile does not decode");
    ProfileIngestReport R = Tr.span("session.ingest", Req, -1, [&] {
      return S.Session->ingestProfile(*PF);
    });
    if (!R.Ok)
      die("solo ingest failed: " + R.Error);
  };
  auto StreamFold = [&](SoloSession &S, unsigned BodyIdx, uint64_t Req) {
    if (!S.Stream)
      S.Stream = CounterDeltaStream::create(*S.Session);
    const std::string &Body = T.StreamBodies[BodyIdx];
    Tr.span("stream.append", Req, -1, [&] {
      CounterDeltaStream::Writer Wr = S.Stream->acquireWriter();
      for (size_t Off = 0; Off + 16 <= Body.size(); Off += 16) {
        uint32_t F, C;
        double Delta;
        std::memcpy(&F, Body.data() + Off, 4);
        std::memcpy(&C, Body.data() + Off + 4, 4);
        std::memcpy(&Delta, Body.data() + Off + 8, 8);
        Wr.add(F, C, Delta);
      }
      return 0;
    });
    StreamRecs += T.StreamRecords[BodyIdx];
    Tr.span("stream.flush", Req, -1, [&] { return S.Stream->flush(); });
  };
  for (uint64_t I = 0; I < Seq.size(); ++I) {
    const Request &Q = Seq[I];
    SoloSession &S = *Solo[Q.Session];
    auto Start = Clock::now();
    if (isRead(Q.K)) {
      std::vector<EstimateRequest> Reqs;
      if (Q.K == Estimate)
        Reqs.emplace_back(Q.Arg == ~0u ? std::string() : T.Functions[Q.Arg]);
      else
        for (const std::string &F : T.Functions)
          Reqs.emplace_back(F);
      uint64_t HitsBefore = S.Session->cacheHits();
      Tr.span("session.estimate", I, -1,
              [&] { return S.Session->estimate(Reqs); });
      ++Reads;
      Evaluations += S.Session->lastEvaluations();
      Hits += S.Session->cacheHits() - HitsBefore;
    } else if (Q.K == Ingest) {
      SoloIngest(S, I);
    } else {
      StreamFold(S, Q.Arg, I);
    }
    ChildNs[I] = static_cast<double>(nsBetween(Start, Clock::now()));
  }
  // Layers the sequence never reached still get measured, on session 0.
  for (unsigned I = 0; I < 32 && Tr.durations("session.ingest").size() < 32;
       ++I)
    SoloIngest(*Solo[0], Solo0);
  for (unsigned I = 0; I < 32 && Tr.durations("stream.flush").size() < 32;
       ++I)
    StreamFold(*Solo[0], I % T.StreamBodies.size(), Solo0);

  // Sweeps over session 0's current counters: recovery (profile layer),
  // then the TIME/VAR pass (cost layer).
  {
    EstimationSession &S = *Solo[0]->Session;
    const ProgramAnalysis &PA = S.estimator().analysis();
    for (unsigned Rep2 = 0; Rep2 < 7; ++Rep2) {
      std::map<const Function *, Frequencies> Freqs;
      Tr.span("profile.recover", Solo0 + 1, -1, [&] {
        for (const auto &F : S.program().functions()) {
          FrequencyTotals Totals = S.estimator().totalsFor(*F);
          if (Totals.Ok)
            Freqs[F.get()] = computeFrequencies(PA.of(*F), Totals);
        }
        return 0;
      });
      Tr.span("cost.timevar", Solo0 + 1, -1, [&] {
        return TimeAnalysis::run(PA, Freqs, CostModel());
      });
    }
  }

  // Session lock: the sequence's session calls from 1 and then 4 threads
  // on one session; the extra per-call time under contention is waiting.
  double PerCallNs[2] = {0, 0};
  for (int Contended = 0; Contended < 2; ++Contended) {
    unsigned Threads = Contended ? Connections : 1;
    std::atomic<uint64_t> Calls{0};
    auto Until = Clock::now() + seconds(Phase / 2);
    auto Start = Clock::now();
    {
      std::vector<std::jthread> Ts;
      for (unsigned Th = 0; Th < Threads; ++Th)
        Ts.emplace_back([&, Th] {
          std::optional<ProfileFile> PF =
              ProfileFile::deserialize(ProfileBytes, nullptr);
          for (uint64_t I = Th; Clock::now() < Until; I += Threads) {
            const Request &Q = Seq[I % Seq.size()];
            if (Q.K == Ingest)
              Solo[0]->Session->ingestProfile(*PF);
            else
              Solo[0]->Session->estimate(EstimateRequest(
                  Q.Arg == ~0u || Q.K == Stream ? std::string()
                                                : T.Functions[Q.Arg]));
            Calls.fetch_add(1, std::memory_order_relaxed);
          }
        });
    }
    PerCallNs[Contended] =
        secondsBetween(Start, Clock::now()) * 1e9 * Threads / Calls.load();
  }

  // -- Durable layer: the workload's own write records, appended to a
  //    --fsync=batch journal with the flusher's sync after each. --------
  std::vector<durable::DurableRecord> Records =
      writeRecords(W, T, A.Seed, A.Dir + "/records");
  double BytesPerWrite = 0;
  {
    std::string DDir = A.Dir + "/durable";
    ::mkdir(DDir.c_str(), 0755);
    durable::StateStore::Recovery Rec;
    auto Store = durable::StateStore::open(DDir, durable::FsyncPolicy::Batch,
                                           Rec, Error);
    if (!Store)
      die("state store open failed: " + Error);
    uint64_t Bytes0 = Store->journal().sizeBytes();
    uint64_t Appends = 0;
    auto Until = Clock::now() + seconds(Phase / 2);
    while (Clock::now() < Until || Appends < Records.size()) {
      const durable::DurableRecord &R = Records[Appends % Records.size()];
      if (!Tr.span("durable.append", Solo0 + 2, -1,
                   [&] { return Store->journal().append(R, Error); }))
        die("journal append failed: " + Error);
      if (!Tr.span("durable.sync", Solo0 + 2, -1,
                   [&] { return Store->journal().sync(Error); }))
        die("journal sync failed: " + Error);
      ++Appends;
      if (Appends == Records.size())
        BytesPerWrite =
            static_cast<double>(Store->journal().sizeBytes() - Bytes0) /
            Appends;
    }
  }

  // -- Repl layer for an ephemeral workload: its write traffic through a
  //    replicated in-process pair (replicated-writes' mix when it has no
  //    writes of its own). The replicated workload measured it above. ---
  if (!W.Replicated) {
    Workload ReplW = W;
    ReplW.Replicated = true;
    const Workload &Mix = W.ManyFunctions ? W : Workloads[2];
    InProcessServer S(ReplW, A.Dir + "/repl");
    setUpInProcess(ReplW, T, S);
    RequestGen Gen(Mix, T, A.Seed, Connections);
    uint64_t Writes = 0;
    auto Until = Clock::now() + seconds(Phase / 2);
    while (Clock::now() < Until || Writes < 8) {
      Request Q = Gen.next();
      if (S.handle(toWire(Q, T)).Verb != "ok")
        die("replicated in-process request failed");
      S.drainWaits(Tr, Solo0 + 3, -1);
      Writes += !isRead(Q.K);
    }
    RecordsPerBatch = S.recordsPerBatch();
  }

  // -- Obs: addCounter with every connection thread contending. ---------
  double AddCounterNs = 0;
  {
    ObsRegistry Reg;
    constexpr uint64_t PerThread = 200000;
    auto Start = Clock::now();
    {
      std::vector<std::jthread> Ts;
      for (unsigned Th = 0; Th < Connections; ++Th)
        Ts.emplace_back([&] {
          for (uint64_t I = 0; I < PerThread; ++I)
            Reg.addCounter("serve.requests");
        });
    }
    AddCounterNs = secondsBetween(Start, Clock::now()) * 1e9 / PerThread;
    if (Reg.counterValue("serve.requests") != PerThread * Connections)
      die("counter lost updates");
  }

  // -- Summaries. -------------------------------------------------------
  auto Self = Tr.selfByName();
  auto SelfNs = [&](const std::string &Name) {
    auto It = Self.find(Name);
    return It == Self.end() ? 0.0 : static_cast<double>(It->second.first);
  };
  auto Count = [&](const std::string &Name) -> uint64_t {
    auto It = Self.find(Name);
    return It == Self.end() ? 0 : It->second.second;
  };
  // Per-call layer times are reported as medians; the accounting of
  // ServeCore::handle's self time needs means.
  auto MeanUs = [&](const char *Name) {
    return mean(Tr.durations(Name)) / 1e3;
  };
  auto MedianUs = [&](const char *Name) {
    return median(Tr.durations(Name)) / 1e3;
  };
  uint64_t NReq = Seq.size();
  // ServeCore::handle's self time: its span minus the repl.ack_wait child
  // spans, minus what the same requests spent in the session, profile and
  // stream layers, and, when durable, one journal append per write.
  double ChildTotal = 0;
  for (uint64_t I = 0; I < NReq; ++I)
    ChildTotal += ChildNs[I] + (W.Replicated && !isRead(Seq[I].K)
                                    ? MeanUs("durable.append") * 1e3
                                    : 0);
  Rep.set("serve.wire.us_per_req", SelfNs("serve.wire") / NReq / 1e3, "us",
          NReq);
  Rep.set("serve.protocol.us_per_req", SelfNs("serve.protocol") / NReq / 1e3,
          "us", NReq);
  Rep.set("serve.core.self_us_per_req",
          (SelfNs("serve.core") - ChildTotal) / NReq / 1e3, "us", NReq);
  Rep.set("serve.core.queue_wait_us", MedianUs("serve.core.queue"), "us",
          Count("serve.core.queue"));
  Rep.set("session.estimate_us", MedianUs("session.estimate"), "us",
          Count("session.estimate"));
  Rep.set("session.ingest_us", MedianUs("session.ingest"), "us",
          Count("session.ingest"));
  Rep.set("session.lock_wait_us", (PerCallNs[1] - PerCallNs[0]) / 1e3, "us",
          2);
  Rep.set("session.evaluations_per_read",
          Reads ? static_cast<double>(Evaluations) / Reads : 0, "count",
          Reads);
  Rep.set("session.cache_hit_ratio",
          Reads ? static_cast<double>(Hits) / Reads : 0, "ratio", Reads);
  Rep.set("cost.timevar_us", MedianUs("cost.timevar"), "us",
          Count("cost.timevar"));
  Rep.set("profile.decode_us", MedianUs("profile.decode"), "us",
          Count("profile.decode"));
  Rep.set("profile.recover_us", MedianUs("profile.recover"), "us",
          Count("profile.recover"));
  Rep.set("stream.append_ns", SelfNs("stream.append") / StreamRecs, "ns",
          StreamRecs);
  Rep.set("stream.flush_us", MedianUs("stream.flush"), "us",
          Count("stream.flush"));
  Rep.set("durable.append_us", MedianUs("durable.append"), "us",
          Count("durable.append"));
  Rep.set("durable.sync_us", MedianUs("durable.sync"), "us",
          Count("durable.sync"));
  Rep.set("durable.bytes_per_write", BytesPerWrite, "B", Records.size());
  Rep.set("repl.ack_wait_us", MedianUs("repl.ack_wait"), "us",
          Count("repl.ack_wait"));
  Rep.set("repl.records_per_batch", RecordsPerBatch, "count", 1);
  Rep.set("obs.add_counter_ns", AddCounterNs, "ns",
          200000ull * Connections);

  // Coverage per verb: the median, over the verb's requests, of the summed
  // self times of the traced pipeline's layer spans (serve.wire,
  // serve.protocol, serve.core.queue, serve.core and repl.ack_wait below
  // it) against the median latency the paired daemon showed for the same
  // requests. The solo session, profile, stream and journal figures are
  // carved out of serve.core's span, so adding them back gives the same
  // sum. Overall, each verb weighs by its request count. Outside the
  // margin, overall or for one verb, the layers no longer explain the
  // daemon's latency: the run fails.
  auto CheckCoverage = [&](const std::string &Name, double C) {
    if (C >= 0.67 && C <= 1.5)
      return;
    Rep.Correct = false;
    Rep.Why = Name + " = " + jsonNumber(C) + " is outside 0.67-1.5";
  };
  std::string Coverage = "{";
  double SumLayers = 0, SumObserved = 0;
  for (unsigned K = 0; K < NumKinds; ++K) {
    std::vector<double> Observed, Layers;
    for (uint64_t I = 0; I < NReq; ++I)
      if (Seq[I].K == K) {
        Observed.push_back(ObservedNs[I]);
        Layers.push_back(LayersNs[I]);
      }
    if (Observed.empty())
      continue;
    double L = median(Layers), O = median(Observed);
    CheckCoverage("trace.coverage[" + std::string(KindNames[K]) + "]", L / O);
    SumLayers += L * Layers.size();
    SumObserved += O * Observed.size();
    Coverage += std::string(Coverage.size() > 1 ? ", " : "") +
                jsonString(KindNames[K]) +
                ": {\"coverage\": " + jsonNumber(L / O) +
                ", \"observed_us\": " + jsonNumber(O / 1e3) +
                ", \"layers_us\": " + jsonNumber(L / 1e3) +
                ", \"requests\": " + std::to_string(Observed.size()) + "}";
  }
  Coverage += "}";
  CheckCoverage("trace.coverage", SumLayers / SumObserved);
  Rep.set("trace.coverage", SumLayers / SumObserved, "ratio", NReq);
  Rep.Extra["coverage_by_verb"] = Coverage;

  if (!A.TraceOut.empty() && !Tr.writeChromeTrace(A.TraceOut))
    die("cannot write " + A.TraceOut);
  Rep.print(W, A.Seed, A.Seconds, "trace", Flags);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  if (Argc < 2)
    return false;
  A.Mode = Argv[1];
  if (A.Mode != "run" && A.Mode != "trace")
    return false;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> std::optional<std::string> {
      if (Arg.rfind(Prefix, 0) == 0)
        return Arg.substr(std::strlen(Prefix));
      return std::nullopt;
    };
    if (auto V = Value("--workload=")) {
      for (const Workload &W : Workloads)
        if (*V == W.Name)
          A.W = &W;
      if (!A.W)
        return false;
    } else if (auto V = Value("--seed=")) {
      A.Seed = std::strtoull(V->c_str(), nullptr, 10);
    } else if (auto V = Value("--seconds=")) {
      std::optional<double> S = parseDouble(*V);
      if (!S || *S <= 0)
        return false;
      A.Seconds = *S;
    } else if (auto V = Value("--serve=")) {
      A.Serve = *V;
    } else if (auto V = Value("--dir=")) {
      A.Dir = *V;
    } else if (auto V = Value("--trace-out=")) {
      A.TraceOut = *V;
    } else {
      return false;
    }
  }
  return A.W && !A.Serve.empty() && !A.Dir.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench-loadgen run|trace --workload=NAME "
                 "--seed=N --seconds=T --serve=PTRAN_SERVE --dir=RUNDIR "
                 "[--trace-out=FILE]\n");
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  ::mkdir(A.Dir.c_str(), 0755);
  return A.Mode == "run" ? runMode(A) : traceMode(A);
}
