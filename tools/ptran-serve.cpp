//===--- tools/ptran-serve.cpp - Concurrent estimation daemon -------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived estimation daemon: clients connect over a Unix-domain
/// socket, load mini-language programs into named EstimationSessions, and
/// issue concurrent estimate / run / ingest-profile / capture-profile /
/// stats requests against them (see serve/Protocol.h for the wire format).
///
/// Each connection gets one reader thread that does nothing but frame IO;
/// request bodies execute on one shared ThreadPool. Admission control is a
/// simple in-flight cap: a request arriving while `--queue-limit` are
/// already executing or queued is shed immediately with an `overloaded`
/// error rather than queued behind work it would deadline out of anyway.
/// Per-request deadlines (`deadline-ms`) and step budgets arm a per-call
/// CancelToken inside the session; under the default
/// `--on-deadline=degrade`, a tripped deadline yields a tagged
/// static-frequency answer instead of an error.
///
//===----------------------------------------------------------------------===//

#include "obs/Observability.h"
#include "repl/Replication.h"
#include "repl/Standby.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ptran;
using namespace ptran::serve;

namespace {

const char *UsageText = R"(usage: ptran-serve --socket=PATH [options]

Serves concurrent estimation requests over a Unix-domain socket. See
ptran-bench-client for a load generator speaking the same protocol.

options:
  --socket=PATH          socket path to listen on (required)
  --jobs=N               request worker threads (default 0 = all cores)
  --session-jobs=N       analysis worker threads while a session loads
                         (default 1)
  --queue-limit=N        max in-flight requests before shedding (default 128)
  --memory-budget-mb=N   resident-session memory budget (default 256)
  --max-sessions=N       resident-session count cap (default 64)
  --on-deadline=POLICY   degrade|fail for expired request deadlines
                         (default degrade)
  --step-budget=N        default per-request step budget, 0 = unbounded
                         (default 0)
  --state-dir=DIR        crash-safe state: write-ahead journal + snapshots
                         in DIR; boot replays them (default: ephemeral)
  --flush-interval-ms=N  background flusher cadence: seal stale stream
                         epochs and fsync the journal (default 200)
  --flush-cells=N        pending stream appends that trigger an epoch
                         flush before the timer (default 8192)
  --flush-max-staleness-ms=N
                         seal a stream epoch once its oldest pending
                         append is this old, even before the flush
                         interval; 0 = timer-only (default 0)
  --snapshot-interval-ms=N
                         periodic checkpoint cadence, 0 = only on the
                         `checkpoint` verb and shutdown (default 5000)
  --fsync=POLICY         always|batch|never journal durability
                         (default batch)
  --read-timeout-ms=N    per-frame stall deadline on server connections:
                         a peer that stops mid-frame for this long is
                         dropped with a truncated-frame error; 0 = wait
                         forever (default 30000)
  --standby-of=PATH      run as a warm standby replicating the primary
                         at socket PATH (requires --state-dir); serves
                         reads, refuses writes until promoted via the
                         `promote` verb or SIGUSR1
  --repl-ack=MODE        none|batch|always replication acknowledgement:
                         always = the primary acks a mutation only after
                         a standby fsynced it (default none)
  --stats                print the stats table on shutdown
  --help                 show this help
)";

struct Options {
  std::string SocketPath;
  unsigned Jobs = 0;
  unsigned SessionJobs = 1;
  unsigned QueueLimit = 128;
  uint64_t MemoryBudgetMb = 256;
  unsigned MaxSessions = 64;
  DeadlinePolicy OnDeadline = DeadlinePolicy::Degrade;
  uint64_t StepBudget = 0;
  bool PrintStats = false;
  std::string StateDir;
  unsigned FlushIntervalMs = 200;
  uint64_t FlushCells = 8192;
  unsigned FlushMaxStalenessMs = 0;
  unsigned SnapshotIntervalMs = 5000;
  durable::FsyncPolicy Fsync = durable::FsyncPolicy::Batch;
  unsigned ReadTimeoutMs = 30000;
  std::string StandbyOf;
  repl::AckMode ReplAck = repl::AckMode::None;
};

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  auto Value = [](const std::string &Arg,
                  const std::string &Prefix) -> std::optional<std::string> {
    if (Arg.rfind(Prefix, 0) == 0)
      return Arg.substr(Prefix.size());
    return std::nullopt;
  };
  auto Invalid = [](const std::string &Flag, const std::string &Got,
                    const std::string &Expected) {
    std::fprintf(stderr, "ptran-serve: %s wants %s, got '%s'\n", Flag.c_str(),
                 Expected.c_str(), Got.c_str());
    return false;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::fputs(UsageText, stdout);
      std::exit(0);
    }
    if (Arg == "--stats") {
      Opts.PrintStats = true;
    } else if (auto V = Value(Arg, "--socket=")) {
      Opts.SocketPath = *V;
    } else if (auto V = Value(Arg, "--jobs=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--jobs", *V, "an unsigned integer");
      Opts.Jobs = *N;
    } else if (auto V = Value(Arg, "--session-jobs=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--session-jobs", *V, "an unsigned integer");
      Opts.SessionJobs = *N;
    } else if (auto V = Value(Arg, "--queue-limit=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--queue-limit", *V, "a positive integer");
      Opts.QueueLimit = *N;
    } else if (auto V = Value(Arg, "--memory-budget-mb=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--memory-budget-mb", *V, "a positive integer");
      Opts.MemoryBudgetMb = *N;
    } else if (auto V = Value(Arg, "--max-sessions=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--max-sessions", *V, "a positive integer");
      Opts.MaxSessions = *N;
    } else if (auto V = Value(Arg, "--on-deadline=")) {
      std::string P = toLower(*V);
      if (P == "degrade")
        Opts.OnDeadline = DeadlinePolicy::Degrade;
      else if (P == "fail")
        Opts.OnDeadline = DeadlinePolicy::Fail;
      else
        return Invalid("--on-deadline", *V, "degrade or fail");
    } else if (auto V = Value(Arg, "--step-budget=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--step-budget", *V, "an unsigned integer");
      Opts.StepBudget = *N;
    } else if (auto V = Value(Arg, "--state-dir=")) {
      Opts.StateDir = *V;
    } else if (auto V = Value(Arg, "--flush-interval-ms=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--flush-interval-ms", *V, "a positive integer");
      Opts.FlushIntervalMs = *N;
    } else if (auto V = Value(Arg, "--flush-cells=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N || *N == 0)
        return Invalid("--flush-cells", *V, "a positive integer");
      Opts.FlushCells = *N;
    } else if (auto V = Value(Arg, "--flush-max-staleness-ms=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--flush-max-staleness-ms", *V,
                       "an unsigned integer");
      Opts.FlushMaxStalenessMs = *N;
    } else if (auto V = Value(Arg, "--read-timeout-ms=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--read-timeout-ms", *V, "an unsigned integer");
      Opts.ReadTimeoutMs = *N;
    } else if (auto V = Value(Arg, "--standby-of=")) {
      Opts.StandbyOf = *V;
    } else if (auto V = Value(Arg, "--repl-ack=")) {
      std::optional<repl::AckMode> M = repl::parseAckMode(*V);
      if (!M)
        return Invalid("--repl-ack", *V, "none, batch or always");
      Opts.ReplAck = *M;
    } else if (auto V = Value(Arg, "--snapshot-interval-ms=")) {
      std::optional<unsigned> N = parseUnsigned(*V);
      if (!N)
        return Invalid("--snapshot-interval-ms", *V, "an unsigned integer");
      Opts.SnapshotIntervalMs = *N;
    } else if (auto V = Value(Arg, "--fsync=")) {
      std::string P = toLower(*V);
      if (P == "always")
        Opts.Fsync = durable::FsyncPolicy::Always;
      else if (P == "batch")
        Opts.Fsync = durable::FsyncPolicy::Batch;
      else if (P == "never")
        Opts.Fsync = durable::FsyncPolicy::Never;
      else
        return Invalid("--fsync", *V, "always, batch or never");
    } else {
      std::fprintf(stderr, "ptran-serve: unknown argument '%s'\n%s",
                   Arg.c_str(), UsageText);
      return false;
    }
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "ptran-serve: --socket=PATH is required\n%s",
                 UsageText);
    return false;
  }
  if (!Opts.StandbyOf.empty() && Opts.StateDir.empty()) {
    std::fprintf(stderr,
                 "ptran-serve: --standby-of needs --state-dir=DIR: a "
                 "standby persists the replicated journal so promotion "
                 "inherits a durable history\n");
    return false;
  }
  return true;
}

/// Signal handlers may only touch async-signal-safe state: a flag for the
/// loop, the listener fd (closed so a blocked accept() wakes up) and the
/// write end of the promotion self-pipe.
std::atomic<bool> ShuttingDown{false};
std::atomic<int> ListenFdForSignal{-1};
/// SIGUSR1 = promote this standby: the handler writes one byte here and a
/// watcher thread, blocked reading the other end, does the real work.
/// Shutdown writes a byte too, so the watcher wakes and exits.
std::atomic<int> PromotePipeWr{-1};

void wakePromoteWatcher() {
  int Fd = PromotePipeWr.load();
  if (Fd < 0)
    return;
  int SavedErrno = errno;
  char Byte = 1;
  // The write end is non-blocking: a full pipe already holds a wake-up.
  [[maybe_unused]] ssize_t N = ::write(Fd, &Byte, 1);
  errno = SavedErrno;
}

void requestShutdown() {
  ShuttingDown.store(true);
  int Fd = ListenFdForSignal.exchange(-1);
  if (Fd >= 0) {
    // shutdown(2) — not just close(2) — is what wakes a thread already
    // blocked in accept() on this fd.
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }
  wakePromoteWatcher();
}

void onSignal(int) { requestShutdown(); }

void onPromoteSignal(int) { wakePromoteWatcher(); }

/// Open connections and their threads. Fds are tracked so shutdown can
/// unblock their readers with shutdown(2) (never close(2) from another
/// thread: the fd number could be reused mid-read). A connection's thread
/// is joined at the first start() after it finished, so a daemon under
/// connection churn keeps one thread, and one stack mapping, per open
/// connection rather than one per connection it ever accepted.
class ConnectionRegistry {
public:
  ConnectionRegistry() = default;
  ConnectionRegistry(const ConnectionRegistry &) = delete;
  ConnectionRegistry &operator=(const ConnectionRegistry &) = delete;

  /// Joins the threads of finished connections, then runs \p Serve for
  /// \p Fd on a new thread, which must call finish(Fd) last.
  template <typename Body> void start(int Fd, Body Serve) {
    std::vector<std::jthread> Reaped; // Joined after the lock is released.
    std::lock_guard<std::mutex> L(M);
    for (std::thread::id Id : Finished) {
      auto It = Threads.find(Id);
      Reaped.push_back(std::move(It->second));
      Threads.erase(It);
    }
    Finished.clear();
    Fds.insert(Fd);
    std::jthread T(std::move(Serve));
    std::thread::id Id = T.get_id();
    Threads.emplace(Id, std::move(T));
  }
  /// Called by a connection's thread before it closes \p Fd and returns.
  void finish(int Fd) {
    std::lock_guard<std::mutex> L(M);
    Fds.erase(Fd);
    Finished.push_back(std::this_thread::get_id());
  }
  void shutdownAll() {
    std::lock_guard<std::mutex> L(M);
    for (int Fd : Fds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  /// Joins every connection thread.
  void joinAll() {
    // Joined as it is destroyed, after the lock is released: a finishing
    // thread takes the lock in finish().
    std::map<std::thread::id, std::jthread> All;
    {
      std::lock_guard<std::mutex> L(M);
      All.swap(Threads);
      Finished.clear();
    }
  }

private:
  std::mutex M;
  std::set<int> Fds;
  std::vector<std::thread::id> Finished;
  std::map<std::thread::id, std::jthread> Threads;
};

void serveConnection(int Fd, ServeCore &Core, ThreadPool &Pool,
                     ObsRegistry &Obs, const Options &Opts,
                     std::atomic<unsigned> &InFlight,
                     ConnectionRegistry &Conns,
                     repl::JournalShipper *Shipper) {
  // 0 = wait forever; otherwise a peer stalling mid-frame this long is
  // dropped rather than pinning the reader thread.
  int FrameTimeoutMs =
      Opts.ReadTimeoutMs == 0 ? -1 : static_cast<int>(Opts.ReadTimeoutMs);
  while (!ShuttingDown.load()) {
    WireMessage Request;
    std::string Error;
    int Rc = readFrame(Fd, Request, Error, FrameTimeoutMs);
    if (Rc <= 0) {
      if (Rc < 0 && Error.find("stalled") != std::string::npos) {
        Obs.addCounter("serve.stalled_peers");
        std::fprintf(stderr, "ptran-serve: dropping connection: %s\n",
                     Error.c_str());
      }
      break; // EOF, shutdown wakeup, stall, or a garbled frame.
    }

    WireMessage Resp;
    if (Request.Verb == "shutdown") {
      Resp = Core.handle(Request);
      writeFrame(Fd, Resp, Error);
      requestShutdown();
      break;
    }
    if (Request.Verb == "repl-subscribe") {
      if (!Shipper) {
        Resp = errorResponse("bad-request",
                             "this daemon has no durable state to replicate "
                             "(start it with --state-dir=DIR)");
        writeFrame(Fd, Resp, Error);
        break;
      }
      // The subscription owns this connection thread until the standby
      // disconnects; replication frames bypass the request pool.
      Shipper->runSubscription(Fd, Request);
      break;
    }
    // Admission control: shed instead of queueing past the limit. The
    // counter covers queued *and* executing requests, so a burst beyond
    // pool capacity turns into immediate `overloaded` errors the client
    // can back off on, not a silently growing queue.
    unsigned Current = InFlight.fetch_add(1);
    if (Current >= Opts.QueueLimit) {
      InFlight.fetch_sub(1);
      Obs.addCounter("serve.shed");
      Resp = errorResponse("overloaded",
                           "daemon at its in-flight request limit (" +
                               std::to_string(Opts.QueueLimit) +
                               "); back off and retry");
    } else {
      std::future<void> Done =
          Pool.submit([&] { Resp = Core.handle(Request); });
      Done.get();
      InFlight.fetch_sub(1);
    }
    if (!writeFrame(Fd, Resp, Error))
      break;
  }
  Conns.finish(Fd);
  ::close(Fd);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  int PromotePipe[2] = {-1, -1};
  if (!Opts.StandbyOf.empty()) {
    if (::pipe2(PromotePipe, O_CLOEXEC) != 0 ||
        ::fcntl(PromotePipe[1], F_SETFL, O_NONBLOCK) != 0) {
      std::fprintf(stderr, "ptran-serve: promotion pipe: %s\n",
                   std::strerror(errno));
      return 1;
    }
    PromotePipeWr.store(PromotePipe[1]);
    std::signal(SIGUSR1, onPromoteSignal);
  }

  // Open the state store and replay its journal BEFORE the socket exists:
  // no client can observe a half-restored daemon.
  std::string Error;
  std::unique_ptr<durable::StateStore> Store;
  durable::StateStore::Recovery Recovered;
  if (!Opts.StateDir.empty()) {
    Store = durable::StateStore::open(Opts.StateDir, Opts.Fsync, Recovered,
                                      Error);
    if (!Store) {
      std::fprintf(stderr, "ptran-serve: cannot open --state-dir=%s: %s\n",
                   Opts.StateDir.c_str(), Error.c_str());
      return 1;
    }
    for (const std::string &D : Recovered.SnapshotDiagnostics)
      std::fprintf(stderr, "ptran-serve: recovery: %s\n", D.c_str());
    const durable::DeltaJournal::OpenReport &JR = Recovered.JournalReport;
    if (JR.TailQuarantined)
      std::fprintf(stderr,
                   "ptran-serve: recovery: journal tail quarantined at "
                   "offset %llu (%llu bytes moved to journal.ptwj"
                   ".quarantine): %s\n",
                   static_cast<unsigned long long>(JR.TailOffset),
                   static_cast<unsigned long long>(JR.QuarantinedBytes),
                   JR.TailReason.c_str());
  }

  ObsRegistry Obs;
  // Construction order is circular by nature: ServeOptions carries the
  // shipper (as ReplicationHooks) and the promote callback, but both the
  // shipper and the standby need the ServeCore. The shipper gets the core
  // via setCore() below; the promote lambda reads Standby through a
  // pointer that is filled in before the socket starts accepting.
  std::unique_ptr<repl::JournalShipper> Shipper;
  std::unique_ptr<repl::StandbyReplicator> Standby;
  if (Store) {
    repl::JournalShipper::Options ShipOpts;
    ShipOpts.Store = Store.get();
    ShipOpts.Ack = Opts.ReplAck;
    ShipOpts.Obs = &Obs;
    Shipper = std::make_unique<repl::JournalShipper>(ShipOpts);
  }
  ServeOptions SOpts;
  SOpts.Jobs = Opts.SessionJobs;
  SOpts.MemoryBudgetBytes = Opts.MemoryBudgetMb << 20;
  SOpts.MaxSessions = Opts.MaxSessions;
  SOpts.OnDeadline = Opts.OnDeadline;
  SOpts.DefaultStepBudget = Opts.StepBudget;
  SOpts.Obs = &Obs;
  SOpts.Store = Store.get();
  SOpts.FlushIntervalMs = Opts.FlushIntervalMs;
  SOpts.FlushCellThreshold = Opts.FlushCells;
  SOpts.FlushMaxStalenessMs = Opts.FlushMaxStalenessMs;
  SOpts.SnapshotIntervalMs = Opts.SnapshotIntervalMs;
  SOpts.Repl = Shipper.get();
  if (!Opts.StandbyOf.empty())
    SOpts.Promote = [&Standby](std::string &Err) {
      if (!Standby) {
        Err = "standby replicator not running";
        return false;
      }
      return Standby->promote(Err);
    };
  ServeCore Core(SOpts);
  if (Shipper)
    Shipper->setCore(&Core);

  if (Store) {
    ServeCore::RestoreReport RR;
    Core.restore(Recovered, RR);
    for (const std::string &D : RR.Diagnostics)
      std::fprintf(stderr, "ptran-serve: recovery: %s\n", D.c_str());
    std::fprintf(stderr,
                 "ptran-serve: recovered %u session(s) from %s (%llu "
                 "journal record(s) replayed, %llu covered by snapshots)\n",
                 RR.SessionsRestored, Opts.StateDir.c_str(),
                 static_cast<unsigned long long>(RR.RecordsReplayed),
                 static_cast<unsigned long long>(RR.RecordsSkipped));
    Core.startFlusher();
  }

  // Standby mode: start replicating before the socket opens, so the first
  // client already sees a read-only replica (never a half-role daemon).
  std::thread PromoteWatcher;
  if (!Opts.StandbyOf.empty()) {
    repl::StandbyReplicator::Options ROpts;
    ROpts.PrimarySocket = Opts.StandbyOf;
    ROpts.Core = &Core;
    ROpts.Store = Store.get();
    ROpts.Ack = Opts.ReplAck;
    ROpts.Obs = &Obs;
    Standby = std::make_unique<repl::StandbyReplicator>(ROpts);
    if (!Standby->start(Error)) {
      std::fprintf(stderr, "ptran-serve: cannot start standby: %s\n",
                   Error.c_str());
      return 1;
    }
    PromoteWatcher = std::thread([&Standby, Fd = PromotePipe[0]] {
      char Bytes[64];
      for (;;) {
        // One read drains a burst of signals, so a burst promotes once.
        ssize_t N = ::read(Fd, Bytes, sizeof(Bytes));
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0 || ShuttingDown.load())
          return;
        std::string Err;
        if (Standby->promote(Err))
          std::fprintf(stderr, "ptran-serve: promoted to primary (SIGUSR1)\n");
        else
          std::fprintf(stderr, "ptran-serve: promotion failed: %s\n",
                       Err.c_str());
      }
    });
  }

  int ListenFd = listenUnix(Opts.SocketPath, Error);
  if (ListenFd < 0) {
    std::fprintf(stderr, "ptran-serve: %s\n", Error.c_str());
    requestShutdown(); // A joinable watcher must not outlive main.
    if (PromoteWatcher.joinable())
      PromoteWatcher.join();
    return 1;
  }
  ListenFdForSignal.store(ListenFd);

  ThreadPool Pool(ThreadPool::resolveJobs(Opts.Jobs));
  std::atomic<unsigned> InFlight{0};
  ConnectionRegistry Conns;

  std::fprintf(stderr,
               "ptran-serve: listening on %s (%u workers, queue limit %u%s)\n",
               Opts.SocketPath.c_str(), Pool.workerCount(), Opts.QueueLimit,
               Opts.StandbyOf.empty() ? "" : ", standby");

  while (!ShuttingDown.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // Listener closed by shutdown, or a fatal accept error.
    }
    Conns.start(Fd, [Fd, &Core, &Pool, &Obs, &Opts, &InFlight, &Conns,
                     &Shipper] {
      serveConnection(Fd, Core, Pool, Obs, Opts, InFlight, Conns,
                      Shipper.get());
    });
  }

  requestShutdown();
  if (Shipper)
    Shipper->stop(); // Unblock subscription threads before joining them.
  if (Standby)
    Standby->stop();
  Conns.shutdownAll();
  Conns.joinAll();
  if (PromoteWatcher.joinable())
    PromoteWatcher.join();
  // Graceful shutdown: in-flight requests are drained (threads joined),
  // so this checkpoint captures the final state — the next boot restores
  // from snapshots alone, with an empty journal.
  if (Store) {
    Core.stopFlusher();
    if (!Core.checkpoint(Error))
      std::fprintf(stderr, "ptran-serve: shutdown checkpoint failed: %s\n",
                   Error.c_str());
  }
  ::unlink(Opts.SocketPath.c_str());

  if (Opts.PrintStats)
    std::fputs(Obs.statsTable().c_str(), stdout);
  return 0;
}
