//===--- serve/Server.cpp - Concurrent estimation daemon core -------------===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "parser/Parser.h"
#include "support/Bytes.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

using namespace ptran;
using namespace ptran::serve;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Full-precision double rendering: responses round-trip exactly, so the
/// serve_test can memcmp concurrent answers against serial references.
static std::string preciseDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Writes one estimate answer into \p Resp, each key followed by
/// \p Suffix (empty for `estimate`, `.I` for batch entry I).
static void putEstimate(WireMessage &Resp, const EstimateResult &R,
                        const std::string &Function,
                        const std::string &Suffix) {
  Resp.Params["function" + Suffix] = R.F ? R.F->name() : Function;
  Resp.Params["time" + Suffix] = preciseDouble(R.Time);
  Resp.Params["var" + Suffix] = preciseDouble(R.Var);
  Resp.Params["stddev" + Suffix] = preciseDouble(R.StdDev);
  Resp.Params["degraded" + Suffix] = R.Degraded ? "1" : "0";
  Resp.Params["quarantined" + Suffix] = R.Quarantined ? "1" : "0";
  if (R.Degraded)
    Resp.Params["degrade-reason" + Suffix] = R.DegradeReason;
  if (R.Quarantined)
    Resp.Params["quarantine-reason" + Suffix] = R.QuarantineReason;
}

/// The position of \p Text (any case) in \p Names. A choice parameter
/// lists its names in enumerator order, so the position is the enum's
/// value: the u32 that SessionCreate records and snapshots keep.
static std::optional<uint32_t>
parseChoice(const std::string &Text,
            std::initializer_list<std::string_view> Names) {
  const std::string Lower = toLower(Text);
  uint32_t I = 0;
  for (std::string_view Name : Names) {
    if (Lower == Name)
      return I;
    ++I;
  }
  return std::nullopt;
}

static std::optional<LoopVarianceMode>
parseLoopVariance(const std::string &Text) {
  if (std::optional<uint32_t> I =
          parseChoice(Text, {"zero", "profiled", "geometric", "uniform"}))
    return static_cast<LoopVarianceMode>(*I);
  return std::nullopt;
}

/// The registry's size heuristic for one loaded program: a fixed per-
/// session floor (analyses, plan, runtime) plus the source text plus a
/// per-statement charge covering CFG/interval/FCDG/summary state.
static uint64_t sessionMemoryBytes(const std::string &Source,
                                   const Program &P) {
  uint64_t Stmts = 0;
  for (const auto &F : P.functions())
    Stmts += F->numStmts();
  return 96 * 1024 + Source.size() + Stmts * 2048;
}

/// Largest accepted `deadline-ms` (about 31.7 years). The budget in
/// nanoseconds, added to the steady clock's now(), must stay inside
/// int64_t; a larger request is refused instead of wrapping into the past.
static constexpr double MaxDeadlineMs = 1e12;

/// Arms \p Token from the request's `deadline-ms` / `step-budget`
/// parameters, the only place that reads them. Returns false (with an
/// error response in \p Resp) on a malformed or unrepresentable value;
/// sets \p Armed when any bound was installed.
static bool armRequestToken(const WireMessage &Request, uint64_t DefaultSteps,
                            CancelToken &Token, bool &Armed,
                            WireMessage &Resp) {
  Armed = false;
  if (Request.hasParam("deadline-ms")) {
    const std::string Text = Request.param("deadline-ms");
    std::optional<double> Ms = parseDouble(Text);
    if (!Ms || *Ms < 0) {
      Resp = errorResponse("bad-request",
                           "deadline-ms wants a non-negative number, got '" +
                               Text + "'");
      return false;
    }
    if (*Ms > MaxDeadlineMs) {
      Resp = errorResponse("bad-request",
                           "deadline-ms " + Text +
                               " exceeds the limit of 1e12 ms (about 31 "
                               "years)");
      return false;
    }
    Token.setDeadlineIn(std::chrono::nanoseconds(
        static_cast<int64_t>(*Ms * 1e6)));
    Armed = true;
  }
  uint64_t Steps = DefaultSteps;
  if (Request.hasParam("step-budget")) {
    std::optional<unsigned> S = parseUnsigned(Request.param("step-budget"));
    if (!S) {
      Resp = errorResponse("bad-request", "step-budget wants an unsigned "
                                          "integer, got '" +
                                              Request.param("step-budget") +
                                              "'");
      return false;
    }
    Steps = *S;
  }
  if (Steps > 0) {
    Token.setStepBudget(Steps);
    Armed = true;
  }
  return true;
}

/// The highest journal LSN the request running on this thread appended
/// or depends on (0 = none yet). journalAppend and waitForLastFold raise
/// it; handle() clears it before the
/// handler runs and, after the handler released its locks, waits once
/// for a standby to report it durable. Appends made outside handle() (the
/// background flusher, a bootstrap capture) answer no client and wait for
/// nothing themselves; a request whose stream deltas such a fold sealed
/// waits for it through waitForLastFold.
static thread_local uint64_t RequestLsn = 0;

//===----------------------------------------------------------------------===//
// ServeCore
//===----------------------------------------------------------------------===//

ServeCore::Counters::Counters(ObsRegistry *Obs)
    : Requests(registerCounter(Obs, "serve.requests")),
      Errors(registerCounter(Obs, "serve.errors")),
      ReadOnlyRejects(registerCounter(Obs, "serve.read-only-rejects")),
      Evictions(registerCounter(Obs, "serve.evictions")),
      Promotions(registerCounter(Obs, "serve.promotions")),
      Loads(registerCounter(Obs, "serve.loads")),
      Runs(registerCounter(Obs, "serve.runs")),
      Estimates(registerCounter(Obs, "serve.estimates")),
      EstimateBatches(registerCounter(Obs, "serve.estimate-batches")),
      StreamDeltas(registerCounter(Obs, "serve.stream-deltas")),
      Ingests(registerCounter(Obs, "serve.ingests")),
      Captures(registerCounter(Obs, "serve.captures")),
      Checkpoints(registerCounter(Obs, "serve.checkpoints")),
      StalenessFlushes(registerCounter(Obs, "stream.staleness_flushes")),
      AppendFailures(registerCounter(Obs, "durable.append_failures")),
      DurableCheckpoints(registerCounter(Obs, "durable.checkpoints")),
      AckTimeouts(registerCounter(Obs, "repl.ack_timeouts")),
      RotationsDeferred(registerCounter(Obs, "repl.rotations_deferred")),
      BootstrapsServed(registerCounter(Obs, "repl.bootstraps_served")),
      BatchesApplied(registerCounter(Obs, "repl.batches_applied")),
      RecordsApplied(registerCounter(Obs, "repl.records_applied")) {}

unsigned ServeCore::sessionCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return static_cast<unsigned>(Sessions.size());
}

uint64_t ServeCore::residentBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return TotalBytes;
}

std::shared_ptr<ServeCore::SessionEntry>
ServeCore::findSession(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sessions.find(Name);
  if (It == Sessions.end())
    return nullptr;
  It->second->LastUsed = ++Clock;
  return It->second;
}

std::vector<std::shared_ptr<ServeCore::SessionEntry>>
ServeCore::residentEntries() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<std::shared_ptr<SessionEntry>> Entries;
  for (const auto &[Name, Entry] : Sessions)
    Entries.push_back(Entry);
  return Entries;
}

void ServeCore::evictLocked(const SessionEntry *Keep) {
  // A standby never evicts on its own: its registry must track the
  // primary's byte-for-byte, and only a replicated SessionEvict record
  // (applied through applyRecord, not here) removes a session. Budget
  // pressure on a replica is a capacity-planning problem, not a
  // correctness lever.
  if (isReadOnly())
    return;
  while (Sessions.size() > 1 &&
         (TotalBytes > Opts.MemoryBudgetBytes ||
          Sessions.size() > Opts.MaxSessions)) {
    auto Victim = Sessions.end();
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It) {
      if (It->second.get() == Keep)
        continue;
      if (Victim == Sessions.end() ||
          It->second->LastUsed < Victim->second->LastUsed)
        Victim = It;
    }
    if (Victim == Sessions.end())
      break;
    // In-flight requests on the victim keep their shared_ptr; the
    // registry just forgets the name, and the entry dies with its last
    // reference.
    durable::DurableRecord R;
    R.Type = durable::RecordType::SessionEvict;
    R.Session = Victim->first;
    TotalBytes -= Victim->second->MemBytes;
    Sessions.erase(Victim);
    journalAppend(R);
    Ctr.Evictions.add();
  }
}

//===----------------------------------------------------------------------===//
// The verb table and dispatch
//===----------------------------------------------------------------------===//

static bool always(const WireMessage &) { return true; }
static bool never(const WireMessage &) { return false; }
/// stream-deltas describe=1 is a read: it only serves the cell-address
/// table.
static bool unlessDescribe(const WireMessage &Request) {
  return Request.param("describe") != "1";
}

/// One request verb. Mutates says whether a request changes state a
/// standby must only take from the primary's journal; NeedsSession makes
/// handle() resolve `session=` first; AcceptsDeadline makes it arm the
/// request's `deadline-ms` / `step-budget` token.
struct ServeCore::Verb {
  const char *Name;
  Handler ServeCore::*Serve;
  bool (*Mutates)(const WireMessage &Request);
  bool NeedsSession;
  bool AcceptsDeadline;
};

/// Scanned in order on every request, so the hot reads come first.
/// `shutdown` also stops the daemon from its connection loop, and
/// `repl-subscribe` never reaches the core: both act on the connection.
const ServeCore::Verb ServeCore::Verbs[] = {
    {"estimate", &ServeCore::handleEstimate, never, true, true},
    {"estimate-batch", &ServeCore::handleEstimateBatch, never, true, true},
    {"stream-deltas", &ServeCore::handleStreamDeltas, unlessDescribe, true,
     false},
    {"ingest-profile", &ServeCore::handleIngestProfile, always, true, true},
    {"capture-profile", &ServeCore::handleCaptureProfile, never, true, false},
    {"run", &ServeCore::handleRun, always, true, false},
    {"load-program", &ServeCore::handleLoadProgram, always, false, false},
    {"checkpoint", &ServeCore::handleCheckpoint, always, false, false},
    {"stats", &ServeCore::handleStats, never, false, false},
    {"ping", &ServeCore::handlePing, never, false, false},
    {"shutdown", &ServeCore::handlePing, never, false, false},
    {"promote", &ServeCore::handlePromote, never, false, false},
};

std::vector<std::string_view> ServeCore::verbNames() {
  std::vector<std::string_view> Names;
  for (const Verb &V : Verbs)
    Names.push_back(V.Name);
  return Names;
}

WireMessage ServeCore::handle(const WireMessage &Request) {
  Ctr.Requests.add();
  const Verb *V = std::find_if(
      std::begin(Verbs), std::end(Verbs),
      [&](const Verb &Row) { return Row.Name == Request.Verb; });
  std::shared_ptr<SessionEntry> Entry;
  CancelToken Token;
  bool Armed = false;
  WireMessage Resp;
  RequestLsn = 0;
  if (V == std::end(Verbs)) {
    Resp = errorResponse("bad-request", "unknown verb '" + Request.Verb + "'");
  } else if (isReadOnly() && V->Mutates(Request)) {
    // A standby answers reads and refuses every state change with a
    // structured error the client can route on (retry against the
    // primary, or wait for promotion).
    Ctr.ReadOnlyRejects.add();
    Resp = errorResponse("read-only",
                         "this daemon is a standby replica: '" +
                             Request.Verb +
                             "' mutates state, which only the primary "
                             "accepts until this replica is promoted");
  } else if (V->NeedsSession &&
             !(Entry = findSession(Request.param("session")))) {
    Resp = errorResponse("unknown-session", "no session named '" +
                                                Request.param("session") +
                                                "'");
  } else if (!V->AcceptsDeadline ||
             armRequestToken(Request, Opts.DefaultStepBudget, Token, Armed,
                             Resp)) {
    Resp = (this->*V->Serve)(Request, Entry.get(), Armed ? &Token : nullptr);
  }
  // The request's one durability wait (--repl-ack=always), with no
  // ServeCore lock held: a slow standby stalls only this client, and one
  // ack releases every concurrent writer at or below its LSN.
  if (uint64_t Lsn = std::exchange(RequestLsn, 0);
      Lsn && Opts.Repl && !Opts.Repl->waitDurable(Lsn))
    Ctr.AckTimeouts.add();
  if (Resp.Verb == "error")
    Ctr.Errors.add();
  return Resp;
}

WireMessage ServeCore::handlePing(const WireMessage &, SessionEntry *,
                                  CancelToken *) {
  return okResponse();
}

WireMessage ServeCore::handlePromote(const WireMessage &, SessionEntry *,
                                     CancelToken *) {
  if (!Opts.Promote)
    return errorResponse("bad-request",
                         "this daemon is not a standby (start ptran-serve "
                         "with --standby-of=SOCKET to replicate)");
  std::string Err;
  if (!Opts.Promote(Err))
    return errorResponse("promote-failed", Err);
  Ctr.Promotions.add();
  WireMessage Resp = okResponse();
  Resp.Params["role"] = "primary";
  return Resp;
}

std::shared_ptr<ServeCore::SessionEntry>
ServeCore::buildEntry(const std::string &Name, std::string Source,
                      uint32_t Mode, uint32_t LoopVariance,
                      uint32_t OnBadProfile, std::string &Error) {
  auto Entry = std::make_shared<SessionEntry>();
  Entry->Name = Name;
  Entry->Source = std::move(Source);
  Entry->Mode = Mode;
  Entry->LoopVariance = LoopVariance;
  Entry->OnBadProfile = OnBadProfile;

  Entry->Prog = parseProgram(Entry->Source, Entry->Diags);
  if (!Entry->Prog) {
    Error = "program failed to parse: " + Entry->Diags.str();
    return nullptr;
  }

  EstimatorOptions EOpts(Entry->Diags);
  EOpts.jobs(Opts.Jobs).onDeadline(Opts.OnDeadline);
  EOpts.mode(static_cast<ProfileMode>(Mode))
      .loopVariance(static_cast<LoopVarianceMode>(LoopVariance))
      .onBadProfile(static_cast<BadProfilePolicy>(OnBadProfile));
  if (Opts.Obs)
    EOpts.observability(*Opts.Obs);

  Entry->Session = EstimationSession::create(*Entry->Prog, CostModel(), EOpts);
  if (!Entry->Session) {
    Error = "program failed analysis: " + Entry->Diags.str();
    return nullptr;
  }
  Entry->MemBytes = sessionMemoryBytes(Entry->Source, *Entry->Prog);
  return Entry;
}

void ServeCore::registerEntry(const std::shared_ptr<SessionEntry> &Entry,
                              bool JournalCreate) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Sessions.find(Entry->Name);
  if (It != Sessions.end()) {
    // Reload replaces: the old entry's in-flight requests finish on
    // their own reference.
    TotalBytes -= It->second->MemBytes;
    Sessions.erase(It);
  }
  Entry->LastUsed = ++Clock;
  TotalBytes += Entry->MemBytes;
  Sessions[Entry->Name] = Entry;
  if (JournalCreate) {
    durable::DurableRecord R;
    R.Type = durable::RecordType::SessionCreate;
    R.Session = Entry->Name;
    R.Source = Entry->Source;
    R.Mode = Entry->Mode;
    R.LoopVariance = Entry->LoopVariance;
    R.OnBadProfile = Entry->OnBadProfile;
    journalAppend(R);
  }
  evictLocked(Entry.get());
}

WireMessage ServeCore::handleLoadProgram(const WireMessage &Request,
                                         SessionEntry *, CancelToken *) {
  std::string Name = Request.param("session");
  if (Name.empty())
    return errorResponse("bad-request", "load-program needs session=NAME");

  std::string Source;
  if (Request.hasParam("workload")) {
    std::optional<uint32_t> W =
        parseChoice(Request.param("workload"), {"loops", "simple"});
    if (!W)
      return errorResponse("bad-request",
                           "unknown workload '" +
                               toLower(Request.param("workload")) +
                               "' (loops|simple)");
    Source = (*W == 0 ? livermoreLoops() : simpleKernel()).Source;
  } else if (!Request.Body.empty()) {
    Source = Request.Body;
  } else {
    return errorResponse("bad-request", "load-program needs program source "
                                        "in the body or workload=loops|simple");
  }

  // Resolve the creation parameters to their wire (u32) encoding up front:
  // the SessionCreate record and every snapshot carry exactly these values,
  // so recovery rebuilds the session with the same configuration.
  uint32_t Mode = static_cast<uint32_t>(ProfileMode::Smart);
  uint32_t LoopVariance = static_cast<uint32_t>(LoopVarianceMode::Zero);
  uint32_t OnBadProfile = static_cast<uint32_t>(BadProfilePolicy::Fail);
  if (Request.hasParam("mode")) {
    std::optional<uint32_t> M = parseChoice(
        Request.param("mode"), {"naive", "opt1", "opt12", "smart"});
    if (!M)
      return errorResponse("bad-request", "unknown mode '" +
                                              Request.param("mode") +
                                              "' (naive|opt1|opt12|smart)");
    Mode = *M;
  }
  if (Request.hasParam("loop-variance")) {
    std::optional<LoopVarianceMode> LV =
        parseLoopVariance(Request.param("loop-variance"));
    if (!LV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") +
                               "' (zero|profiled|geometric|uniform)");
    LoopVariance = static_cast<uint32_t>(*LV);
  }
  if (Request.hasParam("on-bad-profile")) {
    std::optional<uint32_t> P =
        parseChoice(Request.param("on-bad-profile"), {"fail", "quarantine"});
    if (!P)
      return errorResponse("bad-request",
                           "unknown on-bad-profile '" +
                               toLower(Request.param("on-bad-profile")) +
                               "' (fail|quarantine)");
    OnBadProfile = *P;
  }

  // Parse + analyze outside every lock (the expensive part), then insert
  // and journal the SessionCreate as one structure-shared critical step.
  std::string Error;
  std::shared_ptr<SessionEntry> Entry = buildEntry(
      Name, std::move(Source), Mode, LoopVariance, OnBadProfile, Error);
  if (!Entry)
    return errorResponse("bad-program", Error);

  {
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    registerEntry(Entry, /*JournalCreate=*/true);
  }
  Ctr.Loads.add();

  WireMessage Resp = okResponse();
  Resp.Params["session"] = Name;
  Resp.Params["functions"] =
      std::to_string(Entry->Prog->functions().size());
  Resp.Params["memory-bytes"] = std::to_string(Entry->MemBytes);
  return Resp;
}

WireMessage ServeCore::handleRun(const WireMessage &Request,
                                 SessionEntry *Entry, CancelToken *) {
  unsigned Runs = 1;
  if (Request.hasParam("runs")) {
    std::optional<unsigned> N = parseUnsigned(Request.param("runs"));
    if (!N || *N == 0)
      return errorResponse("bad-request", "runs wants a positive integer, "
                                          "got '" +
                                              Request.param("runs") + "'");
    Runs = *N;
  }
  RunResult Last;
  unsigned Done = 0;
  {
    // Shared structure lock + DurableMu: the runs and their RunExec
    // record are one atomic step against a concurrent checkpoint. The
    // journal records the runs that actually EXECUTED — a mid-loop
    // failure still mutated the session's counters Done times.
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    std::lock_guard<std::mutex> DL(Entry->DurableMu);
    for (unsigned I = 0; I < Runs; ++I) {
      Last = Entry->Session->profiledRun();
      if (!Last.Ok)
        break;
      ++Done;
    }
    if (Done > 0) {
      durable::DurableRecord R;
      R.Type = durable::RecordType::RunExec;
      R.Session = Entry->Name;
      R.RunCount = Done;
      journalAppend(R);
    }
  }
  if (Done != Runs)
    return errorResponse("run-failed", Last.Error);
  Ctr.Runs.add(Runs);
  WireMessage Resp = okResponse();
  Resp.Params["runs"] = std::to_string(Entry->Session->runsExecuted());
  Resp.Params["cycles"] = preciseDouble(Last.Cycles);
  Resp.Params["statements"] = std::to_string(Last.StatementsExecuted);
  return Resp;
}

WireMessage ServeCore::handleEstimate(const WireMessage &Request,
                                      SessionEntry *Entry, CancelToken *Token) {
  std::vector<EstimateRequest> Reqs(1);
  Reqs[0].Function = Request.param("function");
  if (Request.hasParam("loop-variance")) {
    std::optional<LoopVarianceMode> LV =
        parseLoopVariance(Request.param("loop-variance"));
    if (!LV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") + "'");
    Reqs[0].LoopVariance = *LV;
  }

  std::vector<EstimateResult> Results = Entry->Session->estimate(Reqs, Token);
  Ctr.Estimates.add();
  const EstimateResult &R = Results[0];
  if (!R.Ok)
    return errorResponse(
        Token && Token->expired() ? "timeout" : "estimate-failed", R.Error);

  WireMessage Resp = okResponse();
  putEstimate(Resp, R, Reqs[0].Function, "");
  return Resp;
}

WireMessage ServeCore::handleEstimateBatch(const WireMessage &Request,
                                           SessionEntry *Entry,
                                           CancelToken *Token) {
  std::optional<unsigned> Count = parseUnsigned(Request.param("count"));
  if (!Count || *Count == 0)
    return errorResponse("bad-request",
                         "estimate-batch needs count=N (N >= 1), got '" +
                             Request.param("count") + "'");
  // Backstop against a malformed client asking for millions of slots; real
  // batches are tens of functions.
  constexpr unsigned MaxBatch = 4096;
  if (*Count > MaxBatch)
    return errorResponse("bad-request",
                         "estimate-batch count " + std::to_string(*Count) +
                             " exceeds the cap of " +
                             std::to_string(MaxBatch));

  // A batch-wide `loop-variance` is the default; `loop-variance.I`
  // overrides it per query.
  std::optional<LoopVarianceMode> BatchLV;
  if (Request.hasParam("loop-variance")) {
    BatchLV = parseLoopVariance(Request.param("loop-variance"));
    if (!BatchLV)
      return errorResponse("bad-request",
                           "unknown loop-variance '" +
                               Request.param("loop-variance") + "'");
  }

  std::vector<EstimateRequest> Reqs(*Count);
  for (unsigned I = 0; I != *Count; ++I) {
    std::string Key = "function." + std::to_string(I);
    if (!Request.hasParam(Key))
      return errorResponse("bad-request",
                           "estimate-batch count=" + std::to_string(*Count) +
                               " but parameter '" + Key + "' is missing");
    Reqs[I].Function = Request.param(Key);
    Reqs[I].LoopVariance = BatchLV;
    std::string LVKey = "loop-variance." + std::to_string(I);
    if (Request.hasParam(LVKey)) {
      std::optional<LoopVarianceMode> LV =
          parseLoopVariance(Request.param(LVKey));
      if (!LV)
        return errorResponse("bad-request", "unknown loop-variance '" +
                                                Request.param(LVKey) +
                                                "' for " + LVKey);
      Reqs[I].LoopVariance = *LV;
    }
  }

  // Keys indexed at or past `count` would be silently dropped, and the
  // caller's queries and our answers would no longer line up one-to-one;
  // reject the disagreement instead of returning a misaligned response.
  for (const auto &[Key, Value] : Request.Params) {
    std::string_view K = Key;
    for (std::string_view Prefix : {"function.", "loop-variance."}) {
      if (K.size() <= Prefix.size() || K.substr(0, Prefix.size()) != Prefix)
        continue;
      std::optional<unsigned> Index =
          parseUnsigned(K.substr(Prefix.size()));
      if (!Index || *Index >= *Count)
        return errorResponse(
            "bad-request", "estimate-batch count=" + std::to_string(*Count) +
                               " but parameter '" + Key +
                               "' is outside indices 0.." +
                               std::to_string(*Count - 1) +
                               "; count disagrees with the keys sent");
    }
  }

  // One session call for the whole batch: the session answers every query
  // from one coherent analysis snapshot, and shared dirty functions are
  // recomputed once instead of once per query.
  std::vector<EstimateResult> Results = Entry->Session->estimate(Reqs, Token);
  Ctr.Estimates.add(Results.size());
  Ctr.EstimateBatches.add();

  // Per-query failures are reported in-band (`ok.I` = 0 plus `error.I`)
  // so one unknown function does not discard its batch-mates' answers.
  WireMessage Resp = okResponse();
  Resp.Params["count"] = std::to_string(Results.size());
  unsigned Failed = 0;
  for (unsigned I = 0; I != Results.size(); ++I) {
    const EstimateResult &R = Results[I];
    const std::string Suffix = "." + std::to_string(I);
    Resp.Params["ok" + Suffix] = R.Ok ? "1" : "0";
    if (!R.Ok) {
      ++Failed;
      Resp.Params["error" + Suffix] = R.Error;
      Resp.Params["error-code" + Suffix] =
          Token && Token->expired() ? "timeout" : "estimate-failed";
      continue;
    }
    putEstimate(Resp, R, Reqs[I].Function, Suffix);
  }
  Resp.Params["failed"] = std::to_string(Failed);
  return Resp;
}

/// One stream-deltas record: u32 LE function index | u32 LE condition
/// index | f64 LE delta.
static constexpr size_t StreamRecordSize = 16;

WireMessage ServeCore::handleStreamDeltas(const WireMessage &Request,
                                          SessionEntry *Entry, CancelToken *) {
  CounterDeltaStream *Stream = streamFor(*Entry);

  // describe=1: serve the cell-address table clients encode records
  // against (function index in stream order, condition count per row).
  if (Request.param("describe") == "1") {
    WireMessage Resp = okResponse();
    Resp.Params["functions"] = std::to_string(Stream->numFunctions());
    for (unsigned I = 0; I != Stream->numFunctions(); ++I) {
      const std::string Suffix = "." + std::to_string(I);
      Resp.Params["function" + Suffix] = Stream->functionAt(I)->name();
      Resp.Params["conditions" + Suffix] =
          std::to_string(Stream->numConditions(I));
    }
    Resp.Params["epoch"] = std::to_string(Stream->currentEpoch());
    return Resp;
  }

  if (Request.Body.size() % StreamRecordSize != 0)
    return errorResponse(
        "bad-request",
        "stream-deltas body is " + std::to_string(Request.Body.size()) +
            " bytes, not a multiple of the " +
            std::to_string(StreamRecordSize) +
            "-byte record (u32 function | u32 condition | f64 delta)");

  uint64_t Appended = 0, Dropped = 0;
  if (!Request.Body.empty()) {
    CounterDeltaStream::Writer W = Stream->acquireWriter();
    if (!W)
      return errorResponse("overloaded",
                           "all stream writer slots are in use; retry");
    ByteReader Rd(reinterpret_cast<const uint8_t *>(Request.Body.data()),
                  Request.Body.size());
    while (Rd.remaining() != 0) {
      uint32_t FuncIdx = Rd.u32();
      uint32_t CondIdx = Rd.u32();
      double Delta = Rd.f64();
      if (W.add(FuncIdx, CondIdx, Delta))
        ++Appended;
      else
        ++Dropped;
    }
  }
  Ctr.StreamDeltas.add();

  WireMessage Resp = okResponse();
  Resp.Params["appended"] = std::to_string(Appended);
  Resp.Params["dropped"] = std::to_string(Dropped);
  if (Request.param("flush") == "1") {
    // Seal the epoch and fold it into the session as one atomic batch;
    // the next estimate on this session re-runs only the dirty closure.
    // StructureMu shared is taken OUTSIDE flush() — the fold observer
    // cannot take it (checkpoint calls flush holding it unique).
    CounterDeltaStream::FlushReport FR;
    {
      std::shared_lock<std::shared_mutex> SL(StructureMu);
      FR = Stream->flush();
    }
    waitForLastFold(*Entry);
    Resp.Params["epoch"] = std::to_string(FR.Epoch);
    Resp.Params["flushed-functions"] = std::to_string(FR.Functions);
    Resp.Params["flushed-cells"] = std::to_string(FR.Cells);
  } else {
    Resp.Params["epoch"] = std::to_string(Stream->currentEpoch());
  }
  return Resp;
}

WireMessage ServeCore::handleIngestProfile(const WireMessage &Request,
                                           SessionEntry *Entry,
                                           CancelToken *Token) {
  if (Request.Body.empty())
    return errorResponse("bad-request",
                         "ingest-profile needs a PTPF image in the body");
  std::vector<uint8_t> Bytes(Request.Body.begin(), Request.Body.end());
  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> PF = ProfileFile::deserialize(Bytes, &LoadDiags);
  if (!PF)
    return errorResponse("bad-profile",
                         "profile image failed to parse: " + LoadDiags.str());

  // Validation reads only the session's immutable analysis and plan, so
  // it runs before any lock and concurrent ingests validate in parallel.
  ValidatedProfile Checked = Entry->Session->validateProfile(*PF, Token);
  ProfileIngestReport Report;
  uint64_t Epoch = 0;
  {
    // {fold, journal} is one atomic step against checkpoint capture.
    // The journal stores the raw PTPF image: replay re-ingests the exact
    // bytes, so recovery reproduces the same accept/quarantine decisions.
    std::shared_lock<std::shared_mutex> SL(StructureMu);
    std::lock_guard<std::mutex> DL(Entry->DurableMu);
    Report = Entry->Session->foldProfile(Checked, Epoch);
    if (Report.Ok) {
      durable::DurableRecord R;
      R.Type = durable::RecordType::ProfileIngest;
      R.Session = Entry->Name;
      R.Profile = Bytes;
      journalAppend(R);
    }
  }
  // With those locks released, bring the session's view up to this fold
  // before answering (read-your-writes); one refresh covers every fold
  // committed before it.
  Entry->Session->refreshView(Epoch, Token);
  Ctr.Ingests.add();
  if (!Report.Ok)
    return errorResponse(
        Token && Token->expired() ? "timeout" : "bad-profile", Report.Error);
  WireMessage Resp = okResponse();
  Resp.Params["accepted"] = std::to_string(Report.Accepted);
  Resp.Params["quarantined"] = std::to_string(Report.Quarantined.size());
  if (!Report.Findings.empty())
    Resp.Params["findings"] = std::to_string(Report.Findings.size());
  return Resp;
}

WireMessage ServeCore::handleCaptureProfile(const WireMessage &,
                                            SessionEntry *Entry,
                                            CancelToken *) {
  std::vector<uint8_t> Bytes = Entry->Session->captureProfile().serialize();
  Ctr.Captures.add();
  WireMessage Resp = okResponse();
  Resp.Body.assign(Bytes.begin(), Bytes.end());
  return Resp;
}

WireMessage ServeCore::handleStats(const WireMessage &, SessionEntry *,
                                   CancelToken *) {
  if (!Opts.Obs)
    return errorResponse("bad-request",
                         "this daemon runs without observability "
                         "(restart ptran-serve with --stats)");
  WireMessage Resp = okResponse();
  Resp.Body = Opts.Obs->statsTable();
  return Resp;
}

//===----------------------------------------------------------------------===//
// Durable state: journaling, checkpoint, restore, background flusher
//===----------------------------------------------------------------------===//

uint64_t ServeCore::journalAppend(durable::DurableRecord &R) {
  if (!Opts.Store)
    return 0;
  // A standby's journal is written ONLY through applyReplicatedBatch (the
  // primary's exact frames, primary's LSNs). Anything that would append
  // here on a standby — replay-triggered evictions, a stray fold — must
  // not: one local record would shift every subsequent LSN off the
  // primary's numbering.
  if (isReadOnly())
    return 0;
  std::string Err;
  uint64_t Lsn = Opts.Store->journal().append(R, Err);
  if (!Lsn) {
    // Degrade durability, keep serving: the record is lost to recovery
    // but the live session stays correct, and the reference a recovery
    // is compared against is rebuilt from the same journal.
    Ctr.AppendFailures.add();
    std::fprintf(stderr,
                 "ptran-serve: journal append failed (durability degraded): "
                 "%s\n",
                 Err.c_str());
    return 0;
  }
  // The append woke the shippers; handle() waits for the standby's ack
  // once the request's locks are released.
  RequestLsn = std::max(RequestLsn, Lsn);
  return Lsn;
}

/// Brackets every stream epoch fold of one session: under the session's
/// DurableMu, apply the batch and journal the EpochFold (plus a one-time
/// SaturationMark per newly clamped function) as one atomic step. Takes
/// NO StructureMu — checkpoint() calls flush() while holding it unique;
/// every other flush call site takes it shared around flush() instead.
class ServeCore::DurableFoldObserver : public EpochFoldObserver {
public:
  DurableFoldObserver(ServeCore &Core, SessionEntry &Entry)
      : Core(Core), Entry(Entry) {}

  void onEpochFold(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Batch,
      const std::vector<const Function *> &Clamped,
      const std::function<void()> &Apply) override {
    std::lock_guard<std::mutex> L(Entry.DurableMu);
    Apply();
    durable::DurableRecord R;
    R.Type = durable::RecordType::EpochFold;
    R.Session = Entry.Name;
    for (const auto &[F, Totals] : Batch)
      R.Folds.push_back(
          {F->name(), Entry.Session->condRecords(*F, Totals.Cond)});
    for (const Function *F : Clamped)
      R.Clamped.push_back(F->name());
    uint64_t Lsn = Core.journalAppend(R);
    // A clamped function's saturation diagnostic must survive restarts;
    // mark it once (the EpochFold's Clamped list already re-arms it on
    // replay, the standalone record covers journals whose fold rotated
    // into a snapshot that predates the saturation API).
    for (const Function *F : Clamped) {
      if (!Entry.JournaledSaturation.insert(F->name()).second)
        continue;
      durable::DurableRecord S;
      S.Type = durable::RecordType::SaturationMark;
      S.Session = Entry.Name;
      S.FunctionName = F->name();
      Lsn = std::max(Lsn, Core.journalAppend(S));
    }
    if (Lsn)
      Entry.LastFoldLsn.store(Lsn, std::memory_order_release);
  }

private:
  ServeCore &Core;
  SessionEntry &Entry;
};

void ServeCore::waitForLastFold(const SessionEntry &Entry) {
  RequestLsn = std::max(RequestLsn,
                        Entry.LastFoldLsn.load(std::memory_order_acquire));
}

CounterDeltaStream *ServeCore::streamFor(SessionEntry &Entry) {
  // StreamMu covers only the lazy construction race, never the append or
  // flush paths.
  std::lock_guard<std::mutex> L(Entry.StreamMu);
  if (!Entry.Stream) {
    CounterDeltaStream::Options SO;
    SO.Obs = Opts.Obs;
    Entry.Stream = CounterDeltaStream::create(*Entry.Session, SO);
    if (Opts.Store) {
      // Installed before the stream sees any traffic (the observer
      // pointer is read unsynchronized by flush()).
      Entry.FoldObs = std::make_unique<DurableFoldObserver>(*this, Entry);
      Entry.Stream->setFoldObserver(Entry.FoldObs.get());
    }
  }
  return Entry.Stream.get();
}

uint64_t ServeCore::sealStreams(
    const std::vector<std::shared_ptr<SessionEntry>> &Entries) {
  // Seal outstanding stream epochs: their folds become journal records
  // below the watermark read next.
  for (const auto &Entry : Entries)
    if (CounterDeltaStream *Stream = Entry->builtStream()) {
      Stream->flush();
      waitForLastFold(*Entry);
    }
  return Opts.Store->journal().lastLsn();
}

durable::DurableSessionState ServeCore::captureState(SessionEntry &Entry) {
  durable::DurableSessionState S;
  S.Name = Entry.Name;
  S.Source = Entry.Source;
  S.Mode = Entry.Mode;
  S.LoopVariance = Entry.LoopVariance;
  S.OnBadProfile = Entry.OnBadProfile;
  Entry.Session->captureDurableState(S);
  return S;
}

bool ServeCore::checkpoint(std::string &Error) {
  if (!Opts.Store)
    return true;
  // UNIQUE structure lock: every durable mutation holds StructureMu
  // shared around its {mutate, journal} pair, so between here and the
  // rotation the sessions and the journal cannot diverge.
  std::unique_lock<std::shared_mutex> SL(StructureMu);

  // 1+2. Seal stream epochs, read the watermark; 3. snapshot every
  // resident session at it.
  std::vector<std::shared_ptr<SessionEntry>> Entries = residentEntries();
  uint64_t W = sealStreams(Entries);
  std::set<std::string> Resident;
  for (const auto &Entry : Entries) {
    if (!Opts.Store->writeSnapshot(captureState(*Entry), W, Error))
      return false; // Journal NOT rotated: nothing is lost, only long.
    Resident.insert(Entry->Name);
  }

  // 4. Evicted sessions must not resurrect from stale snapshots once the
  // journal (holding their SessionEvict record) rotates; a failed unlink
  // therefore aborts before rotation.
  if (!Opts.Store->pruneSnapshotsExcept(Resident, Error))
    return false;

  // 5. Every journal record is now covered by a watermark-W snapshot.
  // But a live subscriber still reading the tail would be forced into a
  // full re-bootstrap if we rotate it away — defer rotation until it
  // catches up, unless the journal has grown past the point where an
  // unbounded file is the bigger risk.
  constexpr uint64_t RotateForceBytes = 256ull << 20;
  if (Opts.Repl && Opts.Repl->minSubscriberLsn() <= W &&
      Opts.Store->journal().sizeBytes() < RotateForceBytes)
    Ctr.RotationsDeferred.add();
  else if (!Opts.Store->rotateJournal(Error))
    return false;
  Ctr.DurableCheckpoints.add();
  return true;
}

/// Folds \p Folds (an EpochFold record's totals) into \p Session as one
/// batch. A function the program no longer has is skipped with a
/// diagnostic prefixed by \p Where.
static void applyFolds(EstimationSession &Session,
                       const std::vector<durable::FoldEntry> &Folds,
                       const std::string &Where,
                       std::vector<std::string> &Diagnostics) {
  std::vector<std::pair<const Function *, FrequencyTotals>> Batch;
  for (const durable::FoldEntry &FE : Folds) {
    const Function *F = Session.program().findFunction(FE.Function);
    if (!F) {
      Diagnostics.push_back(Where + ": function '" + FE.Function +
                            "' not found; its totals dropped");
      continue;
    }
    size_t Dropped = 0;
    Batch.emplace_back(F, Session.deltaFromRecords(*F, FE.Conds, Dropped));
    if (Dropped)
      Diagnostics.push_back(Where + ": " + std::to_string(Dropped) +
                            " total(s) for function '" + FE.Function +
                            "' name conditions it does not have; dropped");
  }
  if (!Batch.empty())
    Session.accumulateTotalsBatch(Batch);
}

/// Re-ingests a journaled PTPF image into \p Session (a replay: no
/// deadline). A failure costs one diagnostic, led by \p What.
static void replayProfile(EstimationSession &Session,
                          const std::vector<uint8_t> &Image,
                          const std::string &What,
                          std::vector<std::string> &Diagnostics) {
  DiagnosticEngine LoadDiags;
  std::optional<ProfileFile> PF = ProfileFile::deserialize(Image, &LoadDiags);
  if (!PF) {
    Diagnostics.push_back(What + " failed to parse: " + LoadDiags.str());
    return;
  }
  ProfileIngestReport Rep = Session.ingestProfile(*PF, nullptr);
  if (!Rep.Ok)
    Diagnostics.push_back(What + " failed to ingest: " + Rep.Error);
}

/// Re-arms \p Fn's saturation diagnostic on \p Session and records it in
/// \p Journaled. False when the program has no such function.
static bool markSaturated(EstimationSession &Session,
                          std::set<std::string> &Journaled,
                          const std::string &Fn) {
  const Function *F = Session.program().findFunction(Fn);
  if (!F)
    return false;
  Session.noteExternalSaturation(*F);
  Journaled.insert(Fn);
  return true;
}

void ServeCore::applySnapshotState(SessionEntry &Entry,
                                   const durable::DurableSessionState &State,
                                   std::vector<std::string> &Diagnostics) {
  Entry.Session->restoreDurableState(State, Diagnostics);
  for (const std::string &Fn : State.Saturated)
    if (Entry.Session->program().findFunction(Fn))
      Entry.JournaledSaturation.insert(Fn);
}

void ServeCore::restore(const durable::StateStore::Recovery &Recovered,
                        RestoreReport &Out) {
  // Boot-time only (before any connection thread exists), so no
  // StructureMu is needed; registerEntry with JournalCreate=false never
  // re-journals a replayed mutation — but evictions it triggers DO
  // journal their SessionEvict (a new state change, not a replayed one).
  std::map<std::string, uint64_t> Watermark;
  for (const durable::StateStore::RecoveredSession &RS :
       Recovered.Snapshots) {
    std::string Error;
    std::shared_ptr<SessionEntry> Entry =
        buildEntry(RS.State.Name, RS.State.Source, RS.State.Mode,
                   RS.State.LoopVariance, RS.State.OnBadProfile, Error);
    if (!Entry) {
      Out.Diagnostics.push_back("snapshot session '" + RS.State.Name +
                                "' no longer builds: " + Error);
      continue;
    }
    applySnapshotState(*Entry, RS.State, Out.Diagnostics);
    registerEntry(Entry, /*JournalCreate=*/false);
    Watermark[RS.State.Name] = RS.Watermark;
  }

  for (const durable::DurableRecord &R : Recovered.Records) {
    // Records at or below the session's snapshot watermark are already
    // folded into that snapshot (the crash-during-checkpoint double-apply
    // guard; LSNs are monotonic across rotations, so this stays sound no
    // matter where the crash landed).
    auto WIt = Watermark.find(R.Session);
    if (WIt != Watermark.end() && R.Lsn <= WIt->second) {
      ++Out.RecordsSkipped;
      continue;
    }
    ++Out.RecordsReplayed;
    applyRecord(R, Out.Diagnostics);
  }
  Out.SessionsRestored = sessionCount();
}

void ServeCore::applyRecord(const durable::DurableRecord &R,
                            std::vector<std::string> &Diagnostics) {
  const std::string Where =
      "journal LSN " + std::to_string(R.Lsn) + " ('" + R.Session + "')";
  switch (R.Type) {
  case durable::RecordType::SessionCreate: {
    std::string Error;
    std::shared_ptr<SessionEntry> Entry = buildEntry(
        R.Session, R.Source, R.Mode, R.LoopVariance, R.OnBadProfile, Error);
    if (!Entry) {
      Diagnostics.push_back(Where + ": session no longer builds: " + Error);
      break;
    }
    registerEntry(Entry, /*JournalCreate=*/false);
    break;
  }
  case durable::RecordType::SessionEvict: {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Sessions.find(R.Session);
    if (It != Sessions.end()) {
      TotalBytes -= It->second->MemBytes;
      Sessions.erase(It);
    }
    break;
  }
  case durable::RecordType::RunExec: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; runs dropped");
      break;
    }
    for (uint32_t I = 0; I < R.RunCount; ++I) {
      RunResult RR = Entry->Session->profiledRun();
      if (!RR.Ok) {
        Diagnostics.push_back(Where + ": replayed run failed: " + RR.Error);
        break;
      }
    }
    break;
  }
  case durable::RecordType::EpochFold: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; fold dropped");
      break;
    }
    applyFolds(*Entry->Session, R.Folds, Where, Diagnostics);
    for (const std::string &Fn : R.Clamped)
      markSaturated(*Entry->Session, Entry->JournaledSaturation, Fn);
    break;
  }
  case durable::RecordType::ProfileIngest: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; profile dropped");
      break;
    }
    replayProfile(*Entry->Session, R.Profile, Where + ": profile",
                  Diagnostics);
    break;
  }
  case durable::RecordType::SaturationMark: {
    std::shared_ptr<SessionEntry> Entry = findSession(R.Session);
    if (!Entry) {
      Diagnostics.push_back(Where + ": no such session; mark dropped");
      break;
    }
    if (!markSaturated(*Entry->Session, Entry->JournaledSaturation,
                       R.FunctionName))
      Diagnostics.push_back(Where + ": function '" + R.FunctionName +
                            "' not found; mark dropped");
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Replication: primary-side capture, standby-side apply
//===----------------------------------------------------------------------===//

bool ServeCore::captureBootstrap(BootstrapCapture &Out, std::string &Error) {
  if (!Opts.Store) {
    Error = "this daemon runs without durable state; nothing to replicate";
    return false;
  }
  // checkpoint()'s barrier without its disk IO: under StructureMu unique
  // no mutation can land between the stream flushes, the watermark read,
  // and the captures, so every image covers exactly LSNs <= Watermark.
  std::unique_lock<std::shared_mutex> SL(StructureMu);

  std::vector<std::shared_ptr<SessionEntry>> Entries = residentEntries();
  Out.Watermark = sealStreams(Entries);
  Out.Snapshots.clear();
  for (const auto &Entry : Entries)
    Out.Snapshots.push_back(
        {Entry->Name,
         durable::encodeSnapshot(captureState(*Entry), Out.Watermark)});
  Ctr.BootstrapsServed.add();
  return true;
}

bool ServeCore::adoptSnapshotImage(const std::vector<uint8_t> &Image,
                                   std::vector<std::string> &Diagnostics,
                                   std::string &Error) {
  durable::DurableSessionState State;
  uint64_t Watermark = 0;
  if (!durable::decodeSnapshot(Image.data(), Image.size(), State, Watermark,
                               Error))
    return false;
  std::shared_ptr<SessionEntry> Entry =
      buildEntry(State.Name, State.Source, State.Mode, State.LoopVariance,
                 State.OnBadProfile, Error);
  if (!Entry)
    return false;
  applySnapshotState(*Entry, State, Diagnostics);
  // Persist the image locally BEFORE adopting it: a standby that crashes
  // mid-bootstrap recovers from its own snapshots like any daemon, and
  // the watermark carried inside the image keeps the double-apply guard
  // sound against the journal tail resetTo() installs next.
  if (!Opts.Store->writeSnapshot(State, Watermark, Error))
    return false;
  std::shared_lock<std::shared_mutex> SL(StructureMu);
  registerEntry(Entry, /*JournalCreate=*/false);
  return true;
}

void ServeCore::clearAllSessions() {
  std::unique_lock<std::shared_mutex> SL(StructureMu);
  std::lock_guard<std::mutex> L(Mu);
  Sessions.clear();
  TotalBytes = 0;
}

bool ServeCore::applyReplicatedBatch(const uint8_t *Frames, size_t Len,
                                     uint64_t FirstLsn, uint32_t Count,
                                     bool Sync, uint64_t &AppliedLsn,
                                     std::vector<std::string> &Diagnostics,
                                     std::string &Error) {
  if (!Opts.Store) {
    Error = "this daemon runs without durable state; cannot apply frames";
    return false;
  }
  // ONE StructureMu hold across {journal write-ahead, fsync, apply}: a
  // concurrent standby checkpoint (StructureMu unique) can run before or
  // after this batch but never between its journal write and its apply —
  // in between, the snapshot watermark would cover LSNs the sessions have
  // not absorbed yet, and rotation would drop them forever.
  std::shared_lock<std::shared_mutex> SL(StructureMu);
  std::vector<durable::DurableRecord> Records;
  if (!Opts.Store->journal().appendRaw(Frames, Len, FirstLsn, Count, &Records,
                                       Error))
    return false;
  if (FaultInjection::maybeCrashAt("repl.journal"))
    FaultInjection::dieAtCrashPoint();
  if (Sync) {
    std::string SyncErr;
    if (!Opts.Store->journal().sync(SyncErr))
      // The frames are journaled and WILL be applied (skipping them here
      // would desync the live sessions from the journal); the failed
      // fsync only weakens the durability this ack level promised.
      Diagnostics.push_back("journal fsync failed (ack overstates "
                            "durability): " +
                            SyncErr);
  }
  for (const durable::DurableRecord &R : Records) {
    // The primary's acknowledgement waits on this loop, so a session's
    // published view is dropped rather than refreshed after every record;
    // a read on the standby recomputes it under the session lock.
    bool Mutates = R.Type == durable::RecordType::RunExec ||
                   R.Type == durable::RecordType::EpochFold ||
                   R.Type == durable::RecordType::ProfileIngest;
    if (std::shared_ptr<SessionEntry> Entry =
            Mutates ? findSession(R.Session) : nullptr)
      Entry->Session->dropView();
    applyRecord(R, Diagnostics);
  }
  if (FaultInjection::maybeCrashAt("repl.apply"))
    FaultInjection::dieAtCrashPoint();
  AppliedLsn = FirstLsn + Count - 1;
  Ctr.BatchesApplied.add();
  Ctr.RecordsApplied.add(Count);
  return true;
}

void ServeCore::startFlusher() {
  if (!Opts.Store)
    return;
  {
    std::lock_guard<std::mutex> L(FlusherMu);
    FlusherStop = false;
  }
  Flusher = std::thread([this] { flusherLoop(); });
}

void ServeCore::stopFlusher() {
  {
    std::lock_guard<std::mutex> L(FlusherMu);
    FlusherStop = true;
  }
  FlusherCv.notify_all();
  if (Flusher.joinable())
    Flusher.join();
}

void ServeCore::flusherLoop() {
  using SteadyClock = std::chrono::steady_clock;
  // Tick faster than the flush cadence so the cell-count threshold is
  // checked promptly between staleness deadlines; a staleness bound
  // tighter than the sync cadence tightens the tick with it.
  auto Tick =
      std::chrono::milliseconds(std::max(10u, Opts.FlushIntervalMs / 4));
  if (Opts.FlushMaxStalenessMs != 0)
    Tick = std::min(Tick, std::chrono::milliseconds(
                              std::max(5u, Opts.FlushMaxStalenessMs / 2)));
  auto LastSync = SteadyClock::now();
  auto LastCheckpoint = SteadyClock::now();
  // When each session's stream FIRST showed pending appends (erased on
  // flush): the epoch's age for the --flush-max-staleness-ms bound.
  std::map<const SessionEntry *, SteadyClock::time_point> PendingSince;
  for (;;) {
    {
      std::unique_lock<std::mutex> L(FlusherMu);
      if (FlusherCv.wait_for(L, Tick, [this] { return FlusherStop; }))
        return;
    }
    auto Now = SteadyClock::now();
    bool SyncDue =
        Now - LastSync >= std::chrono::milliseconds(Opts.FlushIntervalMs);

    std::vector<std::shared_ptr<SessionEntry>> Entries = residentEntries();
    // Drop staleness stamps of evicted sessions so the map tracks only
    // live entries.
    std::erase_if(PendingSince, [&](const auto &Stamp) {
      return std::none_of(
          Entries.begin(), Entries.end(),
          [&](const auto &Entry) { return Entry.get() == Stamp.first; });
    });
    for (const auto &Entry : Entries) {
      CounterDeltaStream *Stream = Entry->builtStream();
      if (!Stream || Stream->pendingAppends() == 0) {
        PendingSince.erase(Entry.get());
        continue;
      }
      bool Stale = false;
      if (Opts.FlushMaxStalenessMs != 0) {
        auto [It, Fresh] = PendingSince.try_emplace(Entry.get(), Now);
        Stale = !Fresh &&
                Now - It->second >=
                    std::chrono::milliseconds(Opts.FlushMaxStalenessMs);
      }
      // Seal stale (or threshold-crossing) epochs so their deltas reach
      // the journal; bounds loss under FsyncPolicy::Batch to one flush
      // interval (or staleness bound) of appends.
      if (SyncDue || Stale ||
          Stream->pendingAppends() >= Opts.FlushCellThreshold) {
        {
          std::shared_lock<std::shared_mutex> SL(StructureMu);
          Stream->flush();
        }
        PendingSince.erase(Entry.get());
        if (Stale)
          Ctr.StalenessFlushes.add();
      }
    }
    if (SyncDue) {
      // FsyncPolicy::Batch's flush point.
      std::string Err;
      if (!Opts.Store->journal().sync(Err))
        std::fprintf(stderr, "ptran-serve: journal sync failed: %s\n",
                     Err.c_str());
      LastSync = Now;
    }
    if (Opts.SnapshotIntervalMs != 0 &&
        Now - LastCheckpoint >=
            std::chrono::milliseconds(Opts.SnapshotIntervalMs)) {
      std::string Err;
      if (!checkpoint(Err))
        std::fprintf(stderr, "ptran-serve: periodic checkpoint failed: %s\n",
                     Err.c_str());
      LastCheckpoint = Now;
    }
  }
}

WireMessage ServeCore::handleCheckpoint(const WireMessage &, SessionEntry *,
                                        CancelToken *) {
  if (!Opts.Store)
    return errorResponse("bad-request",
                         "this daemon runs without durable state "
                         "(restart ptran-serve with --state-dir)");
  std::string Error;
  if (!checkpoint(Error))
    return errorResponse("durable-failure", Error);
  Ctr.Checkpoints.add();
  WireMessage Resp = okResponse();
  Resp.Params["journal-next-lsn"] =
      std::to_string(Opts.Store->journal().nextLsn());
  Resp.Params["journal-bytes"] =
      std::to_string(Opts.Store->journal().sizeBytes());
  return Resp;
}
