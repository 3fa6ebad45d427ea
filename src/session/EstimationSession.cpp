//===--- session/EstimationSession.cpp - Incremental estimation -----------===//

#include "session/EstimationSession.h"

#include "freq/StaticFrequencies.h"
#include "profile/ConsistencyCheck.h"
#include "support/Saturation.h"

#include <bit>
#include <cmath>
#include <set>

using namespace ptran;

static bool sameCostModel(const CostModel &A, const CostModel &B) {
  // Exact field-by-field comparison: cache reuse must never cross cost
  // models, and hashing doubles invites collisions.
  return A.OpCost == B.OpCost && A.ScalarRefCost == B.ScalarRefCost &&
         A.ArrayRefCost == B.ArrayRefCost &&
         A.IntrinsicCost == B.IntrinsicCost && A.AssignCost == B.AssignCost &&
         A.BranchCost == B.BranchCost &&
         A.LoopOverheadCost == B.LoopOverheadCost &&
         A.CallOverheadCost == B.CallOverheadCost && A.ArgCost == B.ArgCost &&
         A.PrintCost == B.PrintCost &&
         A.CounterIncrementCost == B.CounterIncrementCost &&
         A.CounterAddCost == B.CounterAddCost;
}

std::unique_ptr<EstimationSession>
EstimationSession::create(const Program &P, const CostModel &CM,
                          const EstimatorOptions &Opts) {
  auto S = std::unique_ptr<EstimationSession>(new EstimationSession());
  S->P = &P;
  S->CM = CM;
  S->Opts = Opts;
  // One long-lived pool for every pass the session ever runs (analysis
  // fan-out and each query's TimeAnalysis waves), unless the caller
  // already owns one.
  if (!S->Opts.Exec.Pool) {
    unsigned Workers = ThreadPool::resolveJobs(S->Opts.Exec.Jobs);
    if (Workers > 1) {
      S->Pool = std::make_unique<ThreadPool>(Workers);
      S->Opts.Exec.Pool = S->Pool.get();
    }
  }
  S->Est = Estimator::create(P, CM, S->Opts);
  if (!S->Est)
    return nullptr;
  return S;
}

namespace {
/// Installs a per-call cancel token for the duration of one serialized
/// call (the caller holds the session lock, so the swap is private to that
/// call); null keeps the session-wide token.
struct ScopedCancelSwap {
  EstimatorOptions &Opts;
  CancelToken *Saved;
  ScopedCancelSwap(EstimatorOptions &Opts, CancelToken *Cancel)
      : Opts(Opts), Saved(Opts.Cancel) {
    if (Cancel)
      Opts.Cancel = Cancel;
  }
  ~ScopedCancelSwap() { Opts.Cancel = Saved; }
};
} // namespace

RunResult EstimationSession::profiledRun(uint64_t MaxSteps) {
  std::lock_guard<std::mutex> L(Mu);
  ++Runs;
  RuntimeStale = true;
  if (ObsRegistry *Obs = Opts.Obs)
    Obs->addCounter("session.runs");
  return Est->profiledRun(MaxSteps);
}

void EstimationSession::accumulateTotals(const Function &F,
                                         const FrequencyTotals &Delta) {
  std::lock_guard<std::mutex> L(Mu);
  accumulateTotalsLocked(F, Delta);
}

void EstimationSession::accumulateTotalsLocked(const Function &F,
                                               const FrequencyTotals &Delta) {
  // Deltas may be partial (no Σ identities to hold them to), but the
  // values themselves must be sane counts.
  for (const auto &[Cond, Total] : Delta.Cond) {
    if (std::isfinite(Total) && Total >= 0.0 &&
        Total <= ProfileFile::SaturationLimit)
      continue;
    std::string Issue =
        "externally accumulated totals are non-finite, negative or "
        "overflowed";
    if (Opts.OnBadProfile == BadProfilePolicy::Quarantine) {
      quarantine(F, Issue);
    } else {
      ExternalBad.emplace(&F, Issue);
      // Dirty the function so the next refresh visits it and reports the
      // failure (the rejected delta itself is not applied).
      Dirty.insert(&F);
    }
    return; // Reject the whole delta; good entries must not half-apply.
  }
  // Each delta is bounded, but an unbounded stream of bounded deltas is
  // not: clamp the accumulator at 2^53 exactly as the PTPF merge does, so
  // repeated valid deltas degrade to a diagnosed lower bound instead of a
  // silently imprecise double.
  std::map<ControlCondition, double> &Acc = External[&F];
  bool Saturated = false;
  for (const auto &[Cond, Total] : Delta.Cond)
    Saturated |= saturatingAdd(Acc[Cond], Total);
  if (Saturated)
    noteSaturation(F);
  Dirty.insert(&F);
}

void EstimationSession::accumulateTotalsBatch(
    const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas) {
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &[F, Delta] : Deltas)
    accumulateTotalsLocked(*F, Delta);
}

void EstimationSession::noteExternalSaturation(const Function &F) {
  std::lock_guard<std::mutex> L(Mu);
  noteSaturation(F);
}

uint64_t EstimationSession::inputKeyOf(const Function &F,
                                       const FrequencyTotals &Totals) const {
  // The structural part is the profile fingerprint; the data part folds in
  // the accumulated condition totals and loop-frequency moments. Any input
  // TimeAnalysis can observe is covered, so equal keys mean a function's
  // summary is reusable verbatim.
  const FunctionAnalysis &FA = Est->analysis().of(F);
  uint64_t H = structuralFingerprintOf(FA);
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  auto MixDouble = [&Mix](double D) { Mix(std::bit_cast<uint64_t>(D)); };
  Mix(Totals.Cond.size());
  for (const auto &[Cond, Total] : Totals.Cond) {
    Mix(Cond.Node);
    Mix(static_cast<uint64_t>(Cond.Label));
    MixDouble(Total);
  }
  // Loop moments (keyed by header statement) can change while condition
  // totals stay identical — e.g. per-entry counts 1,3 vs 2,2 — so they
  // must be part of the key for Profiled variance to invalidate correctly.
  for (NodeId Header : FA.intervals().headers()) {
    StmtId S = FA.cfg().origin(Header);
    if (const LoopFrequencyStats::Moments *M =
            Est->loopStats().momentsFor(F, S)) {
      Mix(static_cast<uint64_t>(S));
      MixDouble(M->Entries);
      MixDouble(M->Sum);
      MixDouble(M->SumSq);
    }
  }
  return H;
}

std::string
EstimationSession::totalsIssue(const FrequencyTotals &Totals) const {
  if (!Totals.Ok)
    return "counter recovery failed";
  for (const auto &[Cond, Total] : Totals.Cond)
    if (!std::isfinite(Total) || Total < 0.0)
      return "recovered totals contain non-finite or negative values";
  for (double N : Totals.Node)
    if (!std::isfinite(N))
      return "recovered node totals contain non-finite values";
  return {};
}

void EstimationSession::quarantine(const Function &F,
                                   const std::string &Reason) {
  // First reason wins; quarantine is sticky for the session's lifetime.
  if (!QuarantinedFns.emplace(&F, Reason).second)
    return;
  // Force a refresh so the function's frequencies switch to the static
  // estimate before the next query.
  Dirty.insert(&F);
  if (ObsRegistry *Obs = Opts.Obs)
    Obs->addCounter("session.quarantined_functions");
  if (Opts.Diags)
    Opts.Diags->warning("quarantining function " + F.name() + ": " + Reason +
                        "; estimates degrade to static frequencies");
}

void EstimationSession::noteSaturation(const Function &F) {
  // Once per function, mirroring the PTPF merge diagnostic: from here on
  // this function's totals (and estimates derived from them) are lower
  // bounds, not exact counts.
  if (!SaturatedFns.insert(&F).second)
    return;
  if (ObsRegistry *Obs = Opts.Obs)
    Obs->addCounter("session.saturated_functions");
  if (Opts.Diags)
    Opts.Diags->warning("accumulate: totals for " + F.name() +
                        " saturated at 2^53; totals are now lower bounds");
}

void EstimationSession::degradeForDeadline(const Function &F,
                                           const std::string &Reason) {
  // First reason wins within a query. Unlike quarantine this is not
  // sticky: estimate() lifts it (and re-dirties the function) on entry.
  if (!DegradedFns.emplace(&F, Reason).second)
    return;
  // Static frequencies depend only on structure; the salt keeps the key
  // distinct from both profiled and quarantined keys.
  InputState &In = Inputs[&F];
  In.Key = structuralFingerprintOf(Est->analysis().of(F)) ^
           0x4445475241ULL; // "DEGRA"
  FreqsByFunction[&F] = computeStaticFrequencies(Est->analysis().of(F)).Freqs;
  if (ObsRegistry *Obs = Opts.Obs)
    Obs->addCounter("resilience.degraded_functions");
  if (Opts.Diags)
    Opts.Diags->warning("degrading function " + F.name() +
                        " to static frequencies: " + Reason);
}

std::string EstimationSession::refreshFunction(const Function &F,
                                               InputState &In) {
  if (QuarantinedFns.count(&F)) {
    // Static frequencies depend only on the function's structure, so the
    // key is the structural fingerprint salted to never collide with a
    // profiled key.
    uint64_t Key = structuralFingerprintOf(Est->analysis().of(F)) ^
                   0x5155415241ULL; // "QUARA"
    if (In.Key != Key || !FreqsByFunction.count(&F)) {
      In.Key = Key;
      FreqsByFunction[&F] =
          computeStaticFrequencies(Est->analysis().of(F)).Freqs;
    }
    return {};
  }

  FrequencyTotals Totals = In.Base;
  bool Saturated = false;
  if (addExternal(F, Totals, Saturated)) {
    // Base and the external accumulator are each bounded by 2^53, but
    // their sum is not; a clamped sum gets the same lower-bounds
    // diagnostic.
    if (Saturated)
      noteSaturation(F);
    // Each delta was value-checked on arrival, but their sum can still
    // overflow to infinity; catch that before it poisons the cache. (The
    // Σ identities are deliberately not enforced here — deltas may be
    // partial; complete profiles are identity-checked by ingestProfile.)
    std::string Issue = totalsIssue(Totals);
    if (!Issue.empty()) {
      if (Opts.OnBadProfile == BadProfilePolicy::Quarantine) {
        quarantine(F, Issue);
        return refreshFunction(F, In);
      }
      return Issue;
    }
  }
  uint64_t Key = inputKeyOf(F, Totals);
  if (In.Key != Key || !FreqsByFunction.count(&F)) {
    In.Key = Key;
    FreqsByFunction[&F] = computeFrequencies(Est->analysis().of(F), Totals);
  }
  return {};
}

bool EstimationSession::addExternal(const Function &F,
                                    FrequencyTotals &Totals,
                                    bool &Saturated) const {
  Saturated = false;
  auto It = External.find(&F);
  if (It == External.end() || It->second.empty())
    return false;
  for (const auto &[Cond, Total] : It->second)
    Saturated |= saturatingAdd(Totals.Cond[Cond], Total);
  // Node totals follow from condition totals via the FCDG recurrence.
  Totals.Node = nodeTotalsFromConds(Est->analysis().of(F), Totals.Cond);
  return true;
}

FrequencyTotals EstimationSession::totalsFor(const Function &F) const {
  FrequencyTotals Totals = Est->runtime().recover(F);
  bool Saturated = false;
  addExternal(F, Totals, Saturated);
  return Totals;
}

bool EstimationSession::refreshInputs(std::string &Error) {
  if (!RuntimeStale && Dirty.empty())
    return true;
  CancelToken *Cancel = Opts.Cancel;
  bool Ok = true;
  bool CutShort = false;
  for (const auto &F : P->functions()) {
    InputState &In = Inputs[F.get()];
    if (!CutShort && Cancel && Cancel->checkpoint()) {
      CutShort = true;
      if (ObsRegistry *Obs = Opts.Obs)
        Obs->addCounter(Cancel->reason() == CancelReason::Cancelled
                            ? "resilience.cancellations"
                            : "resilience.deadline_hits");
    }
    if (CutShort) {
      if (Opts.OnDeadline == DeadlinePolicy::Fail) {
        Error = cancelMessage(*Cancel, "input refresh");
        return false;
      }
      // Degrade: every function whose inputs were still pending completes
      // this query from static frequencies. Quarantined functions are
      // static already; just make sure their frequencies are installed
      // (structural, no recovery — cheap).
      if (QuarantinedFns.count(F.get()))
        refreshFunction(*F, In);
      else if (RuntimeStale || Dirty.count(F.get()) ||
               !FreqsByFunction.count(F.get()))
        degradeForDeadline(*F, Cancel->describe());
      continue;
    }
    // The recovery fixpoint is the expensive part of reading new
    // counters; run it only when the runtime actually moved, not when a
    // query follows a pure external-delta injection.
    if (RuntimeStale && !QuarantinedFns.count(F.get())) {
      In.Base = Est->runtime().recover(*F);
      std::string Issue = totalsIssue(In.Base);
      if (!Issue.empty()) {
        // Naive plans cannot recover branch totals at all — that is an
        // unsupported configuration, not corrupt data, so it never
        // quarantines.
        if (Opts.OnBadProfile == BadProfilePolicy::Quarantine &&
            Est->plan().mode() != ProfileMode::Naive) {
          quarantine(*F, Issue);
        } else {
          In.RecoveryFailed = true;
          Ok = false;
          if (Error.empty())
            Error = "counter recovery failed for function " + F->name();
          continue;
        }
      }
      In.RecoveryFailed = false;
    } else if (!RuntimeStale && !Dirty.count(F.get())) {
      continue;
    }
    if (In.RecoveryFailed) {
      Ok = false;
      if (Error.empty())
        Error = "counter recovery failed for function " + F->name();
      continue;
    }
    auto BadIt = ExternalBad.find(F.get());
    if (BadIt != ExternalBad.end()) {
      Ok = false;
      if (Error.empty())
        Error = "profile data for function " + F->name() +
                " failed validation: " + BadIt->second;
      continue;
    }
    std::string Issue = refreshFunction(*F, In);
    if (!Issue.empty()) {
      // Only reachable under BadProfilePolicy::Fail: external data for
      // this function failed validation.
      Ok = false;
      if (Error.empty())
        Error = "profile data for function " + F->name() +
                " failed validation: " + Issue;
    }
  }
  // A cut-short refresh must stay stale: the skipped recoveries never
  // ran, so the next query (degradation lifted) redoes them for real.
  if (Ok && !CutShort) {
    RuntimeStale = false;
    Dirty.clear();
  }
  return Ok;
}

EstimationSession::ConfigCache &
EstimationSession::configFor(const CostModel &ConfigCM, LoopVarianceMode LV) {
  for (auto &C : Configs)
    if (C->LoopVariance == LV && sameCostModel(C->CM, ConfigCM))
      return *C;
  auto C = std::make_unique<ConfigCache>();
  C->CM = ConfigCM;
  C->LoopVariance = LV;
  Configs.push_back(std::move(C));
  return *Configs.back();
}

std::string EstimationSession::refreshConfig(ConfigCache &Cache) {
  ObsRegistry *Obs = Opts.Obs;
  std::vector<const Function *> Changed;
  if (Cache.Analysis) {
    for (const auto &F : P->functions()) {
      auto It = Cache.Keys.find(F.get());
      if (It == Cache.Keys.end() || It->second != Inputs[F.get()].Key)
        Changed.push_back(F.get());
    }
    if (Changed.empty()) {
      ++CacheHits;
      if (Obs)
        Obs->addCounter("session.cache_hits");
      return {};
    }
  }
  if (Obs) {
    Obs->addCounter("session.cache_misses");
    // A cold run dirties the whole program; an incremental rerun only the
    // changed functions (TimeAnalysis widens them to the dirty closure).
    Obs->addCounter("session.dirty_functions",
                    Cache.Analysis ? Changed.size() : P->functions().size());
  }

  TimeAnalysisOptions TAOpts;
  TAOpts.LoopVariance = Cache.LoopVariance;
  if (Cache.LoopVariance == LoopVarianceMode::Profiled)
    TAOpts.Stats = &Est->loopStats();
  TAOpts.Exec = Opts.Exec;
  TAOpts.Diags = Opts.Diags;
  TAOpts.Obs = Opts.Obs;
  TAOpts.Cancel = Opts.Cancel;

  TimeAnalysis Next =
      Cache.Analysis
          ? TimeAnalysis::rerun(Est->analysis(), FreqsByFunction, Cache.CM,
                                TAOpts, *Cache.Analysis, Changed)
          : TimeAnalysis::run(Est->analysis(), FreqsByFunction, Cache.CM,
                              TAOpts);
  LastEvals += Next.functionEvaluations();
  TotalEvals += Next.functionEvaluations();
  if (Obs)
    Obs->addCounter("session.evaluations", Next.functionEvaluations());
  if (Next.cutShort()) {
    if (Opts.OnDeadline == DeadlinePolicy::Fail)
      // Leave the cache untouched: the previous analysis (if any) is still
      // consistent with Cache.Keys, so the failure is atomic and the next
      // query retries from the same state.
      return cancelMessage(*Opts.Cancel, "estimation");
    // Degrade: complete the unfinished functions from static frequencies
    // with an unbudgeted incremental rerun. Waves evaluate callers after
    // callees and expiry is monotone, so everything the budgeted run
    // finished is bit-identical to an unbounded run and is reused as-is.
    std::vector<const Function *> Unfinished = Next.unfinished();
    for (const Function *F : Unfinished)
      degradeForDeadline(*F, Opts.Cancel->describe());
    TAOpts.Cancel = nullptr;
    TimeAnalysis Completed = TimeAnalysis::rerun(
        Est->analysis(), FreqsByFunction, Cache.CM, TAOpts, Next, Unfinished);
    LastEvals += Completed.functionEvaluations();
    TotalEvals += Completed.functionEvaluations();
    if (Obs)
      Obs->addCounter("session.evaluations", Completed.functionEvaluations());
    Next = std::move(Completed);
  }
  Cache.Analysis = std::make_unique<TimeAnalysis>(std::move(Next));
  Cache.Keys.clear();
  for (const auto &F : P->functions())
    Cache.Keys[F.get()] = Inputs[F.get()].Key;
  return {};
}

std::vector<EstimateResult>
EstimationSession::estimate(const std::vector<EstimateRequest> &Requests) {
  std::lock_guard<std::mutex> L(Mu);
  return estimateLocked(Requests);
}

std::vector<EstimateResult>
EstimationSession::estimate(const std::vector<EstimateRequest> &Requests,
                            CancelToken *Cancel) {
  std::lock_guard<std::mutex> L(Mu);
  ScopedCancelSwap Swap(Opts, Cancel);
  return estimateLocked(Requests);
}

std::vector<EstimateResult>
EstimationSession::estimateLocked(const std::vector<EstimateRequest> &Requests) {
  LastEvals = 0;
  ObsRegistry *Obs = Opts.Obs;
  CancelToken *Cancel = Opts.Cancel;
  uint64_t PollsBefore = Cancel ? Cancel->polls() : 0;
  auto RecordPolls = [&] {
    if (Obs && Cancel)
      Obs->addCounter("resilience.cancel_polls", Cancel->polls() - PollsBefore);
  };
  if (Obs)
    Obs->addCounter("session.queries", Requests.size());
  // Deadline degradation is per-query: lift it so this query (with a
  // fresh or absent token) recomputes the affected functions exactly.
  if (!DegradedFns.empty()) {
    for (const auto &[F, Reason] : DegradedFns)
      Dirty.insert(F);
    DegradedFns.clear();
  }
  std::string Error;
  bool InputsOk = refreshInputs(Error);

  std::vector<EstimateResult> Results(Requests.size());
  if (!InputsOk) {
    for (EstimateResult &R : Results) {
      R.Ok = false;
      R.Error = Error;
    }
    RecordPolls();
    return Results;
  }

  // Bring every configuration the batch touches up to date exactly once,
  // then answer from the caches.
  std::vector<ConfigCache *> Caches(Requests.size());
  std::set<ConfigCache *> Refreshed;
  for (size_t I = 0; I < Requests.size(); ++I) {
    const EstimateRequest &Req = Requests[I];
    ConfigCache &Cache =
        configFor(Req.Cost ? *Req.Cost : CM,
                  Req.LoopVariance ? *Req.LoopVariance : Opts.LoopVariance);
    if (Refreshed.insert(&Cache).second) {
      std::string ConfigError = refreshConfig(Cache);
      if (!ConfigError.empty()) {
        // Token expired under DeadlinePolicy::Fail: the whole batch fails
        // atomically (no cache was modified).
        for (EstimateResult &R : Results) {
          R.Ok = false;
          R.Error = ConfigError;
        }
        RecordPolls();
        return Results;
      }
    }
    Caches[I] = &Cache;
  }

  for (size_t I = 0; I < Requests.size(); ++I) {
    const EstimateRequest &Req = Requests[I];
    EstimateResult &R = Results[I];
    const Function *F = Req.Function.empty() ? P->entry()
                                             : P->findFunction(Req.Function);
    if (!F) {
      R.Error = Req.Function.empty()
                    ? "program has no entry procedure"
                    : "unknown function '" + Req.Function + "'";
      continue;
    }
    const TimeAnalysis &A = *Caches[I]->Analysis;
    R.Ok = true;
    R.F = F;
    R.Time = A.functionTime(*F);
    R.Var = A.functionVariance(*F);
    R.StdDev = std::sqrt(R.Var > 0.0 ? R.Var : 0.0);
    auto QIt = QuarantinedFns.find(F);
    if (QIt != QuarantinedFns.end()) {
      R.Quarantined = true;
      R.QuarantineReason = QIt->second;
    }
    auto DIt = DegradedFns.find(F);
    if (DIt != DegradedFns.end()) {
      R.Degraded = true;
      R.DegradeReason = DIt->second;
    }
    R.Analysis = &A;
  }
  RecordPolls();
  return Results;
}

ProfileFile EstimationSession::captureProfileLocked() const {
  return ProfileFile::capture(Est->analysis(), Est->plan(), Est->runtime(),
                              &Est->loopStats(), Runs);
}

ProfileFile EstimationSession::captureProfile() const {
  std::lock_guard<std::mutex> L(Mu);
  return captureProfileLocked();
}

bool EstimationSession::saveProfile(const std::string &Path,
                                    DiagnosticEngine *Diags) const {
  std::lock_guard<std::mutex> L(Mu);
  return captureProfileLocked().saveToFile(Path, Diags, Opts.IoRetry,
                                           Opts.Obs);
}

void EstimationSession::captureDurableState(
    durable::DurableSessionState &Out) const {
  std::lock_guard<std::mutex> L(Mu);
  Out.Runs = Runs;
  Out.ProfileImage = captureProfileLocked().serialize();
  Out.External.clear();
  Out.Saturated.clear();
  Out.Quarantined.clear();
  // Program order throughout: External/SaturatedFns/QuarantinedFns are
  // pointer-keyed, and pointer order is not deterministic across runs of
  // the daemon — iterating them directly would break the equal-state ⇒
  // equal-bytes contract the snapshot format promises.
  for (const auto &FPtr : P->functions()) {
    const Function *F = FPtr.get();
    auto EIt = External.find(F);
    if (EIt != External.end() && !EIt->second.empty()) {
      durable::FoldEntry FE;
      FE.Function = F->name();
      for (const auto &[Cond, Total] : EIt->second)
        FE.Conds.push_back({Cond.Node,
                            static_cast<uint8_t>(Cond.Label), Total});
      Out.External.push_back(std::move(FE));
    }
    if (SaturatedFns.count(F))
      Out.Saturated.push_back(F->name());
    auto QIt = QuarantinedFns.find(F);
    if (QIt != QuarantinedFns.end())
      Out.Quarantined.emplace_back(F->name(), QIt->second);
  }
}

bool EstimationSession::markQuarantined(const std::string &FunctionName,
                                        const std::string &Reason) {
  std::lock_guard<std::mutex> L(Mu);
  const Function *F = P->findFunction(FunctionName);
  if (!F)
    return false;
  quarantine(*F, Reason);
  return true;
}

ProfileIngestReport EstimationSession::ingestProfile(const ProfileFile &PF) {
  std::lock_guard<std::mutex> L(Mu);
  return ingestProfileLocked(PF);
}

ProfileIngestReport EstimationSession::ingestProfile(const ProfileFile &PF,
                                                     CancelToken *Cancel) {
  std::lock_guard<std::mutex> L(Mu);
  ScopedCancelSwap Swap(Opts, Cancel);
  return ingestProfileLocked(PF);
}

ProfileIngestReport
EstimationSession::ingestProfileLocked(const ProfileFile &PF) {
  ProfileIngestReport Report;
  ObsRegistry *Obs = Opts.Obs;
  if (Obs)
    Obs->addCounter("session.ingest.profiles");

  if (PF.programFingerprint() != programFingerprintOf(Est->analysis())) {
    Report.Error = "profile was recorded against a different program "
                   "(program fingerprint mismatch)";
    return Report;
  }
  if (PF.mode() != Est->plan().mode()) {
    Report.Error = std::string("profile counter mode ") +
                   profileModeName(PF.mode()) +
                   " does not match the session's " +
                   profileModeName(Est->plan().mode());
    return Report;
  }

  // Phase 1: validate every section without touching session state, so a
  // Fail-policy rejection is atomic.
  struct GoodSection {
    const Function *F = nullptr;
    FrequencyTotals Totals;
    const FunctionSection *S = nullptr;
  };
  std::vector<GoodSection> Good;
  std::vector<std::pair<const Function *, std::string>> Bad;
  CancelToken *Cancel = Opts.Cancel;
  for (const FunctionSection &S : PF.sections()) {
    // Validation only reads; aborting between sections leaves the session
    // untouched, so a mid-ingest expiry is atomic under every policy.
    if (Cancel && Cancel->checkpoint()) {
      Report.Error = cancelMessage(*Cancel, "profile ingest") +
                     "; nothing ingested";
      if (Obs)
        Obs->addCounter(Cancel->reason() == CancelReason::Cancelled
                            ? "resilience.cancellations"
                            : "resilience.deadline_hits");
      return Report;
    }
    if (Obs)
      Obs->addCounter("session.ingest.sections");
    const Function *F = P->findFunction(S.Name);
    if (!F) {
      Report.Findings.push_back(S.Name + ": profile names a function this "
                                         "program does not have");
      continue;
    }
    auto Reject = [&](const std::string &Why) {
      Bad.emplace_back(F, Why);
      Report.Findings.push_back(S.Name + ": " + Why);
    };
    const FunctionAnalysis *FA = Est->analysis().tryOf(*F);
    if (!FA) {
      Report.Findings.push_back(S.Name + ": function failed analysis; "
                                         "section ignored");
      continue;
    }
    if (QuarantinedFns.count(F)) {
      Report.Findings.push_back(S.Name + ": function is quarantined; "
                                         "section ignored");
      continue;
    }
    if (!S.Valid) {
      Reject(S.Issue);
      continue;
    }
    if (S.Fingerprint != structuralFingerprintOf(*FA)) {
      Reject("structural fingerprint mismatch (profile predates a change "
             "to this function)");
      continue;
    }
    if (S.Counters.size() != Est->plan().of(*F).numCounters()) {
      Reject("profile has " + std::to_string(S.Counters.size()) +
             " counters, plan expects " +
             std::to_string(Est->plan().of(*F).numCounters()));
      continue;
    }
    bool ValuesOk = true;
    for (double C : S.Counters)
      if (!std::isfinite(C) || C < 0.0 || C > ProfileFile::SaturationLimit) {
        Reject("counter values are non-finite, negative or overflowed");
        ValuesOk = false;
        break;
      }
    if (!ValuesOk)
      continue;
    for (const ProfileLoopMoments &L : S.Loops) {
      if (!std::isfinite(L.Entries) || !std::isfinite(L.Sum) ||
          !std::isfinite(L.SumSq) || L.Entries < 0.0 || L.Sum < 0.0 ||
          L.SumSq < 0.0) {
        Reject("loop moments are non-finite or negative");
        ValuesOk = false;
        break;
      }
      if (L.HeaderStmt >= F->numStmts()) {
        Reject("loop moments name a statement this function does not have");
        ValuesOk = false;
        break;
      }
      // Cauchy-Schwarz: E[FREQ^2] >= E[FREQ]^2, i.e. SumSq*Entries >=
      // Sum^2 — garbled moments usually break this.
      if (L.Entries > 0.0 &&
          L.SumSq * L.Entries + 1e-6 * L.Sum * L.Sum < L.Sum * L.Sum) {
        Reject("loop moments are internally inconsistent (E[F^2] < E[F]^2)");
        ValuesOk = false;
        break;
      }
    }
    if (!ValuesOk)
      continue;
    FrequencyTotals Totals =
        recoverTotals(*FA, Est->plan().of(*F), S.Counters, nullptr, nullptr,
                      Cancel);
    if (Cancel && Cancel->expired()) {
      // Expiry inside the recovery fixpoint is a transient cut, not bad
      // data: abort the ingest rather than misclassify the section.
      Report.Error = cancelMessage(*Cancel, "profile ingest") +
                     "; nothing ingested";
      return Report;
    }
    std::string Issue = totalsIssue(Totals);
    if (Issue.empty()) {
      std::vector<std::string> Findings =
          checkFrequencyConsistency(*FA, Totals);
      if (!Findings.empty())
        Issue = Findings.front();
    }
    if (!Issue.empty()) {
      Reject(Issue);
      continue;
    }
    Good.push_back({F, std::move(Totals), &S});
  }

  if (Opts.OnBadProfile == BadProfilePolicy::Fail && !Bad.empty()) {
    Report.Error = "profile failed validation for " +
                   std::to_string(Bad.size()) +
                   " function(s); nothing ingested";
    for (const auto &[F, Why] : Bad)
      Report.Quarantined.push_back(F->name());
    if (Obs)
      Obs->addCounter("session.ingest.rejected", Bad.size());
    return Report;
  }

  // Phase 2: fold the clean sections, quarantine the bad ones.
  for (const auto &[F, Why] : Bad) {
    quarantine(*F, Why);
    Report.Quarantined.push_back(F->name());
  }
  // A clean section's counters join the counter runtime exactly as a
  // profiled run's would, so every capture of the session carries them.
  for (GoodSection &G : Good) {
    bool Saturated =
        Est->runtimeMutable().addCounters(*G.F, G.S->Counters);
    if (Saturated)
      noteSaturation(*G.F);
    for (const ProfileLoopMoments &L : G.S->Loops)
      Est->loopStatsMutable().addMoments(
          *G.F, L.HeaderStmt, {L.Entries, L.Sum, L.SumSq});
    // Recovery is linear in the counters: unless every function is to be
    // recovered again anyway, add the totals validation just recovered to
    // the cached ones instead of solving the function again.
    if (!RuntimeStale) {
      if (!Saturated && addExactTotals(Inputs[G.F].Base, G.Totals))
        Dirty.insert(G.F);
      else
        RuntimeStale = true;
    }
    ++Report.Accepted;
  }
  uint64_t AllRuns = static_cast<uint64_t>(Runs) + PF.runs();
  Runs = AllRuns > UINT32_MAX ? UINT32_MAX : static_cast<unsigned>(AllRuns);
  if (Obs) {
    Obs->addCounter("session.ingest.accepted", Report.Accepted);
    Obs->addCounter("session.ingest.quarantined", Bad.size());
  }
  Report.Ok = true;
  return Report;
}

EstimateResult EstimationSession::estimate(const EstimateRequest &Request) {
  return estimate(std::vector<EstimateRequest>{Request})[0];
}

EstimateResult EstimationSession::estimateEntry() {
  return estimate(EstimateRequest());
}
