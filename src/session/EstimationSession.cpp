//===--- session/EstimationSession.cpp - Incremental estimation -----------===//

#include "session/EstimationSession.h"

#include "freq/StaticFrequencies.h"
#include "profile/ConsistencyCheck.h"
#include "support/Saturation.h"

#include <algorithm>
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
  S->Est = Estimator::create(P, CM, Opts);
  if (!S->Est)
    return nullptr;
  return S;
}

uint64_t EstimationSession::bumpEpoch() {
  ++StateEpoch;
  return View ? StateEpoch : 0;
}

RunResult EstimationSession::profiledRun(uint64_t MaxSteps) {
  RunResult R;
  uint64_t Epoch = 0;
  {
    std::lock_guard<std::mutex> L(Mu);
    Runs.fetch_add(1, std::memory_order_relaxed);
    RuntimeStale = true;
    if (ObsRegistry *Obs = Opts.Obs)
      Obs->addCounter("session.runs");
    R = Est->profiledRun(MaxSteps);
    Epoch = bumpEpoch();
  }
  refreshView(Epoch);
  return R;
}

void EstimationSession::accumulateTotals(const Function &F,
                                         const FrequencyTotals &Delta) {
  uint64_t Epoch = 0;
  {
    std::lock_guard<std::mutex> L(Mu);
    accumulateTotalsLocked(F, Delta);
    Epoch = bumpEpoch();
  }
  refreshView(Epoch);
}

void EstimationSession::accumulateTotalsLocked(const Function &F,
                                               const FrequencyTotals &Delta) {
  // Deltas may be partial (no Σ identities to hold them to), but they
  // must have the function's shape (or be empty: no totals at all), and
  // the values themselves must be sane counts.
  const size_t NumConds = Est->analysis().of(F).cd().conditions().size();
  auto Sane = [](double Total) {
    return std::isfinite(Total) && Total >= 0.0 &&
           Total <= ProfileFile::SaturationLimit;
  };
  std::string Issue;
  if (!Delta.Cond.empty() && Delta.Cond.size() != NumConds)
    Issue = "externally accumulated totals hold " +
            std::to_string(Delta.Cond.size()) + " condition totals, " +
            F.name() + " has " + std::to_string(NumConds);
  else if (!std::all_of(Delta.Cond.begin(), Delta.Cond.end(), Sane))
    Issue = "externally accumulated totals are non-finite, negative or "
            "overflowed";
  if (!Issue.empty()) {
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
  bool Saturated = false;
  if (std::any_of(Delta.Cond.begin(), Delta.Cond.end(),
                  [](double T) { return T != 0.0; })) {
    std::vector<double> &Acc = External[&F];
    Acc.resize(NumConds, 0.0);
    for (size_t C = 0; C < NumConds; ++C)
      if (Delta.Cond[C] != 0.0)
        Saturated |= saturatingAdd(Acc[C], Delta.Cond[C]);
  }
  if (Saturated)
    noteSaturation(F);
  Dirty.insert(&F);
}

std::vector<durable::CondTotal>
EstimationSession::condRecords(const Function &F,
                               const std::vector<double> &Cond) const {
  const std::vector<ControlCondition> &Conds =
      Est->analysis().of(F).cd().conditions();
  std::vector<durable::CondTotal> Out;
  for (size_t C = 0; C < Cond.size() && C < Conds.size(); ++C)
    if (Cond[C] != 0.0)
      Out.push_back({Conds[C].Node, static_cast<uint8_t>(Conds[C].Label),
                     Cond[C]});
  return Out;
}

FrequencyTotals EstimationSession::deltaFromRecords(
    const Function &F, const std::vector<durable::CondTotal> &Records,
    size_t &Dropped) const {
  const ControlDependence &CD = Est->analysis().of(F).cd();
  FrequencyTotals T;
  T.Ok = true;
  T.Cond.assign(CD.conditions().size(), 0.0);
  for (const durable::CondTotal &R : Records) {
    unsigned Id =
        CD.conditionId({R.Node, static_cast<CfgLabel>(R.Label)});
    if (Id == ControlDependence::InvalidCondition)
      ++Dropped;
    else
      T.Cond[Id] = R.Total;
  }
  return T;
}

uint64_t EstimationSession::foldTotalsBatch(
    const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas) {
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &[F, Delta] : Deltas)
    accumulateTotalsLocked(*F, Delta);
  return bumpEpoch();
}

void EstimationSession::accumulateTotalsBatch(
    const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas) {
  refreshView(foldTotalsBatch(Deltas));
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
  for (double Total : Totals.Cond)
    MixDouble(Total);
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
  for (double Total : Totals.Cond)
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
  // The view carries the quarantine tags: it must not outlive this
  // unrefreshed.
  ++StateEpoch;
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
  if (It == External.end())
    return false;
  const std::vector<double> &Ext = It->second;
  // A failed recovery leaves no condition totals to add onto.
  Totals.Cond.resize(Ext.size(), 0.0);
  for (size_t C = 0; C < Ext.size(); ++C)
    if (Ext[C] != 0.0) // Zero: no delta touched the condition.
      Saturated |= saturatingAdd(Totals.Cond[C], Ext[C]);
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

bool EstimationSession::refreshInputs(std::string &Error,
                                      CancelToken *Cancel) {
  if (!RuntimeStale && Dirty.empty())
    return true;
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
    // Recovery is the expensive part of reading new counters; run it
    // only when the runtime actually moved, not when a query follows a
    // pure external-delta injection.
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

bool EstimationSession::isDefault(const EstimateRequest &R) const {
  return (!R.Cost || sameCostModel(*R.Cost, CM)) &&
         (!R.LoopVariance || *R.LoopVariance == Opts.LoopVariance);
}

std::string EstimationSession::refreshConfig(ConfigCache &Cache,
                                             CancelToken *Cancel) {
  ObsRegistry *Obs = Opts.Obs;
  std::vector<const Function *> Changed;
  if (Cache.Analysis) {
    for (const auto &F : P->functions()) {
      auto It = Cache.Keys.find(F.get());
      if (It == Cache.Keys.end() || It->second != Inputs[F.get()].Key)
        Changed.push_back(F.get());
    }
    if (Changed.empty()) {
      CacheHits.fetch_add(1, std::memory_order_relaxed);
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
  TAOpts.Diags = Opts.Diags;
  TAOpts.Obs = Opts.Obs;
  TAOpts.Cancel = Cancel;

  TimeAnalysis Next =
      Cache.Analysis
          ? TimeAnalysis::rerun(Est->analysis(), FreqsByFunction, Cache.CM,
                                TAOpts, *Cache.Analysis, Changed)
          : TimeAnalysis::run(Est->analysis(), FreqsByFunction, Cache.CM,
                              TAOpts);
  TotalEvals.fetch_add(Next.functionEvaluations(), std::memory_order_relaxed);
  if (Obs)
    Obs->addCounter("session.evaluations", Next.functionEvaluations());
  if (Next.cutShort()) {
    if (Opts.OnDeadline == DeadlinePolicy::Fail)
      // Leave the cache untouched: the previous analysis (if any) is still
      // consistent with Cache.Keys, so the failure is atomic and the next
      // query retries from the same state.
      return cancelMessage(*Cancel, "estimation");
    // Degrade: complete the unfinished functions from static frequencies
    // with an unbudgeted incremental rerun. The pass evaluates callers
    // after callees and expiry is monotone, so everything the budgeted run
    // finished is bit-identical to an unbounded run and is reused as-is.
    std::vector<const Function *> Unfinished = Next.unfinished();
    for (const Function *F : Unfinished)
      degradeForDeadline(*F, Cancel->describe());
    TAOpts.Cancel = nullptr;
    TimeAnalysis Completed = TimeAnalysis::rerun(
        Est->analysis(), FreqsByFunction, Cache.CM, TAOpts, Next, Unfinished);
    TotalEvals.fetch_add(Completed.functionEvaluations(),
                         std::memory_order_relaxed);
    if (Obs)
      Obs->addCounter("session.evaluations", Completed.functionEvaluations());
    Next = std::move(Completed);
  }
  Cache.Analysis = std::make_shared<const TimeAnalysis>(std::move(Next));
  Cache.Keys.clear();
  for (const auto &F : P->functions())
    Cache.Keys[F.get()] = Inputs[F.get()].Key;
  return {};
}

void EstimationSession::liftDegradation() {
  for (const auto &[F, Reason] : DegradedFns)
    Dirty.insert(F);
  DegradedFns.clear();
}

void EstimationSession::setView(std::shared_ptr<const DefaultView> Next) {
  {
    std::lock_guard<std::mutex> L(ViewMu);
    View.swap(Next);
  }
  // Next now holds the old view; if it was the last reference, the
  // analysis it kept alive is freed here, outside ViewMu.
}

void EstimationSession::publish(const ConfigCache &Cache) {
  auto V = std::make_shared<DefaultView>();
  V->Epoch = StateEpoch;
  V->Analysis = Cache.Analysis;
  V->Quarantined = QuarantinedFns;
  setView(std::move(V));
}

void EstimationSession::refreshDefault(CancelToken *Cancel) {
  liftDegradation();
  std::string Error;
  ConfigCache &Cache = configFor(CM, Opts.LoopVariance);
  // Never publish a degraded or failed analysis: drop the view instead,
  // and the next read recomputes under the lock.
  if (refreshInputs(Error, Cancel) && DegradedFns.empty() &&
      refreshConfig(Cache, Cancel).empty() && DegradedFns.empty())
    publish(Cache);
  else
    setView(nullptr);
}

void EstimationSession::refreshView(uint64_t Epoch, CancelToken *Cancel) {
  if (Epoch == 0)
    return;
  std::lock_guard<std::mutex> L(Mu);
  // No view: a mutation never creates one. A view at or past Epoch:
  // another writer's refresh (or a locked read) already covers this fold.
  if (!View || View->Epoch >= Epoch)
    return;
  refreshDefault(Cancel ? Cancel : Opts.Cancel);
}

void EstimationSession::dropView() {
  std::lock_guard<std::mutex> L(Mu);
  setView(nullptr);
}

/// Fills one answer from \p A; \p Degraded is null on the lock-free path,
/// whose views are never degraded.
static void answer(const Program &P, const EstimateRequest &Req,
                   const std::shared_ptr<const TimeAnalysis> &A,
                   const std::map<const Function *, std::string> &Quarantined,
                   const std::map<const Function *, std::string> *Degraded,
                   EstimateResult &R) {
  const Function *F =
      Req.Function.empty() ? P.entry() : P.findFunction(Req.Function);
  if (!F) {
    R.Error = Req.Function.empty() ? "program has no entry procedure"
                                   : "unknown function '" + Req.Function + "'";
    return;
  }
  R.Ok = true;
  R.F = F;
  R.Time = A->functionTime(*F);
  R.Var = A->functionVariance(*F);
  R.StdDev = std::sqrt(R.Var > 0.0 ? R.Var : 0.0);
  auto QIt = Quarantined.find(F);
  if (QIt != Quarantined.end()) {
    R.Quarantined = true;
    R.QuarantineReason = QIt->second;
  }
  if (Degraded) {
    auto DIt = Degraded->find(F);
    if (DIt != Degraded->end()) {
      R.Degraded = true;
      R.DegradeReason = DIt->second;
    }
  }
  R.Analysis = A;
}

std::vector<EstimateResult>
EstimationSession::estimate(const std::vector<EstimateRequest> &Requests,
                            CancelToken *Cancel) {
  if (std::all_of(Requests.begin(), Requests.end(),
                  [this](const EstimateRequest &R) { return isDefault(R); })) {
    std::shared_ptr<const DefaultView> V;
    {
      std::lock_guard<std::mutex> L(ViewMu);
      V = View;
    }
    if (V) {
      LastEvals.store(0, std::memory_order_relaxed);
      CacheHits.fetch_add(1, std::memory_order_relaxed);
      if (ObsRegistry *Obs = Opts.Obs) {
        Obs->addCounter("session.queries", Requests.size());
        Obs->addCounter("session.cache_hits");
      }
      std::vector<EstimateResult> Results(Requests.size());
      for (size_t I = 0; I < Requests.size(); ++I)
        answer(*P, Requests[I], V->Analysis, V->Quarantined, nullptr,
               Results[I]);
      return Results;
    }
  }
  std::lock_guard<std::mutex> L(Mu);
  return estimateLocked(Requests, Cancel ? Cancel : Opts.Cancel);
}

std::vector<EstimateResult>
EstimationSession::estimateLocked(const std::vector<EstimateRequest> &Requests,
                                  CancelToken *Cancel) {
  const uint64_t EvalsBefore = TotalEvals.load(std::memory_order_relaxed);
  const uint64_t EpochBefore = StateEpoch;
  ObsRegistry *Obs = Opts.Obs;
  uint64_t PollsBefore = Cancel ? Cancel->polls() : 0;
  std::vector<EstimateResult> Results(Requests.size());
  ConfigCache *Default = nullptr;
  // Every exit: account the evaluations and polls, then publish the
  // default configuration if it ended exact; a view this call made stale
  // (a quarantine during the refresh) and could not republish is dropped.
  auto Finish = [&] {
    LastEvals.store(TotalEvals.load(std::memory_order_relaxed) - EvalsBefore,
                    std::memory_order_relaxed);
    if (Obs && Cancel)
      Obs->addCounter("resilience.cancel_polls", Cancel->polls() - PollsBefore);
    if (Default && DegradedFns.empty()) {
      if (!View || View->Epoch != StateEpoch ||
          View->Analysis != Default->Analysis)
        publish(*Default);
    } else if (View && StateEpoch != EpochBefore) {
      setView(nullptr);
    }
    return Results;
  };
  auto FailAll = [&](const std::string &Error) {
    for (EstimateResult &R : Results) {
      R.Ok = false;
      R.Error = Error;
    }
    Default = nullptr;
    return Finish();
  };
  if (Obs)
    Obs->addCounter("session.queries", Requests.size());
  // Deadline degradation is per-query: lift it so this query (with a
  // fresh or absent token) recomputes the affected functions exactly.
  liftDegradation();
  std::string Error;
  if (!refreshInputs(Error, Cancel))
    return FailAll(Error);

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
      std::string ConfigError = refreshConfig(Cache, Cancel);
      // Token expired under DeadlinePolicy::Fail: the whole batch fails
      // atomically (no cache was modified).
      if (!ConfigError.empty())
        return FailAll(ConfigError);
      if (isDefault(Req))
        Default = &Cache;
    }
    Caches[I] = &Cache;
  }

  for (size_t I = 0; I < Requests.size(); ++I)
    answer(*P, Requests[I], Caches[I]->Analysis, QuarantinedFns, &DegradedFns,
           Results[I]);
  return Finish();
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
    if (EIt != External.end())
      Out.External.push_back({F->name(), condRecords(*F, EIt->second)});
    if (SaturatedFns.count(F))
      Out.Saturated.push_back(F->name());
    auto QIt = QuarantinedFns.find(F);
    if (QIt != QuarantinedFns.end())
      Out.Quarantined.emplace_back(F->name(), QIt->second);
  }
}

void EstimationSession::restoreDurableState(
    const durable::DurableSessionState &State,
    std::vector<std::string> &Diagnostics) {
  const std::string Where = "snapshot '" + State.Name + "'";
  std::optional<ProfileFile> PF;
  ValidatedProfile V;
  if (!State.ProfileImage.empty()) {
    DiagnosticEngine LoadDiags;
    PF = ProfileFile::deserialize(State.ProfileImage, &LoadDiags);
    if (PF)
      V = validateProfile(*PF, nullptr);
    else
      Diagnostics.push_back(Where + ": profile image failed to parse: " +
                            LoadDiags.str());
  }
  uint64_t Epoch = 0;
  {
    std::lock_guard<std::mutex> L(Mu);
    std::set<const Function *> Quarantined;
    for (const auto &[Fn, Reason] : State.Quarantined)
      if (const Function *F = P->findFunction(Fn))
        Quarantined.insert(F);
    // The image first, quarantined functions' sections included: the
    // quarantine below would otherwise make the fold skip them and drop
    // the counters their runs left in the runtime.
    if (PF) {
      ProfileIngestReport Rep = foldProfileLocked(V, &Quarantined);
      if (!Rep.Ok)
        Diagnostics.push_back(Where + ": profile image failed to ingest: " +
                              Rep.Error);
    }
    for (const auto &[Fn, Reason] : State.Quarantined) {
      if (const Function *F = P->findFunction(Fn))
        quarantine(*F, Reason);
      else
        Diagnostics.push_back(Where + ": quarantined function '" + Fn +
                              "' not found in the rebuilt program");
    }
    for (const durable::FoldEntry &FE : State.External) {
      const Function *F = P->findFunction(FE.Function);
      if (!F) {
        Diagnostics.push_back(Where + ": function '" + FE.Function +
                              "' not found; its totals dropped");
        continue;
      }
      size_t Dropped = 0;
      accumulateTotalsLocked(*F, deltaFromRecords(*F, FE.Conds, Dropped));
      if (Dropped)
        Diagnostics.push_back(Where + ": " + std::to_string(Dropped) +
                              " total(s) for function '" + FE.Function +
                              "' name conditions it does not have; "
                              "dropped");
    }
    for (const std::string &Fn : State.Saturated) {
      if (const Function *F = P->findFunction(Fn))
        noteSaturation(*F);
      else
        Diagnostics.push_back(Where + ": saturated function '" + Fn +
                              "' not found");
    }
    Epoch = bumpEpoch();
  }
  refreshView(Epoch);
}

ProfileIngestReport EstimationSession::ingestProfile(const ProfileFile &PF,
                                                     CancelToken *Cancel) {
  uint64_t Epoch = 0;
  ProfileIngestReport Report = foldProfile(validateProfile(PF, Cancel), Epoch);
  refreshView(Epoch, Cancel);
  return Report;
}

ValidatedProfile EstimationSession::validateProfile(const ProfileFile &PF,
                                                    CancelToken *Cancel) const {
  if (!Cancel)
    Cancel = Opts.Cancel;
  ValidatedProfile V;
  V.Runs = PF.runs();
  ObsRegistry *Obs = Opts.Obs;
  if (Obs)
    Obs->addCounter("session.ingest.profiles");

  if (PF.programFingerprint() != programFingerprintOf(Est->analysis())) {
    V.Error = "profile was recorded against a different program "
              "(program fingerprint mismatch)";
    return V;
  }
  const ProfileMode Mode = Est->plan().mode();
  if (PF.mode() != Mode) {
    V.Error = std::string("profile counter mode ") +
              profileModeName(PF.mode()) + " does not match the session's " +
              profileModeName(Mode);
    return V;
  }

  auto CutShort = [&] {
    V.Error = cancelMessage(*Cancel, "profile ingest") + "; nothing ingested";
    V.Sections.clear();
    return V;
  };
  for (const FunctionSection &S : PF.sections()) {
    // Validation only reads; aborting between sections leaves the session
    // untouched, so a mid-ingest expiry is atomic under every policy.
    if (Cancel && Cancel->checkpoint()) {
      if (Obs)
        Obs->addCounter(Cancel->reason() == CancelReason::Cancelled
                            ? "resilience.cancellations"
                            : "resilience.deadline_hits");
      return CutShort();
    }
    if (Obs)
      Obs->addCounter("session.ingest.sections");
    ValidatedProfile::Section &Sec = V.Sections.emplace_back();
    Sec.S = &S;
    const Function *F = P->findFunction(S.Name);
    if (!F) {
      Sec.Finding = "profile names a function this program does not have";
      continue;
    }
    const FunctionAnalysis *FA = Est->analysis().tryOf(*F);
    if (!FA) {
      Sec.Finding = "function failed analysis; section ignored";
      continue;
    }
    Sec.F = F;
    Sec.Issue = [&]() -> std::string {
      if (!S.Valid)
        return S.Issue;
      if (S.Fingerprint != structuralFingerprintOf(*FA))
        return "structural fingerprint mismatch (profile predates a change "
               "to this function)";
      unsigned Expected = Est->plan().of(*F).numCounters();
      if (S.Counters.size() != Expected)
        return "profile has " + std::to_string(S.Counters.size()) +
               " counters, plan expects " + std::to_string(Expected);
      for (double C : S.Counters)
        if (!std::isfinite(C) || C < 0.0 || C > ProfileFile::SaturationLimit)
          return "counter values are non-finite, negative or overflowed";
      for (const ProfileLoopMoments &L : S.Loops) {
        if (!std::isfinite(L.Entries) || !std::isfinite(L.Sum) ||
            !std::isfinite(L.SumSq) || L.Entries < 0.0 || L.Sum < 0.0 ||
            L.SumSq < 0.0)
          return "loop moments are non-finite or negative";
        if (L.HeaderStmt >= F->numStmts())
          return "loop moments name a statement this function does not have";
        // Cauchy-Schwarz: E[FREQ^2] >= E[FREQ]^2, i.e. SumSq*Entries >=
        // Sum^2 — garbled moments usually break this.
        if (L.Entries > 0.0 &&
            L.SumSq * L.Entries + 1e-6 * L.Sum * L.Sum < L.Sum * L.Sum)
          return "loop moments are internally inconsistent (E[F^2] < "
                 "E[F]^2)";
      }
      return {};
    }();
    if (!Sec.Issue.empty())
      continue;
    Sec.ShapeOk = true;
    // Naive plans count every block and recover no branch totals at all
    // (an unsupported configuration, not bad data): shape and values are
    // all there is to check.
    if (Mode == ProfileMode::Naive)
      continue;
    Sec.Totals = recoverTotals(*FA, Est->plan().of(*F), S.Counters, nullptr,
                               nullptr, Cancel);
    // Expiry during recovery is a transient cut, not bad data: abort the
    // ingest rather than misclassify the section.
    if (Cancel && Cancel->expired())
      return CutShort();
    Sec.Issue = totalsIssue(Sec.Totals);
    if (Sec.Issue.empty()) {
      std::vector<std::string> Findings =
          checkFrequencyConsistency(*FA, Sec.Totals);
      if (!Findings.empty())
        Sec.Issue = Findings.front();
    }
  }
  return V;
}

ProfileIngestReport EstimationSession::foldProfile(const ValidatedProfile &V,
                                                   uint64_t &Epoch) {
  std::lock_guard<std::mutex> L(Mu);
  ProfileIngestReport Report = foldProfileLocked(V);
  Epoch = Report.Ok ? bumpEpoch() : 0;
  return Report;
}

ProfileIngestReport EstimationSession::foldProfileLocked(
    const ValidatedProfile &V, const std::set<const Function *> *Restoring) {
  ProfileIngestReport Report;
  Report.Error = V.Error;
  if (!V.Error.empty())
    return Report;
  ObsRegistry *Obs = Opts.Obs;

  // Sort the sections by the session's current quarantine set: the check
  // belongs here, not in validation, because only the fold sees the
  // quarantines every earlier fold made.
  std::vector<const ValidatedProfile::Section *> Good, Bad;
  for (const ValidatedProfile::Section &Sec : V.Sections) {
    const std::string &Name = Sec.S->Name;
    if (!Sec.F) {
      Report.Findings.push_back(Name + ": " + Sec.Finding);
    } else if (Restoring && Restoring->count(Sec.F)) {
      if (Sec.ShapeOk)
        Good.push_back(&Sec);
    } else if (QuarantinedFns.count(Sec.F)) {
      Report.Findings.push_back(Name + ": function is quarantined; section "
                                       "ignored");
    } else if (!Sec.Issue.empty()) {
      Bad.push_back(&Sec);
      Report.Findings.push_back(Name + ": " + Sec.Issue);
    } else {
      Good.push_back(&Sec);
    }
  }

  if (Opts.OnBadProfile == BadProfilePolicy::Fail && !Bad.empty()) {
    Report.Error = "profile failed validation for " +
                   std::to_string(Bad.size()) +
                   " function(s); nothing ingested";
    for (const ValidatedProfile::Section *Sec : Bad)
      Report.Quarantined.push_back(Sec->F->name());
    if (Obs)
      Obs->addCounter("session.ingest.rejected", Bad.size());
    return Report;
  }

  for (const ValidatedProfile::Section *Sec : Bad) {
    quarantine(*Sec->F, Sec->Issue);
    Report.Quarantined.push_back(Sec->F->name());
  }
  // A clean section's counters join the counter runtime exactly as a
  // profiled run's would, so every capture of the session carries them.
  for (const ValidatedProfile::Section *Sec : Good) {
    const Function &F = *Sec->F;
    bool Saturated = Est->runtimeMutable().addCounters(F, Sec->S->Counters);
    if (Saturated)
      noteSaturation(F);
    for (const ProfileLoopMoments &L : Sec->S->Loops)
      Est->loopStatsMutable().addMoments(F, L.HeaderStmt,
                                         {L.Entries, L.Sum, L.SumSq});
    // Recovery is linear in the counters: unless every function is to be
    // recovered again anyway, add the totals validation just recovered to
    // the cached ones instead of solving the function again. Sections
    // without exact totals (naive plans, restored quarantined functions)
    // leave the runtime to be recovered at the next refresh.
    if (!RuntimeStale) {
      if (!Saturated && addExactTotals(Inputs[&F].Base, Sec->Totals))
        Dirty.insert(&F);
      else
        RuntimeStale = true;
    }
    ++Report.Accepted;
  }
  uint64_t AllRuns = static_cast<uint64_t>(Runs) + V.Runs;
  Runs.store(AllRuns > UINT32_MAX ? UINT32_MAX
                                  : static_cast<unsigned>(AllRuns),
             std::memory_order_relaxed);
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
