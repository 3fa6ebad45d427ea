//===--- session/EstimationSession.h - Incremental estimation ---*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A resident estimation service. Where an Estimator answers one
/// analyze() call from scratch, an EstimationSession keeps the program's
/// analyses, counter plan and per-function TIME/VAR summaries alive
/// across many profiled runs and queries, and re-runs the interprocedural
/// TimeAnalysis only over the functions whose inputs actually changed.
///
/// Every function's cached summary is keyed by the structural fingerprint
/// that profile files bind their sections to (structuralFingerprintOf)
/// mixed with a hash of its accumulated condition totals and
/// loop-frequency moments; every cached analysis additionally remembers
/// the exact cost model and loop-variance mode it was computed under. A
/// query after new profiled runs therefore invalidates only the
/// functions whose totals changed — plus their call-graph ancestors,
/// which TimeAnalysis::rerun widens to whole SCCs of the condensation —
/// and re-evaluates just that dirty subgraph, callees first, feeding
/// cached callee summaries in at the frontier. Results are bit-identical
/// to a cold recomputation (the tests memcmp them).
///
/// The batch API estimate(Requests) lets tools ask for many functions
/// under many configurations in one call; ptran-estimate, the
/// profile_explorer example and the scaling benchmark are thin clients of
/// it.
///
/// Concurrency contract (what ptran-serve relies on). Any number of
/// threads may call the public members on one session; who takes which
/// lock:
///
///   - A read of the default configuration (session cost model and
///     loop-variance mode, no override) takes no session lock when a
///     published view exists: it copies one shared_ptr under ViewMu, a
///     mutex held only for that pointer copy, and answers from the
///     immutable analysis and quarantine tags the view holds. Lock-free
///     reads count as cache hits.
///   - Every other read (an override, or any read while no view exists)
///     and every mutation takes the session lock Mu. A locked
///     default-configuration read that ends exact publishes the view;
///     a mutation never creates one.
///   - A mutation that finds a view refreshes it before returning:
///     profiledRun, accumulateTotals(Batch), ingestProfile (whose fold
///     may quarantine) and restoreDurableState. A refresh that cannot
///     finish exactly (token expired, recovery failed) drops the view, so
///     the next read takes the locked path. Either way a read that starts
///     after a mutation returned sees that mutation (read-your-writes),
///     and a view is always one consistent cut (all-or-nothing).
///   - Callers that hold locks of their own split a mutation in two:
///     validateProfile (const, no lock) + foldProfile, or foldTotalsBatch,
///     under their locks, then refreshView after releasing them. One
///     refresh covers every fold committed before it; a writer whose fold
///     is already published skips its own.
///
/// EstimateResult::Analysis shares ownership of the analysis it came
/// from, so it stays valid however the session moves on. Deadlines are
/// per call: the CancelToken argument (null = the session-wide
/// EstimatorOptions::Cancel) is passed down explicitly, never written into
/// shared state. The introspection accessors (quarantined(), degraded(),
/// frequencies(), totalsFor()) are unlocked reads for tests and
/// single-threaded tools; call them only while no other thread is inside
/// the session.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SESSION_ESTIMATIONSESSION_H
#define PTRAN_SESSION_ESTIMATIONSESSION_H

#include "cost/Estimator.h"
#include "durable/Snapshot.h"
#include "profile/ProfileFile.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ptran {

/// One query of a batch: which function, under which configuration.
struct EstimateRequest {
  /// Function name (case-insensitive); empty means the program entry.
  std::string Function;
  /// Loop-variance model override; unset uses the session default.
  std::optional<LoopVarianceMode> LoopVariance;
  /// Cost-model override; unset uses the session's model. Each distinct
  /// override gets its own cached analysis, so alternating between a few
  /// models stays incremental.
  std::optional<CostModel> Cost;

  EstimateRequest() = default;
  explicit EstimateRequest(std::string Function)
      : Function(std::move(Function)) {}
};

/// One query's answer.
struct EstimateResult {
  bool Ok = false;
  /// Human-readable reason when !Ok (unknown function, recovery failure).
  std::string Error;
  const Function *F = nullptr;
  double Time = 0.0;   ///< TIME(START) of F.
  double Var = 0.0;    ///< VAR(START) of F.
  double StdDev = 0.0; ///< sqrt(Var).
  /// True when this function's profile data failed validation and the
  /// answer comes from static frequencies (uniform branches, default trip
  /// counts) instead of the profile. Ok stays true: the estimate is
  /// usable, just degraded.
  bool Quarantined = false;
  /// Why the function was quarantined (empty otherwise).
  std::string QuarantineReason;
  /// True when the query's CancelToken expired before this function was
  /// (re)estimated and DeadlinePolicy::Degrade completed it from static
  /// frequencies. Unlike quarantine, this is not sticky: the next query
  /// (with a fresh or no token) recomputes the exact answer.
  bool Degraded = false;
  /// Why the function was degraded (empty otherwise).
  std::string DegradeReason;
  /// The full analysis the answer came from. Immutable and shared: it
  /// stays valid however the session moves on.
  std::shared_ptr<const TimeAnalysis> Analysis;
};

/// Outcome of ingesting one profile file into a session.
struct ProfileIngestReport {
  /// True when the ingest took effect (under BadProfilePolicy::Fail, any
  /// bad section rejects the whole profile and leaves Ok false).
  bool Ok = false;
  /// Whole-profile failure reason (fingerprint/mode mismatch, rejection).
  std::string Error;
  /// Sections whose data was folded into the session.
  unsigned Accepted = 0;
  /// Functions quarantined (or, under Fail, that would have been), by
  /// name, in program order.
  std::vector<std::string> Quarantined;
  /// Per-section validation findings, each prefixed "<function>: ".
  std::vector<std::string> Findings;
};

/// A profile checked against a session's immutable analysis and plan
/// (EstimationSession::validateProfile), ready to fold. It points into
/// the ProfileFile it came from, which must outlive it.
struct ValidatedProfile {
  /// Whole-profile failure found while validating (fingerprint or mode
  /// mismatch, token expiry): nothing may fold.
  std::string Error;
  uint32_t Runs = 0;
  /// One per section, in profile order.
  struct Section {
    /// Null when the section names no function of the program or one
    /// that failed analysis; Finding then says so.
    const Function *F = nullptr;
    const FunctionSection *S = nullptr;
    std::string Finding;
    /// Why the section's data is unusable ("" = clean).
    std::string Issue;
    /// The counters and loop moments have the plan's shape and sane
    /// values, so they can join the runtime (a restore folds a
    /// quarantined function's section on this alone).
    bool ShapeOk = false;
    /// Totals recovered from the section's counters (clean sections of
    /// recoverable plans; naive plans recover nothing).
    FrequencyTotals Totals;
  };
  std::vector<Section> Sections;
};

/// Owns one program's estimation state across runs and queries.
class EstimationSession {
public:
  /// Analyzes \p P (which must outlive the session) and builds the
  /// counter plan. Returns null on analysis failure, reported to
  /// \p Opts.Diags when set. The per-function analysis fans out over
  /// Opts.Jobs workers that are joined before create() returns, so a
  /// session holds no threads; every later pass runs on the caller's.
  /// When \p Opts.Obs is set, the session reports `session.*`
  /// counters (runs, queries, cache hits/misses, dirty-closure sizes,
  /// evaluations) and every underlying pass records spans into the same
  /// registry.
  static std::unique_ptr<EstimationSession>
  create(const Program &P, const CostModel &CM,
         const EstimatorOptions &Opts = EstimatorOptions());

  /// Runs the program once with profiling attached; counters and loop
  /// moments accumulate across calls, exactly as the paper's program
  /// database accumulates TOTAL_FREQ across runs.
  RunResult profiledRun(uint64_t MaxSteps = 200'000'000);

  /// Folds an externally recorded totals delta (e.g. one streaming-ingest
  /// epoch) into \p F's accumulated totals. Node totals are rederived
  /// through the FCDG recurrence, so \p Delta only needs its condition
  /// totals, one per condition id of \p F (Delta.Node is ignored). A zero
  /// entry adds nothing, so a partial delta is zero elsewhere; only value
  /// sanity (finite, non-negative, unsaturated) and the shape are
  /// enforced here, per the session's BadProfilePolicy. Complete profiles
  /// should arrive through ingestProfile(), which additionally checks the
  /// paper's Σ identities.
  void accumulateTotals(const Function &F, const FrequencyTotals &Delta);

  /// The durable form of \p F's condition totals \p Cond (one per
  /// condition id): a (node, label, total) record per nonzero total, in
  /// condition-id (sorted) order. Journal folds and snapshots store deltas
  /// this way.
  std::vector<durable::CondTotal>
  condRecords(const Function &F, const std::vector<double> &Cond) const;

  /// The inverse of condRecords: a delta for \p F, a later record for a
  /// condition overriding an earlier one. A record naming a condition
  /// \p F's FCDG does not have is dropped and counted in \p Dropped.
  FrequencyTotals
  deltaFromRecords(const Function &F,
                   const std::vector<durable::CondTotal> &Records,
                   size_t &Dropped) const;

  /// Folds many functions' deltas under ONE lock acquisition, so a
  /// concurrent estimate() either sees none of the batch or all of it —
  /// never a torn half-batch. This is the consistency primitive the
  /// streaming ingest epoch flush is built on: one epoch = one batch.
  /// Per-entry validation and saturation behave exactly as
  /// accumulateTotals.
  void accumulateTotalsBatch(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas);

  /// accumulateTotalsBatch without the refresh, for callers that hold
  /// locks of their own: returns the ticket to pass to refreshView once
  /// they are released.
  uint64_t foldTotalsBatch(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas);

  /// Brings the published view up to the fold whose ticket is \p Epoch
  /// (0 = nothing to do): skipped when no view exists or one covering
  /// that fold is already published, so concurrent writers share one
  /// refresh. A refresh that cannot finish exactly drops the view.
  void refreshView(uint64_t Epoch, CancelToken *Cancel = nullptr);

  /// Drops the published view, so the mutations that follow find none
  /// and skip their refresh; the next default-configuration read
  /// recomputes under the lock and publishes again. For a thread whose
  /// latency matters more than its session's readers' (a standby's
  /// apply loop, whose acknowledgement waits on every apply).
  void dropView();

  /// Records that an external producer (e.g. the streaming ingest fold)
  /// clamped \p F's counter totals at 2^53 before handing them over, so the
  /// session's own accumulator never saw the overflow. Emits the same
  /// once-per-function "lower bounds" diagnostic as internal saturation.
  void noteExternalSaturation(const Function &F);

  /// Validates and folds a loaded profile file. Program fingerprint and
  /// counter mode must match the session's (whole-profile failure
  /// otherwise). Each section is validated — checksum verdict from the
  /// load, per-function fingerprint, counter shape, finite non-negative
  /// values, recovery, Σ identities, loop-moment sanity. Under
  /// BadProfilePolicy::Quarantine, clean sections fold in and bad ones
  /// quarantine their function; under Fail, any bad section rejects the
  /// whole profile (nothing folds). A clean section's counters and loop
  /// moments join the session's counter runtime, and the profile's run
  /// count adds to runsExecuted(), as if its runs had happened here.
  /// validateProfile + foldProfile + refreshView; \p Cancel bounds the
  /// validation and the refresh (null = the session-wide token).
  ProfileIngestReport ingestProfile(const ProfileFile &PF,
                                    CancelToken *Cancel = nullptr);

  /// The validation half of ingestProfile: reads only the immutable
  /// analysis and plan, takes no lock, and may run on many threads at
  /// once. A naive-mode plan recovers no totals, so its sections are
  /// checked for shape and values only.
  ValidatedProfile validateProfile(const ProfileFile &PF,
                                   CancelToken *Cancel = nullptr) const;

  /// The fold half, under the session lock: quarantined functions'
  /// sections are ignored, bad sections quarantine their function (or,
  /// under BadProfilePolicy::Fail, reject the whole profile), clean ones
  /// join the runtime. Sets \p Epoch to the ticket refreshView wants.
  ProfileIngestReport foldProfile(const ValidatedProfile &V, uint64_t &Epoch);

  /// Snapshots the session's counter runtime, loop moments and run count
  /// as a durable profile: everything its profiled runs and ingested
  /// profiles contributed, so ingesting the capture into a fresh session
  /// of the same program reproduces its estimates. Partial deltas from
  /// accumulateTotals have no counter representation and are left out
  /// (captureDurableState carries them).
  ProfileFile captureProfile() const;

  /// captureProfile() + ProfileFile::saveToFile, through the session's
  /// retry policy (EstimatorOptions::IoRetry): transient IO failures are
  /// absorbed, only persistent ones surface.
  bool saveProfile(const std::string &Path, DiagnosticEngine *Diags) const;

  /// Fills the session-owned slice of a durable snapshot (the serve layer
  /// owns Name/Source/Mode): run count, the serialized PTPF image of the
  /// accumulated counter state (captureProfile), the partial deltas from
  /// accumulateTotals, and the saturation/quarantine sets — everything
  /// in program order, so identical session state always produces
  /// identical snapshot bytes (the kill-and-recover test memcmps them).
  /// One lock acquisition: the capture is a consistent cut, never a torn
  /// view.
  void captureDurableState(durable::DurableSessionState &Out) const;

  /// The mirror of captureDurableState, into a fresh session, under one
  /// lock: folds every section of the profile image (a quarantined
  /// function's too: it is the session's own capture), then re-applies
  /// the quarantines (reasons verbatim), the partial deltas and the
  /// saturation marks, then refreshes the view once. Parts that no longer
  /// fit the program cost one line each in \p Diagnostics.
  void restoreDurableState(const durable::DurableSessionState &State,
                           std::vector<std::string> &Diagnostics);

  /// Functions currently quarantined, with reasons. Quarantine is sticky
  /// for the session's lifetime: later clean data does not lift it.
  const std::map<const Function *, std::string> &quarantined() const {
    return QuarantinedFns;
  }
  bool isQuarantined(const Function &F) const {
    return QuarantinedFns.count(&F) != 0;
  }

  /// Functions the most recent query completed from static frequencies
  /// because the token expired under DeadlinePolicy::Degrade, with
  /// reasons. Cleared (and the functions marked dirty, so they recompute
  /// exactly) at the start of the next estimate() call.
  const std::map<const Function *, std::string> &degraded() const {
    return DegradedFns;
  }
  bool isDegraded(const Function &F) const {
    return DegradedFns.count(&F) != 0;
  }

  /// Answers a batch of queries. A batch of default-configuration
  /// requests is answered from the published view without a lock when
  /// one exists. Otherwise inputs are refreshed lazily: functions whose
  /// fingerprinted totals/moments are unchanged since the last query keep
  /// their cached summaries, and only the dirty closure is re-evaluated
  /// (per distinct configuration in the batch). \p Cancel bounds this one
  /// call (null = the session-wide token).
  std::vector<EstimateResult> estimate(const std::vector<EstimateRequest> &,
                                       CancelToken *Cancel = nullptr);

  /// Single-query conveniences.
  EstimateResult estimate(const EstimateRequest &Request);
  /// The program entry under the session defaults.
  EstimateResult estimateEntry();

  /// -- Introspection (tests assert incrementality through these) --------

  /// Per-function bottom-up evaluations the most recent estimate() call
  /// performed (0 when every configuration was served from cache). A
  /// mutation's view refresh is not an estimate() call: count write+read
  /// pairs through totalEvaluations().
  uint64_t lastEvaluations() const {
    return LastEvals.load(std::memory_order_relaxed);
  }
  /// Every evaluation over the session's lifetime, refreshes included.
  uint64_t totalEvaluations() const {
    return TotalEvals.load(std::memory_order_relaxed);
  }
  /// Configurations served with no re-evaluation at all (lock-free reads
  /// included), lifetime.
  uint64_t cacheHits() const {
    return CacheHits.load(std::memory_order_relaxed);
  }
  /// Profiled runs the counters accumulate: this session's own plus the
  /// run counts of the profiles it ingested.
  unsigned runsExecuted() const {
    return Runs.load(std::memory_order_relaxed);
  }
  /// Every function's frequencies as the most recent estimate() evaluated
  /// them (static for quarantined and deadline-degraded functions).
  const std::map<const Function *, Frequencies> &frequencies() const {
    return FreqsByFunction;
  }
  /// \p F's accumulated totals: the counters recovered from the runtime
  /// plus the external deltas, node totals re-derived.
  FrequencyTotals totalsFor(const Function &F) const;

  const Program &program() const { return *P; }
  const Estimator &estimator() const { return *Est; }

private:
  EstimationSession() = default;

  /// What a lock-free default-configuration read answers from: one
  /// immutable analysis and the quarantine tags it was computed with.
  struct DefaultView {
    /// StateEpoch at publication: the view covers every fold up to it.
    uint64_t Epoch = 0;
    std::shared_ptr<const TimeAnalysis> Analysis;
    std::map<const Function *, std::string> Quarantined;
  };

  /// The unlocked bodies of the public entry points (callers hold Mu).
  std::vector<EstimateResult>
  estimateLocked(const std::vector<EstimateRequest> &Requests,
                 CancelToken *Cancel);
  /// foldProfile's body. \p Restoring names the functions a snapshot
  /// quarantined: their sections fold on shape alone (restore path).
  ProfileIngestReport
  foldProfileLocked(const ValidatedProfile &V,
                    const std::set<const Function *> *Restoring = nullptr);
  ProfileFile captureProfileLocked() const;
  void accumulateTotalsLocked(const Function &F, const FrequencyTotals &Delta);

  /// Per-function input state, refreshed lazily before a query.
  struct InputState {
    /// Structural fingerprint + totals + loop moments, hashed.
    uint64_t Key = 0;
    /// Totals recovered from the counter runtime, cached so queries after
    /// a pure external-delta injection skip recovery for every untouched
    /// function. An ingest adds the section's validated
    /// totals here (addExactTotals) instead of recovering again.
    FrequencyTotals Base;
    /// Set when counter recovery failed (naive plans on unexecuted
    /// functions); queries touching the program then fail per-request.
    bool RecoveryFailed = false;
  };

  /// One (cost model, loop-variance mode) configuration's cached
  /// analysis. Stored behind unique_ptr so configFor's references stay
  /// stable while the vector grows.
  struct ConfigCache {
    CostModel CM;
    LoopVarianceMode LoopVariance = LoopVarianceMode::Zero;
    std::shared_ptr<const TimeAnalysis> Analysis;
    /// Input keys the analysis was computed under.
    std::map<const Function *, uint64_t> Keys;
  };

  /// Recomputes keys/frequencies for every function whose accumulated
  /// inputs changed. Returns false (and sets \p Error) when recovery
  /// failed for some function.
  bool refreshInputs(std::string &Error, CancelToken *Cancel);
  /// Re-derives one function's key and frequencies from its cached base
  /// totals plus external deltas (or static frequencies when \p F is
  /// quarantined). \returns the empty string, or — under
  /// BadProfilePolicy::Fail — why externally contributed totals failed
  /// validation.
  std::string refreshFunction(const Function &F, InputState &In);
  /// Adds \p F's external deltas onto \p Totals (each sum clamped at 2^53)
  /// and re-derives the node totals. \returns false, leaving \p Totals
  /// untouched, when \p F has none; \p Saturated reports a clamped sum.
  bool addExternal(const Function &F, FrequencyTotals &Totals,
                   bool &Saturated) const;
  /// Why \p Totals are unusable as recovered profile data ("" = fine).
  std::string totalsIssue(const FrequencyTotals &Totals) const;
  /// Marks \p F quarantined (first reason wins) and schedules its switch
  /// to static frequencies.
  void quarantine(const Function &F, const std::string &Reason);
  /// Emits the once-per-function "totals saturated at 2^53; lower bounds"
  /// warning (same contract as the PTPF merge diagnostic).
  void noteSaturation(const Function &F);
  /// Switches \p F to static frequencies for the current query because
  /// the token expired under DeadlinePolicy::Degrade (non-sticky; lifted
  /// at the start of the next estimate() call).
  void degradeForDeadline(const Function &F, const std::string &Reason);
  /// Lifts the previous query's deadline degradation and dirties the
  /// functions it touched, so this call recomputes them exactly.
  void liftDegradation();
  uint64_t inputKeyOf(const Function &F, const FrequencyTotals &Totals) const;
  ConfigCache &configFor(const CostModel &CM, LoopVarianceMode LV);
  /// True when \p R resolves to the session's default configuration.
  bool isDefault(const EstimateRequest &R) const;
  /// Brings \p Cache up to date with the current inputs (cold run,
  /// incremental rerun, or nothing). Returns the empty string, or why the
  /// query must fail (token expired under DeadlinePolicy::Fail; the cache
  /// is left untouched, so the failure is atomic).
  std::string refreshConfig(ConfigCache &Cache, CancelToken *Cancel);

  /// Counts one mutation. \returns its refreshView ticket: the new epoch
  /// when a view exists, else 0 (a mutation never creates a view).
  uint64_t bumpEpoch();
  /// Brings the default configuration up to date and publishes it, or
  /// drops the view when the result is not exact.
  void refreshDefault(CancelToken *Cancel);
  /// Swaps \p Next in as the view (null drops it). Caller holds Mu; the
  /// old view is released after ViewMu, so readers never wait on a free.
  void setView(std::shared_ptr<const DefaultView> Next);
  /// Publishes \p Cache (the default configuration's) at StateEpoch.
  void publish(const ConfigCache &Cache);

  /// Serializes every mutation and every read the view cannot answer (see
  /// the concurrency contract in the file comment). Mutable so the const
  /// capture/save paths can take it too.
  mutable std::mutex Mu;
  /// Guards only the View pointer: readers copy it under ViewMu alone;
  /// writers hold Mu as well, so code under Mu may read it directly.
  mutable std::mutex ViewMu;
  std::shared_ptr<const DefaultView> View;
  /// Mutations so far (guarded by Mu).
  uint64_t StateEpoch = 0;

  const Program *P = nullptr;
  CostModel CM;
  /// Immutable after create(), so lock-free reads may consult it.
  EstimatorOptions Opts;
  std::unique_ptr<Estimator> Est;

  std::map<const Function *, InputState> Inputs;
  /// Current frequencies of every function, updated in place as inputs
  /// change; analyses read it by reference (no per-query copies).
  std::map<const Function *, Frequencies> FreqsByFunction;
  /// Sums of the totals deltas from accumulateTotals, one per condition
  /// id: stream folds and restored snapshots' external totals. A function
  /// has an entry once a delta gave it a nonzero total, and since deltas
  /// are non-negative, the nonzero entries are exactly the conditions
  /// some delta touched. Ingested profiles go to the counter runtime
  /// instead.
  std::map<const Function *, std::vector<double>> External;
  std::vector<std::unique_ptr<ConfigCache>> Configs;
  /// Counters may have moved: re-recover every function's base totals.
  bool RuntimeStale = true;
  /// Functions whose cached base totals or external deltas changed since
  /// the last refresh.
  std::set<const Function *> Dirty;
  /// Functions estimated from static frequencies because their profile
  /// data failed validation, with the (first) reason.
  std::map<const Function *, std::string> QuarantinedFns;
  /// Functions completed from static frequencies because the current
  /// query's token expired under DeadlinePolicy::Degrade. Non-sticky:
  /// lifted (and marked dirty) by the next estimate() call.
  std::map<const Function *, std::string> DegradedFns;
  /// Under BadProfilePolicy::Fail: functions whose externally accumulated
  /// deltas failed validation (queries fail until the data is repaired;
  /// under Quarantine the function is quarantined instead).
  std::map<const Function *, std::string> ExternalBad;
  /// Functions whose accumulated totals have clamped at 2^53 (diagnostic
  /// already emitted; estimates are lower bounds from then on).
  std::set<const Function *> SaturatedFns;

  /// Written under Mu, or by lock-free reads (LastEvals, CacheHits).
  std::atomic<uint64_t> LastEvals{0};
  std::atomic<uint64_t> TotalEvals{0};
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<unsigned> Runs{0};
};

} // namespace ptran

#endif // PTRAN_SESSION_ESTIMATIONSESSION_H
