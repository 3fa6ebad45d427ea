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
/// that profile files and the program database bind their sections to
/// (structuralFingerprintOf) mixed with a hash of its accumulated condition
/// totals and loop-frequency moments; every cached analysis additionally
/// remembers the exact cost model and loop-variance mode it was computed
/// under. A query after new profiled runs therefore invalidates only the
/// functions whose totals changed — plus their call-graph ancestors,
/// which TimeAnalysis::rerun widens to whole SCCs of the condensation —
/// and replays the wave schedule over just that dirty subgraph, feeding
/// cached callee summaries in at the frontier. Results are bit-identical
/// to a cold recomputation (the tests memcmp them).
///
/// The batch API estimate(Requests) lets tools ask for many functions
/// under many configurations in one call; ptran-estimate, the
/// profile_explorer example and the scaling benchmark are thin clients of
/// it.
///
/// Concurrency contract (what ptran-serve relies on): every state-touching
/// member function — profiledRun, accumulateTotals, ingestProfile,
/// captureProfile, saveProfile and estimate — is serialized by one
/// internal lock, so any number of threads may call them on one session
/// and each call observes a consistent session. Two caveats:
///
///   - EstimateResult::Analysis points at session-owned cache state and is
///     only stable until the next state-touching call; a concurrent caller
///     must consume the scalar fields (Time/Var/StdDev and the
///     Quarantined/Degraded tags) before releasing its thread of control,
///     and must not dereference Analysis once other threads may mutate the
///     session. The serving daemon only ships the scalars.
///   - The introspection accessors (quarantined(), degraded(),
///     frequencies(), totalsFor(), lastEvaluations() and friends) are
///     unlocked reads for tests and single-threaded tools; call them only while no other thread is
///     inside the session.
///
/// The per-call estimate/ingestProfile overloads taking a CancelToken
/// exist for one-session-many-deadlines callers (one daemon request = one
/// token): the token replaces EstimatorOptions::Cancel for the duration of
/// that one serialized call.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_SESSION_ESTIMATIONSESSION_H
#define PTRAN_SESSION_ESTIMATIONSESSION_H

#include "cost/Estimator.h"
#include "durable/Snapshot.h"
#include "profile/ProfileFile.h"

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
  /// The full analysis the answer came from (owned by the session; valid
  /// until the session mutates that configuration's cache or dies).
  const TimeAnalysis *Analysis = nullptr;
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

/// Owns one program's estimation state across runs and queries.
class EstimationSession {
public:
  /// Analyzes \p P (which must outlive the session) and builds the
  /// counter plan. Returns null on analysis failure, reported to
  /// \p Opts.Diags when set. When \p Opts.Exec names no external pool,
  /// the session creates one sized by Opts.Exec.Jobs and routes every
  /// pass — per-function analysis, each TimeAnalysis wave — through it.
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

  /// Folds an externally recorded totals delta (e.g. another machine's
  /// program database) into \p F's accumulated totals. Node totals are
  /// rederived through the FCDG recurrence, so \p Delta only needs
  /// condition entries — deltas may be partial, so only value sanity
  /// (finite, non-negative, unsaturated) is enforced here, per the
  /// session's BadProfilePolicy. Complete profiles should arrive through
  /// ingestProfile(), which additionally checks the paper's Σ identities.
  void accumulateTotals(const Function &F, const FrequencyTotals &Delta);

  /// Folds many functions' deltas under ONE lock acquisition, so a
  /// concurrent estimate() either sees none of the batch or all of it —
  /// never a torn half-batch. This is the consistency primitive the
  /// streaming ingest epoch flush is built on: one epoch = one batch.
  /// Per-entry validation and saturation behave exactly as
  /// accumulateTotals.
  void accumulateTotalsBatch(
      const std::vector<std::pair<const Function *, FrequencyTotals>> &Deltas);

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
  /// whole profile (nothing folds).
  ProfileIngestReport ingestProfile(const ProfileFile &PF);

  /// Same, bounded by \p Cancel instead of the session-wide
  /// EstimatorOptions::Cancel for this one call (null = use the session
  /// token). The swap happens under the session lock, so concurrent
  /// callers each get their own bound.
  ProfileIngestReport ingestProfile(const ProfileFile &PF,
                                    CancelToken *Cancel);

  /// Snapshots the session's accumulated counter runtime and loop moments
  /// as a durable profile (external deltas are not counter-representable
  /// and are not included).
  ProfileFile captureProfile() const;

  /// captureProfile() + ProfileFile::saveToFile, through the session's
  /// retry policy (EstimatorOptions::IoRetry): transient IO failures are
  /// absorbed, only persistent ones surface.
  bool saveProfile(const std::string &Path, DiagnosticEngine *Diags) const;

  /// Fills the session-owned slice of a durable snapshot (the serve layer
  /// owns Name/Source/Mode): run count, the serialized PTPF image of the
  /// accumulated counter state, the external totals, and the saturation/
  /// quarantine sets — everything in program order, so identical session
  /// state always produces identical snapshot bytes (the kill-and-recover
  /// test memcmps them). One lock acquisition: the capture is a consistent
  /// cut, never a torn view.
  void captureDurableState(durable::DurableSessionState &Out) const;

  /// Re-applies a sticky quarantine recorded in a snapshot (the restore
  /// path; quarantine reasons must survive a daemon restart verbatim).
  /// False when \p FunctionName names no function of this program.
  bool markQuarantined(const std::string &FunctionName,
                       const std::string &Reason);

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

  /// Answers a batch of queries. Inputs are refreshed lazily: functions
  /// whose fingerprinted totals/moments are unchanged since the last
  /// query keep their cached summaries, and only the dirty closure is
  /// re-evaluated (per distinct configuration in the batch).
  std::vector<EstimateResult> estimate(const std::vector<EstimateRequest> &);

  /// Same, bounded by \p Cancel instead of the session-wide token for this
  /// one call (null = use the session token). One daemon request = one
  /// token: each serialized call runs under its own deadline/budgets.
  std::vector<EstimateResult> estimate(const std::vector<EstimateRequest> &,
                                       CancelToken *Cancel);

  /// Single-query conveniences.
  EstimateResult estimate(const EstimateRequest &Request);
  /// The program entry under the session defaults.
  EstimateResult estimateEntry();

  /// -- Introspection (tests assert incrementality through these) --------

  /// Per-function bottom-up evaluations the most recent estimate() call
  /// performed (0 when every configuration was served from cache).
  uint64_t lastEvaluations() const { return LastEvals; }
  /// Same, accumulated over the session's lifetime.
  uint64_t totalEvaluations() const { return TotalEvals; }
  /// Configurations served with no re-evaluation at all, lifetime.
  uint64_t cacheHits() const { return CacheHits; }
  /// Profiled runs executed so far.
  unsigned runsExecuted() const { return Runs; }
  /// Every function's frequencies as the most recent estimate() evaluated
  /// them (static for quarantined and deadline-degraded functions).
  const std::map<const Function *, Frequencies> &frequencies() const {
    return FreqsByFunction;
  }
  /// \p F's accumulated totals: the counters recovered from the runtime
  /// plus the ingested/external deltas, node totals re-derived.
  FrequencyTotals totalsFor(const Function &F) const;

  const Program &program() const { return *P; }
  const Estimator &estimator() const { return *Est; }

private:
  EstimationSession() = default;

  /// The unlocked bodies of the public entry points (callers hold Mu).
  std::vector<EstimateResult>
  estimateLocked(const std::vector<EstimateRequest> &Requests);
  ProfileIngestReport ingestProfileLocked(const ProfileFile &PF);
  ProfileFile captureProfileLocked() const;
  void accumulateTotalsLocked(const Function &F, const FrequencyTotals &Delta);

  /// Per-function input state, refreshed lazily before a query.
  struct InputState {
    /// Structural fingerprint + totals + loop moments, hashed.
    uint64_t Key = 0;
    /// Totals recovered from the counter runtime, cached so queries after
    /// a pure external-delta injection skip the recovery fixpoint for
    /// every untouched function.
    FrequencyTotals Base;
    /// Set when counter recovery failed (naive plans on unexecuted
    /// functions); queries touching the program then fail per-request.
    bool RecoveryFailed = false;
  };

  /// One (cost model, loop-variance mode) configuration's cached
  /// analysis. Stored behind unique_ptr so addresses stay stable while
  /// the vector grows (EstimateResult::Analysis points into it).
  struct ConfigCache {
    CostModel CM;
    LoopVarianceMode LoopVariance = LoopVarianceMode::Zero;
    std::unique_ptr<TimeAnalysis> Analysis;
    /// Input keys the analysis was computed under.
    std::map<const Function *, uint64_t> Keys;
  };

  /// Recomputes keys/frequencies for every function whose accumulated
  /// inputs changed. Returns false (and sets \p Error) when recovery
  /// failed for some function.
  bool refreshInputs(std::string &Error);
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
  uint64_t inputKeyOf(const Function &F, const FrequencyTotals &Totals) const;
  ConfigCache &configFor(const CostModel &CM, LoopVarianceMode LV);
  /// Brings \p Cache up to date with the current inputs (cold run,
  /// incremental rerun, or nothing). Returns the empty string, or why the
  /// query must fail (token expired under DeadlinePolicy::Fail; the cache
  /// is left untouched, so the failure is atomic).
  std::string refreshConfig(ConfigCache &Cache);

  /// Serializes every state-touching public member function (see the
  /// concurrency contract in the file comment). Mutable so the const
  /// capture/save paths can take it too.
  mutable std::mutex Mu;

  const Program *P = nullptr;
  CostModel CM;
  EstimatorOptions Opts;
  /// The session's own pool when the caller did not supply one;
  /// Opts.Exec.Pool points at it.
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<Estimator> Est;

  std::map<const Function *, InputState> Inputs;
  /// Current frequencies of every function, updated in place as inputs
  /// change; analyses read it by reference (no per-query copies).
  std::map<const Function *, Frequencies> FreqsByFunction;
  /// Externally injected totals deltas (condition entries only).
  std::map<const Function *, std::map<ControlCondition, double>> External;
  std::vector<std::unique_ptr<ConfigCache>> Configs;
  /// Counters may have moved: re-recover every function's base totals.
  bool RuntimeStale = true;
  /// Functions whose external deltas changed since the last refresh.
  std::set<const Function *> ExternalDirty;
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

  uint64_t LastEvals = 0;
  uint64_t TotalEvals = 0;
  uint64_t CacheHits = 0;
  unsigned Runs = 0;
};

} // namespace ptran

#endif // PTRAN_SESSION_ESTIMATIONSESSION_H
