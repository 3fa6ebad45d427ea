//===--- cost/Estimator.h - End-to-end estimation pipeline ------*- C++ -*-===//
//
// Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A convenience facade running the whole framework end to end: analyze
/// the program, build a counter plan, execute one or more profiled runs on
/// the interpreter (accumulating totals across runs, as the paper's
/// program database does), recover TOTAL_FREQ, compute relative
/// frequencies, and finally the TIME/VAR estimates. Examples, tests and
/// benchmarks all drive this class (directly or through an
/// EstimationSession).
///
/// Construction is configured through EstimatorOptions.
///
//===----------------------------------------------------------------------===//

#ifndef PTRAN_COST_ESTIMATOR_H
#define PTRAN_COST_ESTIMATOR_H

#include "cost/TimeAnalysis.h"
#include "interp/Interpreter.h"
#include "profile/ProfileFile.h"

#include <memory>

namespace ptran {

/// Options for one estimation campaign. Fluent setters keep call sites
/// one-liners:
///
///   Estimator::create(P, CM, EstimatorOptions(Diags).jobs(8));
struct EstimatorOptions {
  /// Counter-placement mode for the profiling plan.
  ProfileMode Mode = ProfileMode::Smart;
  /// Parallelism shared by every pass the estimator runs (per-function
  /// analysis fan-out and the interprocedural TIME/VAR waves). A session
  /// typically points this at one long-lived pool.
  ExecutionPolicy Exec;
  /// Default loop-variance model for analyze() calls (and session queries)
  /// that do not specify one.
  LoopVarianceMode LoopVariance = LoopVarianceMode::Zero;
  /// Sink for analysis/estimation diagnostics; null drops them. Must
  /// outlive the estimator when set.
  DiagnosticEngine *Diags = nullptr;
  /// Tracing/metrics registry shared by every pass the estimator drives
  /// (analysis spans, plan construction, profiled runs, counter recovery,
  /// the TIME/VAR waves). Disabled by default; the registry must outlive
  /// the estimator when set.
  ObsRegistry *Obs = nullptr;
  /// What an EstimationSession does with a function whose profile data
  /// fails validation (recovery divergence, non-finite totals, checksum
  /// or Σ-identity failures on ingest). Fail preserves the historical
  /// whole-query failure; Quarantine degrades just that function to
  /// static frequencies and tags its results.
  BadProfilePolicy OnBadProfile = BadProfilePolicy::Fail;
  /// Cooperative cancellation / deadline / budget token polled by every
  /// pass the estimator (or session) drives. Null = unbounded. The token
  /// must outlive the estimator; arm it (deadline, budgets) before the
  /// call it should bound.
  CancelToken *Cancel = nullptr;
  /// What a session query does when Cancel expires mid-estimation. Fail
  /// rejects the query atomically with a structured Timeout/Cancelled
  /// diagnostic; Degrade completes the unfinished functions from static
  /// frequencies (tagged on EstimateResult, non-sticky — the next query
  /// recomputes them exactly) while completed functions stay bit-identical
  /// to an unbounded run. Expiry during program analysis always fails:
  /// without an FCDG there is nothing to degrade to.
  DeadlinePolicy OnDeadline = DeadlinePolicy::Fail;
  /// Retry policy for profile-file IO driven through the session
  /// (saveProfile/loadProfile); transient failures are absorbed per the
  /// policy, only persistent ones surface.
  RetryPolicy IoRetry;

  EstimatorOptions() = default;
  explicit EstimatorOptions(DiagnosticEngine &D) : Diags(&D) {}

  EstimatorOptions &mode(ProfileMode M) {
    Mode = M;
    return *this;
  }
  EstimatorOptions &jobs(unsigned J) {
    Exec.Jobs = J;
    return *this;
  }
  EstimatorOptions &pool(ThreadPool &P) {
    Exec.Pool = &P;
    return *this;
  }
  EstimatorOptions &loopVariance(LoopVarianceMode M) {
    LoopVariance = M;
    return *this;
  }
  EstimatorOptions &diags(DiagnosticEngine &D) {
    Diags = &D;
    return *this;
  }
  EstimatorOptions &observability(ObsRegistry &R) {
    Obs = &R;
    return *this;
  }
  EstimatorOptions &onBadProfile(BadProfilePolicy Policy) {
    OnBadProfile = Policy;
    return *this;
  }
  EstimatorOptions &cancel(CancelToken &T) {
    Cancel = &T;
    return *this;
  }
  EstimatorOptions &onDeadline(DeadlinePolicy Policy) {
    OnDeadline = Policy;
    return *this;
  }
  EstimatorOptions &ioRetry(const RetryPolicy &Policy) {
    IoRetry = Policy;
    return *this;
  }
};

/// Owns the per-program state of one estimation campaign.
class Estimator {
public:
  /// Analyzes \p P (which must outlive the estimator). Returns null on
  /// analysis failure (e.g. irreducible control flow), reported to
  /// \p Opts.Diags when set.
  static std::unique_ptr<Estimator>
  create(const Program &P, const CostModel &CM,
         const EstimatorOptions &Opts = EstimatorOptions());

  /// Runs the program once with profiling attached, accumulating counter
  /// values and loop-frequency moments. \returns the interpreter result.
  RunResult profiledRun(uint64_t MaxSteps = 200'000'000);

  /// Recovers totals and frequencies for every function from the counters
  /// accumulated so far, then runs the time/variance analysis.
  /// \p Opts.Stats is filled in automatically when LoopVariance ==
  /// Profiled and no stats were supplied; \p Opts.Exec defaults to the
  /// estimator's execution policy unless the caller overrides it.
  TimeAnalysis analyze(TimeAnalysisOptions Opts);
  /// Same, with the estimator's option defaults (loop-variance mode,
  /// execution policy, diagnostics sink).
  TimeAnalysis analyze();

  const EstimatorOptions &options() const { return Opts; }
  const ProgramAnalysis &analysis() const { return *PA; }
  const ProgramPlan &plan() const { return Plan; }
  const ProfileRuntime &runtime() const { return *Runtime; }
  /// Mutable runtime access (e.g. to reset counters between epochs).
  ProfileRuntime &runtimeMutable() { return *Runtime; }
  const LoopFrequencyStats &loopStats() const { return *Stats; }
  /// Mutable loop stats, for callers driving the interpreter themselves
  /// (the moments must be fed for LoopVarianceMode::Profiled to bite).
  LoopFrequencyStats &loopStatsMutable() { return *Stats; }

  /// Recovered totals of one function (after at least one profiledRun).
  FrequencyTotals totalsFor(const Function &F) const {
    return Runtime->recover(F);
  }

private:
  Estimator() = default;

  const Program *P = nullptr;
  CostModel CM;
  EstimatorOptions Opts;
  std::unique_ptr<ProgramAnalysis> PA;
  ProgramPlan Plan;
  std::unique_ptr<ProfileRuntime> Runtime;
  std::unique_ptr<LoopFrequencyStats> Stats;
};

} // namespace ptran

#endif // PTRAN_COST_ESTIMATOR_H
