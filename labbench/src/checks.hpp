#pragma once
/// \file checks.hpp
/// Output checks. Every check compares the simulator against an
/// independent path (a second engine, a second thread count, the sink's
/// own bytes read back) or against a property the method must have (a
/// predicate, a closed-form round bound, a read-efficiency claim) — never
/// against a stored copy of an earlier run's output.

#include <cstdint>
#include <string>
#include <vector>

#include "trials.hpp"
#include "workloads.hpp"

namespace labbench {

struct CheckLog {
  /// Trials that did not certify silence (operations that failed).
  int failed_trials = 0;
  /// Violations of a correctness property; any one makes the run
  /// incorrect.
  std::vector<std::string> errors;

  void error(std::string message);
  bool correct() const { return errors.empty(); }
};

/// The verification pass: runs every trial serially and checks silence,
/// the problem predicate on the final configuration, the paper's round
/// bound where one exists, and the protocol's read-efficiency claim
/// (churn trials: on the stabilization phase, plus per-kind event counts
/// summing to the disruptions and re-convergence after the window).
/// Returns the per-trial results the timed passes are compared against.
std::vector<TrialResult> verify_plan(const Workload& workload,
                                     const sss::ExperimentPlan& plan,
                                     const std::vector<TrialRef>& trials,
                                     const CheckProblems& problems,
                                     CheckLog& log);

/// Whether a timed serial trial reproduced the verification pass's trial
/// exactly: every run statistic, the churn window, and the final
/// configuration.
bool same_trial_result(const TrialResult& a, const TrialResult& b);

/// The rows a batch pass streamed to its sink, read back from the file:
/// one per trial, agreeing with the serial path on every run statistic
/// and, for churn trials, on the window's columns.
void check_batch_rows(const std::vector<TrialResult>& reference,
                      const std::vector<SinkRow>& rows,
                      const std::vector<TrialRef>& trials, CheckLog& log);

/// Workload-specific differential checks, run once after timing:
/// sync-cofire re-runs a seed-chosen sample of trials under force_scalar
/// and under ReferenceEngine; churn-window runs the plan at 1 and 2 batch
/// threads and compares the sorted row streams.
void run_oracles(const Workload& workload, const sss::ExperimentPlan& plan,
                 const std::vector<TrialRef>& trials,
                 const std::vector<TrialResult>& reference,
                 std::uint64_t seed, CheckLog& log);

}  // namespace labbench
