#pragma once
/// \file measure.hpp
/// The untraced end-to-end measurement.
///
/// Host noise only ever adds time and comes in slow periods, so the
/// figures come from the fast end of many short repetitions rather than a
/// median of a few long ones. The repetition units are small:
///  * library path — each trial, run serially through Engine::run or
///    ChurnRunner, is timed on its own; the plan's time is the sum over
///    trials of each trial's fastest repetition;
///  * lab path — the plan is split by graph, and each graph's items run
///    through run_batch (kBatchThreads workers) into a JSONL
///    sink; the plan's time is the sum over graphs of each run_batch
///    call's fastest repetition (estimate.hpp says why).
/// The two alternate for a fixed number of rounds, so both see the same
/// host, and every round runs on the next CPU (estimate.hpp says why).
/// Every repetition's outputs are checked against the verification pass.

#include <string>
#include <vector>

#include "checks.hpp"
#include "trials.hpp"
#include "workloads.hpp"

namespace labbench {

struct Measurement {
  double trials_per_s = 0;
  double steps_per_s = 0;
  /// Full rounds of repetitions (each covers every trial once per path).
  int repetitions = 0;
};

/// The number of timed rounds of a run of `seconds`: the workload's
/// rounds_per_second times `seconds`, at least 5. Rounds also stop once
/// they have taken `seconds` (after at least 5), so a run on a slow host,
/// or of a slower program, still ends in time — with fewer samples, which
/// can only make it read slower. A faster program never gets more rounds
/// than this.
int timed_repetitions(const Workload& workload, double seconds);

Measurement measure_end_to_end(const Workload& workload,
                               const sss::ExperimentPlan& plan,
                               const std::vector<TrialRef>& trials,
                               const std::vector<TrialResult>& reference,
                               const std::string& sink_path, double seconds,
                               CheckLog& log);

}  // namespace labbench
