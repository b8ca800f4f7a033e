#pragma once
/// \file trials.hpp
/// The two ways the benchmark drives a plan — the library user's serial
/// loop over Engine::run / ChurnRunner, and the lab user's run_batch with
/// a JSONL sink — plus the bookkeeping both share: trial enumeration,
/// per-trial results, and the problem each item is checked against.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/plan.hpp"
#include "core/problems.hpp"
#include "runtime/churn.hpp"
#include "runtime/engine.hpp"
#include "workloads.hpp"

namespace labbench {

/// One trial's coordinates, exactly as run_batch derives them.
struct TrialRef {
  int item = 0;
  int trial = 0;
  std::string daemon;
  std::uint64_t engine_seed = 0;
};

/// Every trial of the plan in run_batch's (item, trial) order.
std::vector<TrialRef> enumerate_trials(const sss::ExperimentPlan& plan);

/// The run options run_batch gives an item: its own, plus the item
/// problem's predicate unless one is set.
sss::RunOptions effective_run_options(const sss::BatchItem& item);

/// The churn options of one churn trial, with the per-trial stream seed
/// derived from the item's churn seed and the engine seed.
sss::ChurnOptions trial_churn_options(const sss::BatchItem& item,
                                      std::uint64_t engine_seed);

/// What a trial produced. For churn trials `stats` is the stabilization
/// phase and `churn` the window.
struct TrialResult {
  sss::RunStats stats;
  sss::ChurnStats churn;
  std::size_t config_hash = 0;
  /// Engine steps the trial executed (stabilization + window for churn).
  std::uint64_t engine_steps() const { return stats.steps + churn.window_steps; }
};

/// Runs one trial the way a library user would: a fresh Engine (or
/// ChurnRunner) per trial, no batch runner, no sink.
TrialResult run_serial_trial(const sss::BatchItem& item, const TrialRef& ref);

/// Constructs the engine of a trial without churn, configured as
/// run_batch configures it and started from a random configuration. (For a
/// churn item the configuration is left as constructed, the one
/// ChurnRunner::stabilize starts from.)
std::unique_ptr<sss::Engine> make_engine(const sss::BatchItem& item,
                                         const TrialRef& ref);

/// Constructs a churn runner for `ref` (owning mode when the item has a
/// protocol factory, as run_batch does). `factory` overrides the item's.
std::unique_ptr<sss::ChurnRunner<sss::Engine>> make_churn_runner(
    const sss::BatchItem& item, const TrialRef& ref,
    const sss::ProtocolFactory& factory, sss::LegitimacyPredicate legitimacy);

/// One row of the JSONL stream, reduced to the fields the checks compare.
struct SinkRow {
  int item = 0;
  int trial = 0;
  bool silent = false;
  std::uint64_t steps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t rounds_to_silence = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t total_read_bits = 0;
  std::uint64_t max_reads = 0;
  std::uint64_t churn_window_steps = 0;
  std::uint64_t churn_disruptions = 0;
  std::uint64_t churn_recoveries = 0;
  std::uint64_t churn_legitimate_steps = 0;
};

/// Parses a JSONL stream written by sss::JsonlSink and returns its rows
/// sorted by (item, trial). Throws on malformed lines.
std::vector<SinkRow> read_sink_rows(const std::string& path);

/// The problem an item's outputs are checked against: the item's bound
/// problem, or else the one its protocol case resolves to in the
/// registry (owned by the returned pointer's holder).
struct CheckProblems {
  std::vector<std::unique_ptr<sss::Problem>> owned;
  std::vector<const sss::Problem*> per_item;
};
CheckProblems resolve_check_problems(const sss::ExperimentPlan& plan,
                                     const Workload& workload);

}  // namespace labbench
