#pragma once
/// \file traced.hpp
/// The traced run: the per-layer numbers, measured by timing calls into
/// each layer's public functions from the benchmark's own code.
///
/// It repeats three passes over the plan until the run's time is spent:
///  * an engine-layer pass with tracing off;
///  * the same pass with tracing on — spans around Engine::run, a
///    replay of the trial's steps through Engine::step (each timed, with
///    StepInfo::selected summed), the final Engine::quiescent() call, and
///    ChurnRunner::stabilize / run_window — so the tracing overhead is the
///    difference of the two passes' walls;
///  * a batch pass through run_batch with a timing wrapper around the
///    JSONL sink.
/// Setup layers (graph build, protocol construction, plan expansion) are
/// timed once, by calling the registries and the plan builder directly.
/// Workloads without churn windows run one short probe window on their
/// first full-read-mis trial, so the churn layer is measured everywhere.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "trace.hpp"
#include "trials.hpp"
#include "workloads.hpp"

namespace labbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// The per-layer metrics every workload reports, in output order.
const std::vector<MetricDef>& per_layer_metrics();

struct TracedRunInputs {
  const Workload& workload;
  const sss::ExperimentPlan& plan;
  const std::string& manifest;
  const std::vector<TrialRef>& trials;
  const std::vector<TrialResult>& reference;
  const CheckProblems& problems;
  std::string sink_path;
  double seconds = 0.0;
};

struct TracedRunResult {
  /// Every per-layer figure, including per-protocol step costs of every
  /// protocol of the workload (the trace file gets all of them).
  std::map<std::string, double> metrics;
  /// Rounds of the three passes that were run (each covers every trial).
  int passes = 0;
};

TracedRunResult traced_run(const TracedRunInputs& inputs, Tracer& tracer,
                           CheckLog& log);

}  // namespace labbench
