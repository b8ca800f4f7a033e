#include "measure.hpp"

#include <algorithm>
#include <fstream>

#include "analysis/sink.hpp"
#include "estimate.hpp"
#include "trace.hpp"

namespace labbench {

namespace {

/// The items of one graph, as their own run_batch plan, with the trials
/// and verified results they must reproduce (item indices group-local,
/// as the sink rows carry them).
struct BatchGroup {
  std::vector<sss::BatchItem> items;
  std::vector<TrialRef> trials;
  std::vector<TrialResult> reference;
};

std::vector<BatchGroup> group_by_graph(const Workload& workload,
                                       const sss::ExperimentPlan& plan,
                                       const std::vector<TrialRef>& trials,
                                       const std::vector<TrialResult>& reference) {
  const auto graphs = static_cast<std::size_t>(workload.graph_count);
  std::vector<BatchGroup> groups(graphs);
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    groups[i % graphs].items.push_back(plan.items[i]);
  }
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const auto item = static_cast<std::size_t>(trials[t].item);
    TrialRef local = trials[t];
    local.item = static_cast<int>(item / graphs);
    groups[item % graphs].trials.push_back(local);
    groups[item % graphs].reference.push_back(reference[t]);
  }
  return groups;
}

double timed_batch(BatchGroup& group, const std::string& sink_path,
                   CheckLog& log) {
  double seconds = 0;
  {
    std::ofstream file(sink_path, std::ios::trunc);
    sss::JsonlSink sink(file);
    sss::BatchOptions options;
    options.threads = kBatchThreads;
    const Clock::time_point start = Clock::now();
    sss::run_batch_to_sinks(group.items, options, {&sink});
    seconds = seconds_between(start, Clock::now());
  }
  const std::vector<SinkRow> rows = read_sink_rows(sink_path);
  check_batch_rows(group.reference, rows, group.trials, log);
  return seconds;
}

}  // namespace

int timed_repetitions(const Workload& workload, double seconds) {
  return std::max(5, static_cast<int>(workload.rounds_per_second * seconds + 0.5));
}

Measurement measure_end_to_end(const Workload& workload,
                               const sss::ExperimentPlan& plan,
                               const std::vector<TrialRef>& trials,
                               const std::vector<TrialResult>& reference,
                               const std::string& sink_path, double seconds,
                               CheckLog& log) {
  std::vector<BatchGroup> groups =
      group_by_graph(workload, plan, trials, reference);
  // Warm-up of the lab path (the verification pass warmed the library
  // path).
  for (BatchGroup& group : groups) timed_batch(group, sink_path, log);

  std::vector<std::vector<double>> group_s(groups.size());
  std::vector<std::vector<double>> trial_s(trials.size());
  Measurement out;
  const int repetitions = timed_repetitions(workload, seconds);
  const Clock::time_point cap =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  CpuRotation rotation;
  while (out.repetitions < repetitions &&
         (out.repetitions < 5 || Clock::now() < cap)) {
    rotation.next();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      group_s[g].push_back(timed_batch(groups[g], sink_path, log));
    }
    for (std::size_t t = 0; t < trials.size(); ++t) {
      const TrialRef& ref = trials[t];
      const Clock::time_point start = Clock::now();
      const TrialResult result =
          run_serial_trial(plan.items[static_cast<std::size_t>(ref.item)], ref);
      trial_s[t].push_back(seconds_between(start, Clock::now()));
      if (!same_trial_result(result, reference[t])) {
        log.error("serial repetition of item " + std::to_string(ref.item) +
                  " trial " + std::to_string(ref.trial) +
                  " diverged from the verification pass");
      }
    }
    ++out.repetitions;
  }

  double batch_time = 0, serial_time = 0;
  for (const auto& samples : group_s) batch_time += fastest(samples);
  for (const auto& samples : trial_s) serial_time += fastest(samples);
  std::uint64_t plan_steps = 0;
  for (const TrialResult& r : reference) plan_steps += r.engine_steps();
  out.trials_per_s = static_cast<double>(trials.size()) / batch_time;
  out.steps_per_s = static_cast<double>(plan_steps) / serial_time;
  return out;
}

}  // namespace labbench
