#include "trials.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/problem_registry.hpp"
#include "runtime/daemon.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace labbench {

std::vector<TrialRef> enumerate_trials(const sss::ExperimentPlan& plan) {
  std::vector<TrialRef> out;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const sss::BatchItem& item = plan.items[i];
    const int per_item =
        static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
    for (int t = 0; t < per_item; ++t) {
      out.push_back({static_cast<int>(i), t,
                     item.daemons[static_cast<std::size_t>(
                         t / item.seeds_per_daemon)],
                     item.base_seed + 1 + static_cast<std::uint64_t>(t)});
    }
  }
  return out;
}

sss::RunOptions effective_run_options(const sss::BatchItem& item) {
  sss::RunOptions run = item.run;
  if (item.problem != nullptr && !run.legitimacy) {
    run.legitimacy = item.problem->predicate();
  }
  return run;
}

sss::ChurnOptions trial_churn_options(const sss::BatchItem& item,
                                      std::uint64_t engine_seed) {
  sss::ChurnOptions churn = item.churn;
  std::uint64_t state = churn.seed ^ (0x9e3779b97f4a7c15ULL * (engine_seed + 1));
  churn.seed = sss::splitmix64(state);
  churn.exclude_frozen = item.exclude_frozen;
  churn.sweep_mode = item.sweep_mode;
  return churn;
}

std::unique_ptr<sss::ChurnRunner<sss::Engine>> make_churn_runner(
    const sss::BatchItem& item, const TrialRef& ref,
    const sss::ProtocolFactory& factory, sss::LegitimacyPredicate legitimacy) {
  const sss::ChurnOptions churn = trial_churn_options(item, ref.engine_seed);
  if (factory) {
    return std::make_unique<sss::ChurnRunner<sss::Engine>>(
        *item.graph, factory, ref.daemon, ref.engine_seed, churn,
        std::move(legitimacy));
  }
  return std::make_unique<sss::ChurnRunner<sss::Engine>>(
      *item.graph, *item.protocol, ref.daemon, ref.engine_seed, churn,
      std::move(legitimacy));
}

std::unique_ptr<sss::Engine> make_engine(const sss::BatchItem& item,
                                         const TrialRef& ref) {
  auto engine = std::make_unique<sss::Engine>(
      *item.graph, *item.protocol, sss::make_daemon(ref.daemon),
      ref.engine_seed);
  engine->set_exclude_frozen(item.exclude_frozen);
  engine->set_parallel_threads(item.parallel_threads);
  engine->set_sweep_mode(item.sweep_mode);
  if (!item.churn_enabled) engine->randomize_state();
  return engine;
}

TrialResult run_serial_trial(const sss::BatchItem& item, const TrialRef& ref) {
  TrialResult result;
  const sss::RunOptions run = effective_run_options(item);
  if (item.churn_enabled) {
    auto runner =
        make_churn_runner(item, ref, item.protocol_factory, run.legitimacy);
    result.stats = runner->stabilize();
    runner->run_window();
    result.churn = runner->stats();
    result.config_hash = runner->config().hash();
    return result;
  }
  const std::unique_ptr<sss::Engine> engine = make_engine(item, ref);
  result.stats = engine->run(run);
  result.config_hash = engine->config().hash();
  return result;
}

std::vector<SinkRow> read_sink_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read sink stream " + path);
  std::vector<SinkRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const sss::JsonValue value = sss::JsonValue::parse(line);
    const auto count = [&](const char* key) {
      return static_cast<std::uint64_t>(value.at(key).as_int());
    };
    SinkRow row;
    row.item = static_cast<int>(value.at("item").as_int());
    row.trial = static_cast<int>(value.at("trial").as_int());
    row.silent = value.at("silent").as_bool();
    row.steps = count("steps");
    row.rounds = count("rounds");
    row.rounds_to_silence = count("rounds_to_silence");
    row.total_reads = count("total_reads");
    row.total_read_bits = count("total_read_bits");
    row.max_reads = count("max_reads_per_process_step");
    row.churn_window_steps = count("churn_window_steps");
    row.churn_disruptions = count("churn_disruptions");
    row.churn_recoveries = count("churn_recoveries");
    row.churn_legitimate_steps = count("churn_legitimate_steps");
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const SinkRow& a, const SinkRow& b) {
    return a.item != b.item ? a.item < b.item : a.trial < b.trial;
  });
  return rows;
}

CheckProblems resolve_check_problems(const sss::ExperimentPlan& plan,
                                     const Workload& workload) {
  CheckProblems out;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    const sss::BatchItem& item = plan.items[i];
    if (item.problem != nullptr) {
      out.per_item.push_back(item.problem);
      continue;
    }
    const std::string name = sss::ProtocolRegistry::instance()
                                 .resolve(workload.case_of_item(i).selection)
                                 .problem;
    out.owned.push_back(sss::ProblemRegistry::instance().make(name));
    out.per_item.push_back(out.owned.back().get());
  }
  return out;
}

}  // namespace labbench
