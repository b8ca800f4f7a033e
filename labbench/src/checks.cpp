#include "checks.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "analysis/sink.hpp"
#include "core/bounds.hpp"
#include "core/mis_protocol.hpp"
#include "runtime/daemon.hpp"
#include "runtime/metrics.hpp"
#include "runtime/reference_engine.hpp"

namespace labbench {

namespace {

std::string where(const sss::ExperimentPlan& plan, const TrialRef& ref) {
  return plan.items[static_cast<std::size_t>(ref.item)].label + " under " +
         ref.daemon + " (seed " + std::to_string(ref.engine_seed) + ")";
}

/// The paper's closed-form rounds-to-silence bound for the protocol, if
/// src/core/bounds.hpp states one.
std::optional<std::int64_t> round_bound(const ProtocolCase& c,
                                        const sss::Graph& g,
                                        const sss::Protocol& protocol) {
  const int n = g.num_vertices();
  const int delta = g.max_degree();
  if (c.key == "mis") {
    const auto& mis = dynamic_cast<const sss::MisProtocol&>(protocol);
    return sss::mis_round_bound(delta, mis.num_colors());
  }
  if (c.key == "matching") return sss::matching_round_bound(n, delta);
  if (c.key == "bfs-tree") return sss::bfs_tree_round_bound(n, delta);
  if (c.key == "spanning-forest") {
    return sss::spanning_forest_round_bound(n, delta);
  }
  if (c.key == "leader-election") {
    return sss::leader_election_round_bound(n, delta);
  }
  return std::nullopt;
}

/// Claims that hold over a whole run, stabilization included.
std::optional<int> run_read_limit(const ProtocolCase& c, const sss::Graph& g) {
  switch (c.claim) {
    case ReadClaim::kOne:
      return 1;
    case ReadClaim::kTwo:
      return 2;
    case ReadClaim::kDegree:
      return g.max_degree();
    case ReadClaim::kOneWhenStable:
      return std::nullopt;
  }
  return std::nullopt;
}

/// The verification pass's checks on one trial, applied between the
/// trial's phases by verify_trial.
class TrialChecks {
 public:
  TrialChecks(const sss::ExperimentPlan& plan, const TrialRef& ref,
              const ProtocolCase& protocol_case, const sss::Problem& problem,
              CheckLog& log)
      : plan_(plan),
        ref_(ref),
        item_(plan.items[static_cast<std::size_t>(ref.item)]),
        case_(protocol_case),
        problem_(problem),
        log_(log) {}

  /// A trial's run (or a churn trial's stabilization): certified silence,
  /// the predicate, the round bound and the run-long read claim. Returns
  /// whether the trial certified silence.
  bool check_stabilized(const sss::Configuration& config,
                        const sss::RunStats& stats) {
    const sss::Graph& g = *item_.graph;
    if (!stats.silent) {
      ++log_.failed_trials;
      return false;
    }
    if (!problem_.holds(g, config)) {
      log_.error(where(plan_, ref_) + ": silent configuration violates " +
                 problem_.name());
    }
    if (const auto bound = round_bound(case_, g, *item_.protocol)) {
      if (static_cast<std::int64_t>(stats.rounds_to_silence) > *bound) {
        log_.error(where(plan_, ref_) + ": " +
                   std::to_string(stats.rounds_to_silence) +
                   " rounds to silence exceed the bound " +
                   std::to_string(*bound));
      }
    }
    if (const auto limit = run_read_limit(case_, g)) {
      if (stats.max_reads_per_process_step > *limit) {
        log_.error(where(plan_, ref_) + ": measured k = " +
                   std::to_string(stats.max_reads_per_process_step) +
                   " exceeds the claimed " + std::to_string(*limit));
      }
    }
    return true;
  }

  /// A trial without churn: the checks above, then the stabilized-phase
  /// read claim of generic-efficiency.
  void check_run(sss::Engine& engine, const sss::RunStats& stats) {
    if (check_stabilized(engine.config(), stats) &&
        case_.claim == ReadClaim::kOneWhenStable) {
      check_stable_reads(engine);
    }
  }

  /// A churn window: event kinds summing to the disruptions, the full
  /// window length, and — when the trial stabilized — re-convergence.
  void check_window(sss::ChurnRunner<sss::Engine>& runner, bool stabilized) {
    const sss::ChurnStats& churn = runner.stats();
    const std::uint64_t kinds =
        churn.corruptions + churn.node_resets + churn.topology_events();
    if (kinds != churn.disruptions) {
      log_.error(where(plan_, ref_) + ": event kinds sum to " +
                 std::to_string(kinds) + " but " +
                 std::to_string(churn.disruptions) + " disruptions");
    }
    if (churn.window_steps != item_.churn.window_steps) {
      log_.error(where(plan_, ref_) + ": window ran " +
                 std::to_string(churn.window_steps) + " steps");
    }
    if (!stabilized) return;
    // Self-stabilization after the last disruption: the window's final
    // configuration (on its possibly churned topology) converges again.
    sss::RunOptions run;
    run.max_steps = item_.churn.stabilize_steps;
    const sss::RunStats after = runner.engine().run(run);
    if (!after.silent) {
      ++log_.failed_trials;
      return;
    }
    if (!problem_.holds(runner.graph(), runner.config())) {
      log_.error(where(plan_, ref_) +
                 ": re-converged configuration after the churn window "
                 "violates " + problem_.name());
    }
    if (case_.claim == ReadClaim::kOneWhenStable) {
      check_stable_reads(runner.engine());
    }
  }

 private:
  /// generic-efficiency's claim: in the stabilized phase — no stale
  /// mirror — every process reads at most one neighbor per step. Silence
  /// fixes the communication variables but not the mirrors; each process
  /// audits one channel per selection, so Delta + 2 rounds after silence
  /// every stale mirror has been found and refreshed. The claim is then
  /// checked over two further rounds.
  void check_stable_reads(sss::Engine& engine) {
    const sss::Graph& g = engine.graph();
    const std::uint64_t settle_rounds =
        static_cast<std::uint64_t>(g.max_degree()) + 2;
    const std::uint64_t step_cap =
        (settle_rounds + 4) * static_cast<std::uint64_t>(g.num_vertices()) * 64;
    const std::uint64_t first_step = engine.steps();
    const auto advance = [&](std::uint64_t rounds, sss::StepReadCounter* c) {
      const std::uint64_t until = engine.rounds() + rounds;
      while (engine.rounds() < until) {
        if (engine.steps() - first_step > step_cap) return false;
        if (c != nullptr) c->begin_step();
        engine.step();
      }
      return true;
    };
    sss::StepReadCounter counter(g, engine.protocol().spec());
    bool completed = advance(settle_rounds, nullptr);
    engine.attach_read_logger(&counter);
    completed = completed && advance(2, &counter);
    engine.detach_read_logger(&counter);
    if (!completed) {
      log_.error(where(plan_, ref_) + ": rounds stopped completing after "
                 "silence");
    } else if (counter.max_reads_per_process_step() > 1) {
      log_.error(where(plan_, ref_) + ": stabilized k = " +
                 std::to_string(counter.max_reads_per_process_step()) +
                 " exceeds the claimed 1");
    }
  }

  const sss::ExperimentPlan& plan_;
  const TrialRef& ref_;
  const sss::BatchItem& item_;
  const ProtocolCase& case_;
  const sss::Problem& problem_;
  CheckLog& log_;
};

/// Runs one trial as run_serial_trial does, applying the checks after
/// each phase (after the result is recorded, since some checks run the
/// engine on).
TrialResult verify_trial(const sss::BatchItem& item, const TrialRef& ref,
                         TrialChecks& checks) {
  TrialResult result;
  const sss::RunOptions run = effective_run_options(item);
  if (item.churn_enabled) {
    auto runner =
        make_churn_runner(item, ref, item.protocol_factory, run.legitimacy);
    result.stats = runner->stabilize();
    const bool stabilized =
        checks.check_stabilized(runner->config(), result.stats);
    runner->run_window();
    result.churn = runner->stats();
    result.config_hash = runner->config().hash();
    checks.check_window(*runner, stabilized);
    return result;
  }
  const std::unique_ptr<sss::Engine> engine = make_engine(item, ref);
  result.stats = engine->run(run);
  result.config_hash = engine->config().hash();
  checks.check_run(*engine, result.stats);
  return result;
}

bool same_run(const sss::RunStats& a, const sss::RunStats& b) {
  return a.steps == b.steps && a.rounds == b.rounds && a.silent == b.silent &&
         a.steps_to_silence == b.steps_to_silence &&
         a.rounds_to_silence == b.rounds_to_silence &&
         a.reached_legitimate == b.reached_legitimate &&
         a.steps_to_legitimate == b.steps_to_legitimate &&
         a.total_reads == b.total_reads &&
         a.total_read_bits == b.total_read_bits &&
         a.max_reads_per_process_step == b.max_reads_per_process_step &&
         a.max_bits_per_process_step == b.max_bits_per_process_step;
}

bool same_window(const sss::ChurnStats& a, const sss::ChurnStats& b) {
  return a.window_steps == b.window_steps &&
         a.legitimate_steps == b.legitimate_steps &&
         a.disruptions == b.disruptions && a.recoveries == b.recoveries &&
         a.skipped_events == b.skipped_events &&
         a.recovery_reads == b.recovery_reads && a.idle_reads == b.idle_reads;
}

/// Runs the plan through run_batch at `threads` and returns its JSONL
/// stream with the rows in (item, trial) order.
std::vector<std::string> sorted_batch_stream(const sss::ExperimentPlan& plan,
                                             int threads) {
  std::ostringstream out;
  sss::JsonlSink sink(out);
  sss::BatchOptions options;
  options.threads = threads;
  sss::run_batch_to_sinks(plan.items, options, {&sink});
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // Completion order differs between thread counts; the canonical order
  // is by the (item, trial) keys the rows lead with.
  std::sort(lines.begin(), lines.end(),
            [](const std::string& a, const std::string& b) {
              const auto key = [](const std::string& line) {
                const sss::JsonValue v = sss::JsonValue::parse(line);
                return std::make_pair(v.at("item").as_int(),
                                      v.at("trial").as_int());
              };
              return key(a) < key(b);
            });
  return lines;
}

}  // namespace

void CheckLog::error(std::string message) {
  errors.push_back(std::move(message));
}

std::vector<TrialResult> verify_plan(const Workload& workload,
                                     const sss::ExperimentPlan& plan,
                                     const std::vector<TrialRef>& trials,
                                     const CheckProblems& problems,
                                     CheckLog& log) {
  std::vector<TrialResult> out;
  out.reserve(trials.size());
  for (const TrialRef& ref : trials) {
    const auto item = static_cast<std::size_t>(ref.item);
    TrialChecks checks(plan, ref, workload.case_of_item(item),
                       *problems.per_item[item], log);
    out.push_back(verify_trial(plan.items[item], ref, checks));
  }
  return out;
}

bool same_trial_result(const TrialResult& a, const TrialResult& b) {
  return same_run(a.stats, b.stats) && same_window(a.churn, b.churn) &&
         a.config_hash == b.config_hash;
}

void check_batch_rows(const std::vector<TrialResult>& reference,
                      const std::vector<SinkRow>& rows,
                      const std::vector<TrialRef>& trials, CheckLog& log) {
  if (rows.size() != trials.size()) {
    log.error("sink stream holds " + std::to_string(rows.size()) +
              " rows for " + std::to_string(trials.size()) + " trials");
    return;
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const SinkRow& row = rows[i];
    const sss::RunStats& s = reference[i].stats;
    const sss::ChurnStats& c = reference[i].churn;
    const bool same_coordinates =
        row.item == trials[i].item && row.trial == trials[i].trial;
    const bool same_stats =
        row.silent == s.silent && row.steps == s.steps &&
        row.rounds == s.rounds && row.rounds_to_silence == s.rounds_to_silence &&
        row.total_reads == s.total_reads &&
        row.total_read_bits == s.total_read_bits &&
        row.max_reads ==
            static_cast<std::uint64_t>(s.max_reads_per_process_step);
    const bool same_churn = row.churn_window_steps == c.window_steps &&
                            row.churn_disruptions == c.disruptions &&
                            row.churn_recoveries == c.recoveries &&
                            row.churn_legitimate_steps == c.legitimate_steps;
    if (!same_coordinates || !same_stats || !same_churn) {
      log.error("sink row for item " + std::to_string(trials[i].item) +
                " trial " + std::to_string(trials[i].trial) +
                " disagrees with the serial engine path");
    }
  }
}

void run_oracles(const Workload& workload, const sss::ExperimentPlan& plan,
                 const std::vector<TrialRef>& trials,
                 const std::vector<TrialResult>& reference,
                 std::uint64_t seed, CheckLog& log) {
  if (workload.churn) {
    if (sorted_batch_stream(plan, 1) != sorted_batch_stream(plan, 2)) {
      log.error("churn rows differ between 1 and 2 batch threads");
    }
    return;
  }
  if (workload.name != "sync-cofire") return;
  // A seed-chosen sample: every fifth item, offset by the seed, so each
  // graph family and a rotating set of protocols is covered.
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialRef& ref = trials[i];
    if (static_cast<std::uint64_t>(ref.item) % 5 != seed % 5) continue;
    const sss::BatchItem& item = plan.items[static_cast<std::size_t>(ref.item)];
    const sss::RunOptions run = effective_run_options(item);

    sss::Engine scalar(*item.graph, *item.protocol,
                       sss::make_daemon(ref.daemon), ref.engine_seed);
    scalar.set_sweep_mode(sss::SweepMode::kForceScalar);
    scalar.randomize_state();
    const sss::RunStats scalar_stats = scalar.run(run);
    if (!same_run(scalar_stats, reference[i].stats) ||
        scalar.config().hash() != reference[i].config_hash) {
      log.error(where(plan, ref) + ": force_scalar run diverged");
    }

    sss::ReferenceEngine oracle(*item.graph, *item.protocol,
                                sss::make_daemon(ref.daemon), ref.engine_seed);
    oracle.randomize_state();
    const sss::RunStats oracle_stats = oracle.run(run);
    if (!same_run(oracle_stats, reference[i].stats) ||
        oracle.config().hash() != reference[i].config_hash) {
      log.error(where(plan, ref) + ": ReferenceEngine run diverged");
    }
  }
}

}  // namespace labbench
