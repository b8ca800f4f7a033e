#include "traced.hpp"

#include <fstream>
#include <memory>
#include <thread>

#include "analysis/sink.hpp"
#include "estimate.hpp"
#include "graph/family_registry.hpp"
#include "support/json.hpp"

namespace labbench {

namespace {

/// Time-valued figures are reduced over passes by the fastest pass; the
/// rest are counts, which must repeat exactly in every pass.
bool is_time(const std::string& name) {
  return name.ends_with("_s") || name.find("ns_per") != std::string::npos;
}

/// Engine-layer pass: every trial through Engine::run, a replay of its
/// steps through Engine::step, and Engine::quiescent(); churn trials (and
/// the probe window of non-churn workloads) through ChurnRunner. With a
/// null tracer the same calls run without spans, timers or wrappers.
class EngineLayerPass {
 public:
  EngineLayerPass(const TracedRunInputs& in, Tracer* tracer, CheckLog& log)
      : in_(in), tracer_(tracer), log_(log) {}

  LayerSample run() {
    const SpanScope pass(tracer_, "pass.engine");
    for (const TrialRef& ref : in_.trials) trial(ref, pass.id());
    if (!in_.workload.churn) probe_window(pass.id());
    return sample();
  }

 private:
  bool traced() const { return tracer_ != nullptr; }

  /// The item's predicate, wrapped to time Problem::holds when traced.
  sss::LegitimacyPredicate predicate(const sss::Problem* problem) {
    if (problem == nullptr) return {};
    if (!traced()) return problem->predicate();
    return [this, problem](const sss::Graph& g, const sss::Configuration& c) {
      const Clock::time_point start = Clock::now();
      const bool holds = problem->holds(g, c);
      holds_s_ += seconds_between(start, Clock::now());
      ++holds_calls_;
      return holds;
    };
  }

  /// The item's protocol factory, wrapped to time ProtocolRegistry::make.
  sss::ProtocolFactory factory(const sss::ProtocolFactory& inner) {
    if (!inner || !traced()) return inner;
    return [this, inner](const sss::Graph& g) {
      const Clock::time_point start = Clock::now();
      std::unique_ptr<sss::Protocol> protocol = inner(g);
      make_s_ += seconds_between(start, Clock::now());
      return protocol;
    };
  }

  void trial(const TrialRef& ref, int parent) {
    const sss::BatchItem& item = in_.plan.items[static_cast<std::size_t>(ref.item)];
    const std::string& key =
        in_.workload.case_of_item(static_cast<std::size_t>(ref.item)).key;
    sss::RunOptions run = item.run;
    if (item.churn_enabled) {
      run = sss::RunOptions{};
      run.max_steps = item.churn.stabilize_steps;
    }
    run.legitimacy = predicate(item.problem);

    std::unique_ptr<sss::Engine> engine = make_engine(item, ref);
    sss::RunStats stats;
    {
      const SpanScope span(tracer_, "engine.run", parent);
      const Clock::time_point start = Clock::now();
      stats = engine->run(run);
      if (traced()) run_s_ += seconds_between(start, Clock::now());
    }
    steps_ += stats.steps;
    rounds_ += stats.rounds;
    reads_ += stats.total_reads;
    read_bits_ += stats.total_read_bits;

    // The same trajectory again, one timed Engine::step call at a time.
    std::unique_ptr<sss::Engine> replay = make_engine(item, ref);
    {
      const SpanScope span(tracer_, "engine.steps", parent);
      auto& [key_s, key_activations] = step_by_key_[key];
      for (std::uint64_t s = 0; s < stats.steps; ++s) {
        sss::Engine::StepInfo info;
        if (traced()) {
          const Clock::time_point start = Clock::now();
          info = replay->step();
          const double dt = seconds_between(start, Clock::now());
          step_s_ += dt;
          key_s += dt;
        } else {
          info = replay->step();
        }
        activations_ += static_cast<std::uint64_t>(info.selected);
        key_activations += static_cast<std::uint64_t>(info.selected);
        fired_ += static_cast<std::uint64_t>(info.fired);
      }
    }
    bool quiescent = false;
    {
      const SpanScope span(tracer_, "engine.quiescent", parent);
      const Clock::time_point start = Clock::now();
      quiescent = replay->quiescent();
      if (traced()) quiescent_s_ += seconds_between(start, Clock::now());
    }
    if (replay->config().hash() != engine->config().hash() ||
        quiescent != stats.silent) {
      log_.error(item.label + " under " + ref.daemon +
                 ": Engine::step replay diverged from Engine::run");
    }

    if (item.churn_enabled) {
      auto runner = make_churn_runner(item, ref, factory(item.protocol_factory),
                                      predicate(item.problem));
      drive_churn(*runner, parent);
    }
  }

  /// One short corruption window on the workload's first full-read-mis
  /// trial, so workloads without churn windows report the churn layer.
  /// Its stabilization stops one step past the silence point the
  /// verification pass measured: ChurnRunner::stabilize has no patience
  /// setting, and idling max(16, n) steps before certifying would cost a
  /// 5000-node co-firing trial seconds of empty O(n) steps.
  void probe_window(int parent) {
    for (std::size_t t = 0; t < in_.trials.size(); ++t) {
      const TrialRef& ref = in_.trials[t];
      const auto index = static_cast<std::size_t>(ref.item);
      if (in_.workload.case_of_item(index).key != "full-read-mis") continue;
      const sss::BatchItem& item = in_.plan.items[index];
      sss::ChurnOptions probe;
      probe.period = 32;
      probe.window_steps = 128;
      probe.stabilize_steps = in_.reference[t].stats.steps_to_silence + 1;
      probe.seed = ref.engine_seed;
      probe.recovery_patience = 8;
      probe.sweep_mode = item.sweep_mode;
      sss::ChurnRunner<sss::Engine> runner(
          *item.graph, *item.protocol, ref.daemon, ref.engine_seed, probe,
          predicate(in_.problems.per_item[index]));
      drive_churn(runner, parent);
      return;
    }
  }

  void drive_churn(sss::ChurnRunner<sss::Engine>& runner, int parent) {
    {
      const SpanScope span(tracer_, "churn.stabilize", parent);
      const Clock::time_point start = Clock::now();
      runner.stabilize();
      if (traced()) stabilize_s_ += seconds_between(start, Clock::now());
    }
    {
      const SpanScope span(tracer_, "churn.window", parent);
      const Clock::time_point start = Clock::now();
      runner.run_window();
      if (traced()) window_s_ += seconds_between(start, Clock::now());
    }
    const sss::ChurnStats& churn = runner.stats();
    window_steps_ += churn.window_steps;
    disruptions_ += churn.disruptions;
    topology_events_ += churn.topology_events();
    skipped_events_ += churn.skipped_events;
    recoveries_ += churn.recoveries;
    recovering_steps_ += churn.recovering_steps;
  }

  LayerSample sample() const {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    LayerSample out;
    out["engine.step_ns_per_activation"] = per(step_s_ * 1e9, d(activations_));
    for (const auto& [key, cost] : step_by_key_) {
      out["engine.step_ns_per_activation." + key] =
          per(cost.first * 1e9, d(cost.second));
    }
    out["engine.run_s"] = run_s_;
    out["engine.quiescent_s"] = quiescent_s_;
    out["engine.steps"] = d(steps_);
    out["engine.rounds"] = d(rounds_);
    out["engine.activations"] = d(activations_);
    out["engine.fired"] = d(fired_);
    out["engine.fired_per_activation"] = per(d(fired_), d(activations_));
    out["engine.reads"] = d(reads_);
    out["engine.read_bits"] = d(read_bits_);
    out["churn.stabilize_s"] = stabilize_s_;
    out["churn.window_s"] = window_s_;
    out["churn.ns_per_window_step"] = per(window_s_ * 1e9, d(window_steps_));
    out["churn.window_steps"] = d(window_steps_);
    out["churn.disruptions"] = d(disruptions_);
    out["churn.topology_events"] = d(topology_events_);
    out["churn.skipped_events"] = d(skipped_events_);
    out["churn.recoveries"] = d(recoveries_);
    out["churn.recovering_steps"] = d(recovering_steps_);
    out["problem.holds_s"] = holds_s_;
    out["problem.holds_calls"] = d(holds_calls_);
    out["protocol.make_in_churn_s"] = make_s_;
    return out;
  }

  const TracedRunInputs& in_;
  Tracer* tracer_;
  CheckLog& log_;

  double run_s_ = 0, step_s_ = 0, quiescent_s_ = 0;
  std::uint64_t steps_ = 0, rounds_ = 0, activations_ = 0, fired_ = 0;
  std::uint64_t reads_ = 0, read_bits_ = 0;
  /// Per protocol key: (Engine::step seconds, activations).
  std::map<std::string, std::pair<double, std::uint64_t>> step_by_key_;
  double stabilize_s_ = 0, window_s_ = 0;
  std::uint64_t window_steps_ = 0, disruptions_ = 0, topology_events_ = 0;
  std::uint64_t skipped_events_ = 0, recoveries_ = 0, recovering_steps_ = 0;
  double holds_s_ = 0, make_s_ = 0;
  std::uint64_t holds_calls_ = 0;
};

/// JSONL sink wrapper timing each row write. Calls are serialized by the
/// batch runner; a worker's time between the end of its previous write
/// (or the batch start) and its next row is that trial's busy time.
class TracingSink final : public sss::ResultSink {
 public:
  TracingSink(std::ofstream& out, Tracer& tracer, int parent,
              Clock::time_point start)
      : out_(out), inner_(out), tracer_(tracer), parent_(parent),
        start_(start) {}

  void on_trial(const sss::BatchTrialRow& row) override {
    const Clock::time_point entry = Clock::now();
    const auto [last, fresh] =
        last_end_.try_emplace(std::this_thread::get_id(), start_);
    busy_s_ += seconds_between(last->second, entry);
    const std::streamoff before = out_.tellp();
    {
      const SpanScope span(&tracer_, "sink.write", parent_);
      inner_.on_trial(row);
    }
    const Clock::time_point exit = Clock::now();
    write_s_ += seconds_between(entry, exit);
    bytes_ += static_cast<double>(out_.tellp() - before);
    ++rows_;
    last->second = exit;
  }
  void finish() override { inner_.finish(); }

  double busy_s() const { return busy_s_; }
  double write_s() const { return write_s_; }
  double bytes() const { return bytes_; }
  double rows() const { return rows_; }

 private:
  std::ofstream& out_;
  sss::JsonlSink inner_;
  Tracer& tracer_;
  int parent_;
  Clock::time_point start_;
  std::map<std::thread::id, Clock::time_point> last_end_;
  double busy_s_ = 0, write_s_ = 0, bytes_ = 0, rows_ = 0;
};

LayerSample batch_pass(const TracedRunInputs& in, Tracer& tracer,
                       CheckLog& log) {
  LayerSample out;
  {
    std::ofstream file(in.sink_path, std::ios::trunc);
    const SpanScope span(&tracer, "batch.run");
    const Clock::time_point start = Clock::now();
    TracingSink sink(file, tracer, span.id(), start);
    sss::BatchOptions options;
    options.threads = kBatchThreads;
    const sss::BatchResult result =
        sss::run_batch_to_sinks(in.plan.items, options, {&sink});
    out["batch.wall_s"] = seconds_between(start, Clock::now());
    out["batch.busy_s"] = sink.busy_s();
    out["batch.trials"] = result.total_trials;
    out["sink.write_s"] = sink.write_s();
    out["sink.rows"] = sink.rows();
    out["sink.bytes"] = sink.bytes();
  }
  check_batch_rows(in.reference, read_sink_rows(in.sink_path), in.trials,
                   log);
  return out;
}

/// Setup layers, timed once: each graph through the family registry,
/// each protocol through the protocol registry, then the whole manifest
/// through the plan builder.
LayerSample setup_layers(const TracedRunInputs& in, Tracer& tracer) {
  LayerSample out;
  const SpanScope setup(&tracer, "setup");
  const sss::JsonValue manifest = sss::JsonValue::parse(in.manifest);
  const sss::JsonValue& graph_specs =
      manifest.at("sweeps").items().front().at("graphs");
  std::vector<sss::Graph> graphs;
  double build_s = 0, csr_bytes = 0, make_s = 0;
  for (const sss::JsonValue& spec : graph_specs.items()) {
    sss::ParamMap params;
    for (const auto& [name, value] : spec.members()) {
      if (name != "family") params[name] = value.as_double();
    }
    const SpanScope span(&tracer, "graph.build", setup.id());
    const Clock::time_point start = Clock::now();
    graphs.push_back(sss::GraphFamilyRegistry::instance().build(
        spec.at("family").as_string(), params));
    build_s += seconds_between(start, Clock::now());
    const sss::Graph& g = graphs.back();
    csr_bytes += static_cast<double>(g.csr_offsets().size_bytes() +
                                     g.csr_neighbors().size_bytes() +
                                     g.csr_mirrors().size_bytes());
  }
  for (const ProtocolCase& c : in.workload.protocols) {
    for (const sss::Graph& g : graphs) {
      const SpanScope span(&tracer, "protocol.make", setup.id());
      const Clock::time_point start = Clock::now();
      const std::unique_ptr<sss::Protocol> protocol =
          sss::ProtocolRegistry::instance().make(c.selection, g);
      make_s += seconds_between(start, Clock::now());
    }
  }
  {
    const SpanScope span(&tracer, "plan.expand", setup.id());
    const Clock::time_point start = Clock::now();
    const sss::ExperimentPlan plan = sss::plan_from_manifest_text(in.manifest);
    out["plan.expand_s"] = seconds_between(start, Clock::now());
  }
  out["graph.build_s"] = build_s;
  out["graph.csr_bytes"] = csr_bytes;
  out["protocol.make_setup_s"] = make_s;
  return out;
}

}  // namespace

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> out = {
        {"engine.step_ns_per_activation", "ns"},
        {"engine.run_s", "s"},
        {"engine.quiescent_s", "s"},
        {"engine.steps", "count"},
        {"engine.rounds", "count"},
        {"engine.activations", "count"},
        {"engine.fired", "count"},
        {"engine.fired_per_activation", "ratio"},
        {"engine.reads", "count"},
        {"engine.read_bits", "count"},
        {"graph.build_s", "s"},
        {"graph.csr_bytes", "bytes"},
        {"protocol.make_s", "s"},
        {"plan.expand_s", "s"},
        {"batch.wall_s", "s"},
        {"batch.busy_s", "s"},
        {"batch.trials", "count"},
        {"sink.write_s", "s"},
        {"sink.rows", "count"},
        {"sink.bytes", "bytes"},
        {"churn.stabilize_s", "s"},
        {"churn.window_s", "s"},
        {"churn.ns_per_window_step", "ns"},
        {"churn.disruptions", "count"},
        {"churn.topology_events", "count"},
        {"churn.skipped_events", "count"},
        {"churn.recoveries", "count"},
        {"churn.recovering_steps", "count"},
        {"problem.holds_s", "s"},
        {"problem.holds_calls", "count"},
        {"trace.overhead_s", "s"},
    };
    for (const std::string& key : common_protocol_keys()) {
      out.push_back({"engine.step_ns_per_activation." + key, "ns"});
    }
    return out;
  }();
  return metrics;
}

TracedRunResult traced_run(const TracedRunInputs& in, Tracer& tracer,
                           CheckLog& log) {
  TracedRunResult result;
  LayerSample setup = setup_layers(in, tracer);

  std::vector<LayerSample> samples;
  std::vector<double> plain_walls, traced_walls;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(in.seconds));
  CpuRotation rotation;
  while (result.passes < 2 || Clock::now() < deadline) {
    rotation.next();
    // The untraced and traced passes swap order every iteration, so
    // neither always runs right after the batch pass.
    LayerSample sample;
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k + result.passes) % 2 == 1;
      const Clock::time_point start = Clock::now();
      if (traced) {
        sample = EngineLayerPass(in, &tracer, log).run();
        traced_walls.push_back(seconds_between(start, Clock::now()));
      } else {
        EngineLayerPass(in, nullptr, log).run();
        plain_walls.push_back(seconds_between(start, Clock::now()));
      }
    }
    sample.merge(batch_pass(in, tracer, log));
    samples.push_back(std::move(sample));
    ++result.passes;
  }

  for (const auto& [name, first] : samples.front()) {
    std::vector<double> values;
    for (const LayerSample& sample : samples) values.push_back(sample.at(name));
    if (is_time(name)) {
      result.metrics[name] = fastest(values);
      continue;
    }
    for (double value : values) {
      if (value != first) {
        log.error("count " + name + " differs between traced passes");
        break;
      }
    }
    result.metrics[name] = first;
  }
  for (const auto& [name, value] : setup) result.metrics[name] = value;
  result.metrics["protocol.make_s"] = result.metrics["protocol.make_setup_s"] +
                                      result.metrics["protocol.make_in_churn_s"];
  result.metrics["trace.overhead_s"] =
      fastest(traced_walls) - fastest(plain_walls);
  return result;
}

}  // namespace labbench
