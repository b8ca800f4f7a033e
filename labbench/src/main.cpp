/// labbench: the end-to-end benchmark of the experiment lab.
///
///   labbench --workload <sync-cofire|async-sweep|churn-window>
///            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
///
/// Expands the workload's manifest for the seed (timed from process start
/// as the cold set-up), verifies every trial's outputs, then for
/// `--seconds` alternates the lab user's path (run_batch with a JSONL
/// sink) and the library user's path (a serial Engine::run / ChurnRunner
/// loop), each pass checked against the verification pass. With
/// `--trace 1` the time goes to the traced run instead (traced.hpp) and a
/// span file is written to the output directory. The last line of stdout
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/plan.hpp"
#include "analysis/sink.hpp"
#include "checks.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "traced.hpp"
#include "trials.hpp"
#include "workloads.hpp"

namespace {

using namespace labbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

std::uint64_t parse_unsigned(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size() || text.empty() || text[0] == '-') {
    throw std::invalid_argument(flag + " needs a non-negative integer");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_unsigned(flag, value));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_unsigned(flag, value));
      if (args.trace > 1) throw std::invalid_argument("--trace is 0 or 1");
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives exec, so it would report the launching
/// interpreter's peak whenever that is larger.)
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void write_trace_file(const std::string& path, const Args& args,
                      const Tracer& tracer,
                      const std::map<std::string, double>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ",\n\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "\n  " : ",\n  ") << "\"" << name
        << "\": " << number(value);
    first = false;
  }
  out << "\n},\n";
  tracer.write_spans(out);
  out << "}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

int run(const Clock::time_point process_start, int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& workload = find_workload(args.workload);

  // Cold set-up: manifest text to an expanded plan (graphs built,
  // protocols constructed, problems bound), timed from process start.
  const std::string manifest = workload.manifest(args.seed);
  const sss::ExperimentPlan plan = sss::plan_from_manifest_text(manifest);
  const double setup_s = seconds_between(process_start, Clock::now());

  if (plan.items.size() !=
      workload.protocols.size() * static_cast<std::size_t>(workload.graph_count)) {
    throw std::logic_error("plan shape does not match the workload table");
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  const std::string sink_path = stem + ".jsonl";

  const std::vector<TrialRef> trials = enumerate_trials(plan);
  const CheckProblems problems = resolve_check_problems(plan, workload);
  CheckLog log;
  const std::vector<TrialResult> reference =
      verify_plan(workload, plan, trials, problems, log);
  const int failed_per_pass = log.failed_trials;
  long long passes = 1;  // the verification pass

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const Measurement measured = measure_end_to_end(
        workload, plan, trials, reference, sink_path, args.seconds, log);
    passes += 1 + 2 * static_cast<long long>(measured.repetitions);
    const double rss = peak_rss_mib();
    run_oracles(workload, plan, trials, reference, args.seed, log);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"trials_per_s", measured.trials_per_s, "trials/s"},
        {"steps_per_s", measured.steps_per_s, "steps/s"},
        {"peak_rss_mib", rss, "MiB"},
    };
    std::cerr << "labbench: " << args.workload << " seed " << args.seed << ": "
              << trials.size() << " trials, " << measured.repetitions
              << " timed repetitions per path\n";
  } else {
    Tracer tracer;
    TracedRunInputs inputs{workload,  plan,     manifest, trials,
                           reference, problems, sink_path, args.seconds};
    const TracedRunResult traced = traced_run(inputs, tracer, log);
    passes += 3 * static_cast<long long>(traced.passes);
    run_oracles(workload, plan, trials, reference, args.seed, log);
    write_trace_file(stem + ".trace.json", args, tracer, traced.metrics);
    for (const MetricDef& def : per_layer_metrics()) {
      const auto it = traced.metrics.find(def.name);
      if (it == traced.metrics.end()) {
        throw std::logic_error("traced run did not produce " + def.name);
      }
      metrics.push_back({def.name, it->second, def.unit});
    }
  }

  for (const std::string& error : log.errors) {
    std::cerr << "labbench: check failed: " << error << "\n";
  }
  const long long attempted = passes * static_cast<long long>(trials.size());
  print_result(log.correct(), attempted, passes * failed_per_pass, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    return run(process_start, argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "labbench: " << error.what() << "\n";
    return 1;
  }
}
