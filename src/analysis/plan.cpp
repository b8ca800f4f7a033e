#include "analysis/plan.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "graph/family_registry.hpp"
#include "runtime/daemon.hpp"
#include "support/params.hpp"
#include "support/require.hpp"

namespace sss {

namespace {

/// The run-shaping keys accepted in "defaults" and per sweep.
const std::vector<std::string> kRunKeys = {
    "daemons",    "seeds_per_daemon",    "base_seed",
    "max_steps",  "stop_on_silence",     "quiescence_patience",
    "extra_steps", "exclude_frozen",     "churn",
    "parallel_threads", "sweep_mode"};

void require_known_keys(const JsonValue& object,
                        const std::vector<std::string>& allowed,
                        const std::string& owner) {
  for (const auto& [key, value] : object.members()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw PreconditionError("unknown key \"" + key + "\" in " + owner +
                              " (accepted: " + join(allowed, ", ") + ")");
    }
  }
}

/// Sweep-shaping knobs resolved from manifest defaults + sweep overrides.
struct RunDefaults {
  std::vector<std::string> daemons = default_sweep_daemons();
  int seeds_per_daemon = kDefaultSeedsPerDaemon;
  std::uint64_t base_seed = kDefaultBaseSeed;
  RunOptions run;
  int extra_steps = 0;
  bool exclude_frozen = false;
  int parallel_threads = 1;
  SweepMode sweep_mode = SweepMode::kAuto;
  bool churn_enabled = false;
  ChurnOptions churn;
};

/// Parses a "churn" block (see plan.hpp for the schema). Strict like the
/// rest of the manifest: unknown keys throw.
ChurnOptions parse_churn(const JsonValue& object) {
  require_known_keys(
      object,
      {"event_probability", "period", "window_steps", "seed", "max_victims",
       "corruption_weight", "node_reset_weight", "topology_weight",
       "stabilize_steps", "recovery_patience"},
      "\"churn\"");
  ChurnOptions churn;
  churn.corruption_weight = 1;
  if (const JsonValue* p = object.find("event_probability")) {
    churn.event_probability = p->as_double();
    SSS_REQUIRE(churn.event_probability > 0.0 && churn.event_probability <= 1.0,
                "\"event_probability\" must be in (0, 1]");
  }
  if (const JsonValue* period = object.find("period")) {
    SSS_REQUIRE(period->as_int() >= 1, "\"period\" must be >= 1");
    churn.period = static_cast<std::uint64_t>(period->as_int());
  }
  SSS_REQUIRE((churn.event_probability > 0.0) != (churn.period > 0),
              "\"churn\" needs exactly one of \"event_probability\" and "
              "\"period\"");
  if (const JsonValue* window = object.find("window_steps")) {
    SSS_REQUIRE(window->as_int() >= 1, "\"window_steps\" must be >= 1");
    churn.window_steps = static_cast<std::uint64_t>(window->as_int());
  }
  if (const JsonValue* seed = object.find("seed")) {
    SSS_REQUIRE(seed->as_int() >= 0, "churn \"seed\" cannot be negative");
    churn.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const JsonValue* victims = object.find("max_victims")) {
    SSS_REQUIRE(victims->as_int() >= 1, "\"max_victims\" must be >= 1");
    churn.max_victims = static_cast<int>(victims->as_int());
  }
  const auto weight = [&](const char* key, int fallback) {
    const JsonValue* value = object.find(key);
    if (value == nullptr) return fallback;
    SSS_REQUIRE(value->as_int() >= 0,
                std::string("\"") + key + "\" cannot be negative");
    return static_cast<int>(value->as_int());
  };
  churn.corruption_weight = weight("corruption_weight", 1);
  churn.node_reset_weight = weight("node_reset_weight", 0);
  churn.topology_weight = weight("topology_weight", 0);
  SSS_REQUIRE(churn.corruption_weight + churn.node_reset_weight +
                      churn.topology_weight >
                  0,
              "\"churn\" needs at least one positive event weight");
  if (const JsonValue* stabilize = object.find("stabilize_steps")) {
    SSS_REQUIRE(stabilize->as_int() >= 1, "\"stabilize_steps\" must be >= 1");
    churn.stabilize_steps = static_cast<std::uint64_t>(stabilize->as_int());
  }
  if (const JsonValue* patience = object.find("recovery_patience")) {
    SSS_REQUIRE(patience->as_int() >= 0,
                "\"recovery_patience\" cannot be negative");
    churn.recovery_patience = static_cast<std::uint64_t>(patience->as_int());
  }
  return churn;
}

std::vector<std::string> parse_daemons(const JsonValue& value) {
  std::vector<std::string> daemons;
  for (const JsonValue& entry : value.items()) {
    const std::string& name = entry.as_string();
    const std::vector<std::string>& known = daemon_names();
    SSS_REQUIRE(std::find(known.begin(), known.end(), name) != known.end(),
                "unknown daemon \"" + name + "\" (known: " +
                    join(known, ", ") + ")");
    daemons.push_back(name);
  }
  SSS_REQUIRE(!daemons.empty(), "\"daemons\" cannot be empty");
  return daemons;
}

/// Applies the run keys present in `object` on top of `base`.
RunDefaults apply_run_keys(RunDefaults base, const JsonValue& object) {
  if (const JsonValue* daemons = object.find("daemons")) {
    base.daemons = parse_daemons(*daemons);
  }
  if (const JsonValue* seeds = object.find("seeds_per_daemon")) {
    // Validate on the int64 BEFORE narrowing — an out-of-int-range value
    // must error, not wrap.
    const std::int64_t count = seeds->as_int();
    SSS_REQUIRE(count >= 1 && count <= std::numeric_limits<int>::max(),
                "\"seeds_per_daemon\" must be >= 1 (and fit an int)");
    base.seeds_per_daemon = static_cast<int>(count);
  }
  if (const JsonValue* seed = object.find("base_seed")) {
    SSS_REQUIRE(seed->as_int() >= 0, "\"base_seed\" cannot be negative");
    base.base_seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const JsonValue* steps = object.find("max_steps")) {
    base.run.max_steps = static_cast<std::uint64_t>(steps->as_int());
    SSS_REQUIRE(steps->as_int() >= 1, "\"max_steps\" must be >= 1");
  }
  if (const JsonValue* stop = object.find("stop_on_silence")) {
    base.run.stop_on_silence = stop->as_bool();
  }
  if (const JsonValue* patience = object.find("quiescence_patience")) {
    SSS_REQUIRE(patience->as_int() >= 0,
                "\"quiescence_patience\" cannot be negative");
    base.run.quiescence_patience =
        static_cast<std::uint64_t>(patience->as_int());
  }
  if (const JsonValue* extra = object.find("extra_steps")) {
    const std::int64_t steps = extra->as_int();
    SSS_REQUIRE(steps >= 0 && steps <= std::numeric_limits<int>::max(),
                "\"extra_steps\" must be >= 0 (and fit an int)");
    base.extra_steps = static_cast<int>(steps);
  }
  if (const JsonValue* frozen = object.find("exclude_frozen")) {
    base.exclude_frozen = frozen->as_bool();
  }
  if (const JsonValue* threads = object.find("parallel_threads")) {
    const std::int64_t count = threads->as_int();
    SSS_REQUIRE(count >= 1 && count <= 1024,
                "\"parallel_threads\" must be in [1, 1024]");
    base.parallel_threads = static_cast<int>(count);
  }
  if (const JsonValue* mode = object.find("sweep_mode")) {
    base.sweep_mode = parse_sweep_mode(mode->as_string());
  }
  if (const JsonValue* churn = object.find("churn")) {
    // A churn block replaces any inherited one wholesale (null disables):
    // merging schedules field-by-field would make "defaults says Bernoulli,
    // sweep says periodic" silently ambiguous.
    if (churn->is_null()) {
      base.churn_enabled = false;
    } else {
      base.churn_enabled = true;
      base.churn = parse_churn(*churn);
    }
  }
  return base;
}

ParamValue scalar_param(const std::string& key, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNumber:
      return ParamValue(value.as_double());
    case JsonValue::Kind::kString:
      return ParamValue(value.as_string());
    case JsonValue::Kind::kBool:
      return ParamValue(value.as_bool() ? 1 : 0);
    default:
      throw PreconditionError("parameter \"" + key +
                              "\" must be a number, string, or boolean");
  }
}

/// Expands a {"from": a, "to": b, "step": s} range object (step optional,
/// default 1) into the inclusive integer progression a, a+s, ..., <= b.
/// Schema errors name the offending value's line:col in the manifest.
std::vector<ParamValue> expand_param_range(const std::string& key,
                                           const JsonValue& range) {
  const std::string context =
      "range parameter \"" + key + "\" at " + range.where();
  for (const auto& [name, unused] : range.members()) {
    SSS_REQUIRE(name == "from" || name == "to" || name == "step",
                "unknown key \"" + name + "\" in " + context +
                    " (accepted: from, to, step)");
  }
  SSS_REQUIRE(range.find("from") != nullptr && range.find("to") != nullptr,
              context + " needs \"from\" and \"to\"");
  // Type errors carry the field's own position, like the schema errors.
  const auto range_int = [&](const char* name) {
    const JsonValue& value = range.at(name);
    SSS_REQUIRE(value.is_number(),
                context + ": \"" + name + "\" must be an integer (at " +
                    value.where() + "), got " +
                    JsonValue::kind_name(value.kind()));
    try {
      return value.as_int();
    } catch (const PreconditionError&) {
      throw PreconditionError(context + ": \"" + name +
                              "\" must be an integer (at " + value.where() +
                              ")");
    }
  };
  const std::int64_t from = range_int("from");
  const std::int64_t to = range_int("to");
  const std::int64_t step = range.find("step") != nullptr ? range_int("step") : 1;
  SSS_REQUIRE(step >= 1, context + ": \"step\" must be >= 1");
  SSS_REQUIRE(from <= to, context + ": \"from\" must be <= \"to\"");
  const std::int64_t count = (to - from) / step + 1;
  SSS_REQUIRE(count <= 100'000,
              context + " expands to " + std::to_string(count) +
                  " values (max 100000)");
  std::vector<ParamValue> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::int64_t v = from; v <= to; v += step) {
    values.emplace_back(static_cast<double>(v));
  }
  return values;
}

/// Expands one graph spec into parameter maps: the cartesian product of
/// its list- and range-valued parameters, in member order with the last
/// sweep varying fastest (odometer order).
std::vector<ParamMap> expand_graph_params(const JsonValue& spec) {
  std::vector<ParamMap> combos = {ParamMap{}};
  for (const auto& [key, value] : spec.members()) {
    if (key == "family") continue;
    std::vector<ParamValue> sweep;
    if (value.is_array()) {
      SSS_REQUIRE(!value.items().empty(),
                  "parameter sweep \"" + key + "\" cannot be empty");
      sweep.reserve(value.size());
      for (const JsonValue& element : value.items()) {
        sweep.push_back(scalar_param(key, element));
      }
    } else if (value.is_object()) {
      sweep = expand_param_range(key, value);
    } else {
      sweep.push_back(scalar_param(key, value));
    }
    std::vector<ParamMap> next;
    next.reserve(combos.size() * sweep.size());
    for (const ParamMap& combo : combos) {
      for (const ParamValue& element : sweep) {
        ParamMap extended = combo;
        extended[key] = element;
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }
  return combos;
}

/// Parses one protocol spec object into a (possibly nested) selection.
/// A base spec is {"name": ..., <scalar params>}; a composed spec is
/// {"transform": ..., "inner": {<protocol spec>}, <scalar params>} with
/// the inner object parsed recursively, so transformers nest. Shape
/// errors name the offending object's line:col in the manifest; name/
/// parameter/composition errors are the registry's (attached to the
/// spec's position by the caller).
ProtocolSelection parse_protocol_selection(const JsonValue& spec) {
  const std::string context = "protocol spec at " + spec.where();
  SSS_REQUIRE(spec.is_object(), context + " must be an object, got " +
                                    JsonValue::kind_name(spec.kind()));
  const JsonValue* name = spec.find("name");
  const JsonValue* transform = spec.find("transform");
  SSS_REQUIRE(name == nullptr || transform == nullptr,
              context + " accepts \"name\" or \"transform\", not both");
  SSS_REQUIRE(name != nullptr || transform != nullptr,
              context + " needs \"name\" (base protocol) or \"transform\" + "
                        "\"inner\" (composition)");
  ParamMap params;
  for (const auto& [key, value] : spec.members()) {
    if (key == "name" || key == "transform" || key == "inner") continue;
    SSS_REQUIRE(!value.is_array() && !value.is_object(),
                "protocol parameter \"" + key + "\" at " + value.where() +
                    " must be a scalar");
    params[key] = scalar_param(key, value);
  }
  if (name != nullptr) {
    const JsonValue* inner = spec.find("inner");
    // The message is only built when the check fails, so inner is
    // non-null there.
    SSS_REQUIRE(inner == nullptr,
                context + ": \"inner\" (at " + inner->where() +
                    ") is only valid alongside \"transform\"");
    return ProtocolSelection::base(name->as_string(), std::move(params));
  }
  const JsonValue* inner = spec.find("inner");
  SSS_REQUIRE(inner != nullptr,
              context + ": \"transform\" needs an \"inner\" protocol spec");
  SSS_REQUIRE(inner->is_object(),
              "\"inner\" at " + inner->where() +
                  " must be a protocol spec object, got " +
                  JsonValue::kind_name(inner->kind()));
  return ProtocolSelection::wrap(transform->as_string(),
                                 parse_protocol_selection(*inner),
                                 std::move(params));
}

void expand_sweep(const JsonValue& sweep, const RunDefaults& manifest_defaults,
                  ExperimentPlan& plan) {
  std::vector<std::string> allowed = kRunKeys;
  allowed.insert(allowed.end(),
                 {"graphs", "protocols", "problem", "base_seeds"});
  require_known_keys(sweep, allowed, "sweep");
  SSS_REQUIRE(!(sweep.find("base_seed") != nullptr &&
                sweep.find("base_seeds") != nullptr),
              "a sweep accepts \"base_seed\" or \"base_seeds\", not both");

  const RunDefaults defaults = apply_run_keys(manifest_defaults, sweep);

  const Problem* problem = nullptr;
  if (const JsonValue* problem_name = sweep.find("problem")) {
    if (!problem_name->is_null()) {
      problem = &plan.store.add(
          ProblemRegistry::instance().make(problem_name->as_string()));
    }
  }
  // Churn availability is "fraction of window steps in a legitimate
  // configuration", which needs a predicate; a churn sweep without an
  // explicit "problem" binds each composition's resolved problem instead
  // (one sweep may mix protocols of different problems).
  std::map<std::string, const Problem*> default_problems;
  auto problem_for = [&](const std::string& name) -> const Problem* {
    if (problem != nullptr || !defaults.churn_enabled) return problem;
    if (name.empty()) return nullptr;
    auto [it, fresh] = default_problems.try_emplace(name, nullptr);
    if (fresh) {
      it->second = &plan.store.add(ProblemRegistry::instance().make(name));
    }
    return it->second;
  };

  const JsonValue& graphs = sweep.at("graphs");
  SSS_REQUIRE(!graphs.items().empty(), "\"graphs\" cannot be empty");
  const JsonValue& protocols = sweep.at("protocols");
  SSS_REQUIRE(!protocols.items().empty(), "\"protocols\" cannot be empty");

  // Parse + resolve every protocol spec once, up front: composition
  // errors (unknown transform, bare checker source, daemon-claim
  // conflicts) surface with the spec's manifest position even when the
  // graph sweep would never have reached that spec.
  struct ParsedProtocol {
    ProtocolSelection selection;
    ProtocolRegistry::ComposedInfo info;
  };
  std::vector<ParsedProtocol> parsed;
  parsed.reserve(protocols.items().size());
  for (const JsonValue& protocol_spec : protocols.items()) {
    ProtocolSelection selection = parse_protocol_selection(protocol_spec);
    try {
      ProtocolRegistry::ComposedInfo info =
          ProtocolRegistry::instance().resolve(selection);
      parsed.push_back({std::move(selection), std::move(info)});
    } catch (const PreconditionError& error) {
      throw PreconditionError("protocol spec at " + protocol_spec.where() +
                              ": " + error.what());
    }
  }

  std::vector<BatchItem> sweep_items;
  for (const JsonValue& graph_spec : graphs.items()) {
    const std::string& family = graph_spec.at("family").as_string();
    for (const ParamMap& params : expand_graph_params(graph_spec)) {
      const Graph& graph = plan.store.add(
          GraphFamilyRegistry::instance().build(family, params));
      for (const ParsedProtocol& choice : parsed) {
        const Protocol& protocol = plan.store.add(
            ProtocolRegistry::instance().make(choice.selection, graph));
        BatchItem item;
        item.label = protocol.name() + "/" + graph.name();
        item.graph = &graph;
        item.protocol = &protocol;
        item.problem = problem_for(choice.info.problem);
        item.daemons = defaults.daemons;
        item.seeds_per_daemon = defaults.seeds_per_daemon;
        item.run = defaults.run;
        item.base_seed = defaults.base_seed;
        item.extra_steps = defaults.extra_steps;
        item.exclude_frozen = defaults.exclude_frozen;
        item.parallel_threads = defaults.parallel_threads;
        item.sweep_mode = defaults.sweep_mode;
        if (defaults.churn_enabled) {
          item.churn_enabled = true;
          item.churn = defaults.churn;
          item.churn.quiescence_patience = defaults.run.quiescence_patience;
          // Registry-backed factory so churn windows can rebuild the
          // protocol on churned topologies (and so every churn trial runs
          // the owning-mode runner uniformly). Captures the whole
          // composed selection, so transformed protocols rebuild too.
          item.protocol_factory = [selection =
                                       choice.selection](const Graph& g) {
            return ProtocolRegistry::instance().make(selection, g);
          };
        }
        sweep_items.push_back(std::move(item));
      }
    }
  }

  if (const JsonValue* base_seeds = sweep.find("base_seeds")) {
    SSS_REQUIRE(base_seeds->items().size() == sweep_items.size(),
                "\"base_seeds\" has " +
                    std::to_string(base_seeds->items().size()) +
                    " entries but the sweep expands to " +
                    std::to_string(sweep_items.size()) + " items");
    for (std::size_t i = 0; i < sweep_items.size(); ++i) {
      const std::int64_t seed = base_seeds->items()[i].as_int();
      SSS_REQUIRE(seed >= 0, "\"base_seeds\" entries cannot be negative");
      sweep_items[i].base_seed = static_cast<std::uint64_t>(seed);
    }
  }

  for (BatchItem& item : sweep_items) {
    plan.items.push_back(std::move(item));
  }
}

}  // namespace

int ExperimentPlan::total_trials() const {
  int total = 0;
  for (const BatchItem& item : items) {
    total += static_cast<int>(item.daemons.size()) * item.seeds_per_daemon;
  }
  return total;
}

ExperimentPlan plan_from_manifest(const JsonValue& manifest) {
  require_known_keys(manifest, {"name", "defaults", "sweeps"}, "manifest");
  ExperimentPlan plan;
  plan.name = manifest.at("name").as_string();
  SSS_REQUIRE(!plan.name.empty(), "manifest \"name\" cannot be empty");

  RunDefaults defaults;
  if (const JsonValue* defaults_object = manifest.find("defaults")) {
    require_known_keys(*defaults_object, kRunKeys, "\"defaults\"");
    defaults = apply_run_keys(defaults, *defaults_object);
  }

  const JsonValue& sweeps = manifest.at("sweeps");
  SSS_REQUIRE(!sweeps.items().empty(),
              "manifest needs at least one entry in \"sweeps\"");
  for (const JsonValue& sweep : sweeps.items()) {
    expand_sweep(sweep, defaults, plan);
  }
  return plan;
}

ExperimentPlan plan_from_manifest_text(const std::string& text) {
  return plan_from_manifest(JsonValue::parse(text));
}

ExperimentPlan plan_from_manifest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SSS_REQUIRE(in.good(), "cannot read manifest file \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return plan_from_manifest_text(buffer.str());
}

}  // namespace sss
