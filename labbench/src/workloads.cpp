#include "workloads.hpp"

#include <stdexcept>

#include "support/rng.hpp"

namespace labbench {

namespace {

using sss::ProtocolSelection;

/// The i-th value derived from the benchmark seed, small enough for any
/// manifest integer field.
std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed * 0x100000001b3ULL + i;
  return sss::splitmix64(state) % 1'000'000'007ULL;
}

std::string str(std::uint64_t value) { return std::to_string(value); }

ProtocolCase base(const std::string& name, ReadClaim claim) {
  return {name, "{\"name\": \"" + name + "\"}", ProtocolSelection::base(name),
          claim};
}

/// generic-efficiency over a full-read base: the composed spec of every
/// workload (the transformer reads one neighbor once stable, whatever
/// the base reads).
ProtocolCase generic_full_read_mis() {
  return {"generic-efficiency",
          "{\"transform\": \"generic-efficiency\", "
          "\"inner\": {\"name\": \"full-read-mis\"}}",
          ProtocolSelection::wrap("generic-efficiency",
                                  ProtocolSelection::base("full-read-mis")),
          ReadClaim::kOneWhenStable};
}

// The graphs are fixed; the seed draws the initial configurations, the
// daemons' choices and the churn streams. Seeded graph families moved a
// plan's cost by 10% or more between seeds (a preferential-attachment
// hub's degree, a random tree's depth, which sets how long the BFS family
// takes), which would drown the differences between commits.

// --- sync-cofire: co-firing steps on production-shaped graphs -------------

std::string sync_defaults(std::uint64_t seed) {
  return "{\"daemons\": [\"synchronous\"], \"seeds_per_daemon\": 2, "
         "\"base_seed\": " +
         str(derive(seed, 1)) +
         ", \"max_steps\": 200000, \"quiescence_patience\": 8, "
         "\"parallel_threads\": 1}";
}

const char* const kSyncGraphs =
    "[{\"family\": \"preferential-attachment\", \"n\": 5000, \"m\": 3, "
    "\"seed\": 2009}, {\"family\": \"random-geometric\", \"n\": 5000, "
    "\"radius\": 0.027, \"seed\": 2009}, {\"family\": \"grid-of-clusters\", "
    "\"rows\": 25, \"cols\": 25, \"cluster\": 8}]";

// --- async-sweep: many short trials under single-process daemons --------

std::string async_defaults(std::uint64_t seed) {
  return "{\"daemons\": [\"central-rr\", \"central-random\", "
         "\"distributed\"], \"seeds_per_daemon\": 2, \"base_seed\": " +
         str(derive(seed, 1)) + ", \"max_steps\": 400000}";
}

const char* const kAsyncGraphs =
    "[{\"family\": \"grid\", \"rows\": 12, \"cols\": 12}, "
    "{\"family\": \"erdos-renyi\", \"n\": 200, \"p\": 0.02, "
    "\"seed\": 2009}, {\"family\": \"random-tree\", \"n\": 250, "
    "\"seed\": 2009}, {\"family\": \"preferential-attachment\", "
    "\"n\": 300, \"m\": 2, \"seed\": 2009}]";

// --- churn-window: disruption streams with local repair -----------------

std::string churn_defaults(std::uint64_t seed) {
  return "{\"daemons\": [\"central-rr\", \"distributed\"], "
         "\"seeds_per_daemon\": 2, \"base_seed\": " +
         str(derive(seed, 1)) +
         ", \"max_steps\": 400000, \"churn\": {\"period\": 160, "
         "\"window_steps\": 800, \"seed\": " +
         str(derive(seed, 2)) +
         ", \"max_victims\": 2, \"corruption_weight\": 2, "
         "\"node_reset_weight\": 1, \"topology_weight\": 1, "
         "\"recovery_patience\": 16}}";
}

const char* const kChurnGraphs =
    "[{\"family\": \"grid\", \"rows\": 8, \"cols\": 16}, "
    "{\"family\": \"hypercube\", \"dim\": 7}, "
    "{\"family\": \"preferential-attachment\", \"n\": 128, \"m\": 2, "
    "\"seed\": 2009}]";

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  Workload sync;
  sync.name = "sync-cofire";
  sync.protocols = {base("mis", ReadClaim::kOne),
                    base("matching", ReadClaim::kOne),
                    base("coloring", ReadClaim::kOne),
                    base("full-read-mis", ReadClaim::kDegree),
                    generic_full_read_mis()};
  sync.defaults = sync_defaults;
  sync.graphs = kSyncGraphs;
  sync.graph_count = 3;
  sync.rounds_per_second = 0.45;
  out.push_back(sync);

  Workload async;
  async.name = "async-sweep";
  async.protocols = {base("bfs-tree", ReadClaim::kTwo),
                     base("coloring", ReadClaim::kOne),
                     base("full-read-bfs-tree", ReadClaim::kDegree),
                     base("full-read-coloring", ReadClaim::kDegree),
                     base("full-read-leader-election", ReadClaim::kDegree),
                     base("full-read-matching", ReadClaim::kDegree),
                     base("full-read-mis", ReadClaim::kDegree),
                     base("full-read-spanning-forest", ReadClaim::kDegree),
                     base("leader-election", ReadClaim::kTwo),
                     base("matching", ReadClaim::kOne),
                     base("mis", ReadClaim::kOne),
                     base("spanning-forest", ReadClaim::kTwo),
                     generic_full_read_mis()};
  async.defaults = async_defaults;
  async.graphs = kAsyncGraphs;
  async.graph_count = 4;
  async.rounds_per_second = 0.9;
  out.push_back(async);

  Workload churn;
  churn.name = "churn-window";
  churn.protocols = {base("coloring", ReadClaim::kOne),
                     base("mis", ReadClaim::kOne),
                     base("matching", ReadClaim::kOne),
                     base("bfs-tree", ReadClaim::kTwo),
                     base("full-read-mis", ReadClaim::kDegree),
                     base("full-read-bfs-tree", ReadClaim::kDegree),
                     generic_full_read_mis()};
  churn.churn = true;
  churn.defaults = churn_defaults;
  churn.graphs = kChurnGraphs;
  churn.graph_count = 3;
  churn.rounds_per_second = 0.8;
  out.push_back(churn);
  return out;
}

}  // namespace

std::string Workload::manifest(std::uint64_t seed) const {
  const std::string graph_list = graphs;
  std::string text = "{\"name\": \"" + name +
                     "\", \"defaults\": " + defaults(seed) +
                     ", \"sweeps\": [";
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    if (i > 0) text += ", ";
    text += "{\"graphs\": " + graph_list + ", \"protocols\": [" +
            protocols[i].json + "]";
    text += "}";
  }
  return text + "]}";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : all_workloads()) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

const std::vector<std::string>& common_protocol_keys() {
  static const std::vector<std::string> keys = {
      "mis", "matching", "coloring", "full-read-mis", "generic-efficiency"};
  return keys;
}

}  // namespace labbench
