#include "verify/tree_predicates.hpp"

#include "core/bfs_tree_protocol.hpp"
#include "core/leader_election_protocol.hpp"
#include "graph/properties.hpp"
#include "support/require.hpp"

namespace sss {

BfsTreeProblem::BfsTreeProblem() = default;

bool BfsTreeProblem::holds(const Graph& g, const Configuration& config) const {
  const ProcessId root = extract_bfs_root(g, config);
  if (root < 0) return false;
  return bfs_claims_certified(g, config, BfsTreeProtocol::kDistVar,
                              BfsTreeProtocol::kParentVar,
                              [root](ProcessId p) { return p == root; });
}

LeaderElectionProblem::LeaderElectionProblem() = default;

bool LeaderElectionProblem::holds(const Graph& g,
                                  const Configuration& config) const {
  const Value agreed = extract_agreed_leader(g, config);
  if (agreed < 0) return false;
  // The agreed leader must be the *minimum* identifier and its owner must
  // exist in the network (a fake agreed-on id is not an election).
  ProcessId owner = -1;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value id = config.comm(p, LeaderElectionProtocol::kIdVar);
    if (id < agreed) return false;
    if (id == agreed) owner = p;
  }
  if (owner < 0) return false;
  return bfs_claims_certified(g, config, LeaderElectionProtocol::kDistVar,
                              LeaderElectionProtocol::kParentVar,
                              [owner](ProcessId p) { return p == owner; });
}

ProcessId extract_bfs_root(const Graph& g, const Configuration& config) {
  ProcessId root = -1;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (config.comm(p, BfsTreeProtocol::kRootVar) != 1) continue;
    if (root >= 0) return -1;  // two flagged roots
    root = p;
  }
  return root;
}

std::vector<Edge> extract_parent_edges(const Graph& g,
                                       const Configuration& config,
                                       int parent_var) {
  std::vector<Edge> edges;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value pr = config.comm(p, parent_var);
    if (pr < 1 || pr > g.degree(p)) continue;
    edges.emplace_back(p, g.neighbor(p, static_cast<NbrIndex>(pr)));
  }
  return edges;
}

Value extract_agreed_leader(const Graph& g, const Configuration& config) {
  const Value claimed = config.comm(0, LeaderElectionProtocol::kLeaderVar);
  for (ProcessId p = 1; p < g.num_vertices(); ++p) {
    if (config.comm(p, LeaderElectionProtocol::kLeaderVar) != claimed) {
      return -1;
    }
  }
  return claimed;
}

bool is_bfs_tree(const Graph& g, ProcessId root,
                 const std::vector<Value>& dist,
                 const std::vector<Value>& parent) {
  SSS_REQUIRE(root >= 0 && root < g.num_vertices(),
              "is_bfs_tree needs a root inside the graph");
  SSS_REQUIRE(static_cast<int>(dist.size()) == g.num_vertices() &&
                  static_cast<int>(parent.size()) == g.num_vertices(),
              "is_bfs_tree needs one distance and one parent per process");
  const std::vector<int> truth = bfs_distances(g, root);
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (dist[i] != static_cast<Value>(truth[i])) return false;
    if (p == root) {
      if (parent[i] != 0) return false;
      continue;
    }
    if (parent[i] < 1 || parent[i] > g.degree(p)) return false;
    const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(parent[i]));
    if (truth[static_cast<std::size_t>(q)] != truth[i] - 1) return false;
  }
  return true;
}

}  // namespace sss
