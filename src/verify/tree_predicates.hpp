#pragma once
/// \file tree_predicates.hpp
/// Legitimacy predicates for the tree-shaped problems of the protocol
/// registry: BFS spanning-tree construction and leader election. Both
/// audit configurations through the shared communication layout of the
/// cur-pointer protocols and their full-read baselines (distance, parent
/// channel, and the root-flag / identifier constants), so one predicate
/// serves the efficient protocol and its comparator alike — including
/// hand-built configurations in tests and the stitched counterexamples of
/// the impossibility module.
///
/// Cost contract (as in core/problems.hpp): each `holds` is O(n + m) over
/// the CSR adjacency, allocates nothing per call and keeps no mutable
/// state, so one instance may be shared across threads. It checks the
/// claimed distances with a local certificate (`bfs_claims_certified`)
/// instead of running a BFS. The extractors and `is_bfs_tree` below
/// compute the true distances and compare; they are the reference the
/// tests hold the predicates to.

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/problems.hpp"
#include "graph/graph.hpp"
#include "runtime/configuration.hpp"

namespace sss {

/// BFS spanning tree w.r.t. the root flagged in the configuration:
/// exactly one process carries R = 1; the root claims distance 0 and no
/// parent; every other process claims its exact BFS distance from the
/// root and a parent channel pointing at a distance-(D.p - 1) neighbor.
/// Variable layout: BfsTreeProtocol::{kDistVar, kParentVar, kRootVar}.
class BfsTreeProblem final : public Problem {
 public:
  BfsTreeProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

 private:
  std::string name_ = "bfs-spanning-tree";
};

/// Unique leader + tree agreement: every process claims the minimum
/// identifier as leader; the owner of that identifier is in the self
/// state (D = 0, PR = 0); every other process has a parent channel whose
/// neighbor claims depth D.p - 1 and its depth is its exact BFS distance
/// from the owner — so the parent pointers form a BFS spanning tree
/// rooted at the elected process. Variable layout:
/// LeaderElectionProtocol::{kLeaderVar, kDistVar, kParentVar, kIdVar}.
class LeaderElectionProblem final : public Problem {
 public:
  LeaderElectionProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

 private:
  std::string name_ = "leader-election";
};

/// Single-pass check that the claims {D, PR} at comm indices `dist_var` /
/// `parent_var` encode the BFS forest of the processes `is_root` marks:
/// every root claims D = 0 and PR = 0; every other process has a parent
/// channel in range whose neighbor claims D.p - 1; and no edge joins two
/// claims more than one apart. Parent chains then descend one level per
/// hop to a root, so D.p is at least p's distance to the nearest root, and
/// the edge condition bounds it from above — the check accepts exactly
/// what `is_bfs_forest` (with one root, `is_bfs_tree`) accepts. It fails
/// when no process is a root. O(n + m), allocation-free.
template <typename IsRoot>
bool bfs_claims_certified(const Graph& g, const Configuration& config,
                          int dist_var, int parent_var, IsRoot&& is_root) {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const std::span<const ProcessId> nbrs = g.neighbors(p);
    // 64-bit, so arbitrary hand-built claims cannot overflow below.
    const std::int64_t dist = config.comm(p, dist_var);
    const Value parent = config.comm(p, parent_var);
    if (is_root(p)) {
      if (dist != 0 || parent != 0) return false;
    } else {
      if (parent < 1 || parent > static_cast<Value>(nbrs.size())) {
        return false;
      }
      const ProcessId up = nbrs[static_cast<std::size_t>(parent) - 1];
      if (config.comm(up, dist_var) != dist - 1) return false;
    }
    for (const ProcessId q : nbrs) {
      if (q > p && std::abs(config.comm(q, dist_var) - dist) > 1) {
        return false;
      }
    }
  }
  return true;
}

// --- Output extractors and independent validators (tests, checkers) --------

/// The unique process with R = 1, or -1 when the flag count is not one.
ProcessId extract_bfs_root(const Graph& g, const Configuration& config);

/// The (child, parent) edges named by the parent channels; processes with
/// PR = 0 contribute nothing. `parent_var` is the comm index of PR.
std::vector<Edge> extract_parent_edges(const Graph& g,
                                       const Configuration& config,
                                       int parent_var);

/// The leader id every process agrees on, or -1 on disagreement.
Value extract_agreed_leader(const Graph& g, const Configuration& config);

/// True iff `dist`/`parent` (claimed per-process distance and parent
/// channel) encode the BFS tree rooted at `root`: dist equals the true
/// BFS distance everywhere and every non-root parent channel points one
/// level down. The reference the predicate classes are tested against.
bool is_bfs_tree(const Graph& g, ProcessId root,
                 const std::vector<Value>& dist,
                 const std::vector<Value>& parent);

}  // namespace sss
