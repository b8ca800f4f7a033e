#pragma once
/// \file problems.hpp
/// The problems of Section 5 as legitimacy predicates over configurations,
/// plus output extractors and independent validators used by tests.
///
/// A configuration is *legitimate* for a protocol stabilizing to predicate
/// R iff it conforms to R (Section 2.1). These classes evaluate R directly
/// on the shared variables, so they can audit any configuration — including
/// the stitched counterexamples of the impossibility module.
///
/// Cost contract of every `Problem::holds` (here, in
/// verify/tree_predicates.hpp, verify/forest_predicates.hpp and the
/// baselines): one O(n + m) pass over the CSR adjacency with no heap
/// allocation per call, and no mutable state, so one instance may be
/// shared by any number of threads. The engine and the churn runtime call
/// the bound predicate after steps, so this cost is paid per step.
///
/// The extractors and `is_*` validators below are the straightforward
/// statement of each predicate (materialize the output, then check it).
/// They allocate and are not on any hot path; they are the reference the
/// tests compare every `holds` against.

#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/configuration.hpp"
#include "runtime/engine.hpp"

namespace sss {

class Problem {
 public:
  virtual ~Problem() = default;
  virtual const std::string& name() const = 0;
  virtual bool holds(const Graph& g, const Configuration& config) const = 0;

  /// Adapter for RunOptions::legitimacy. The Problem must outlive the
  /// returned callable.
  LegitimacyPredicate predicate() const;
};

/// Vertex coloring predicate: for every process p and neighbor q,
/// C.p != C.q (Section 5.1). `color_var` is the comm index of C.
class ColoringProblem final : public Problem {
 public:
  explicit ColoringProblem(int color_var = 0);
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

 private:
  std::string name_ = "vertex-coloring";
  int color_var_;
};

/// MIS predicate: {q : S.q = Dominator} is a maximal independent set
/// (Section 5.2). `state_var` is the comm index of S.
class MisProblem final : public Problem {
 public:
  explicit MisProblem(int state_var = 0);
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

 private:
  std::string name_ = "maximal-independent-set";
  int state_var_;
};

/// Maximal matching predicate over the output functions of Section 5.3:
/// inMM[q].p ≡ PRmarried(p) ∧ PR.p = q, and the edge set
/// {{p,q} : inMM[q].p ∨ inMM[p].q} must be a maximal matching.
/// Uses MatchingProtocol's variable layout.
class MatchingProblem final : public Problem {
 public:
  MatchingProblem();
  const std::string& name() const override { return name_; }
  bool holds(const Graph& g, const Configuration& config) const override;

 private:
  std::string name_ = "maximal-matching";
};

// --- Output extractors -----------------------------------------------------

/// Colors per process from comm var `color_var`.
std::vector<int> extract_colors(const Graph& g, const Configuration& config,
                                int color_var = 0);

/// Membership bitmap of the S = Dominator set.
std::vector<bool> extract_mis(const Graph& g, const Configuration& config,
                              int state_var = 0);

/// PRmarried(p) for MatchingProtocol's layout (needs cur, see Fig 10).
bool matching_pr_married(const Graph& g, const Configuration& config,
                         ProcessId p);

/// The neighbor q with PR.p = q and PR.q = p in MatchingProtocol's layout
/// (p's mutual PR partner, regardless of cur), or -1 when there is none.
ProcessId matching_pr_partner(const Graph& g, const Configuration& config,
                              ProcessId p);

/// Edges {p,q} with inMM[q].p ∨ inMM[p].q (the paper's matched set), in
/// the order of their smaller endpoint.
std::vector<Edge> extract_matching(const Graph& g,
                                   const Configuration& config);

/// Mutually-pointing PR pairs regardless of cur; in silent configurations
/// this coincides with extract_matching (Lemma 7 forces PR.p = cur.p).
std::vector<Edge> extract_mutual_pr_edges(const Graph& g,
                                          const Configuration& config);

/// True iff every edge has at least one endpoint p with covered(p): the
/// maximality half of a matching check, for matched sets that never share
/// an endpoint by construction. Calls `covered` O(n + m) times.
template <typename Covered>
bool every_edge_covered(const Graph& g, Covered&& covered) {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (covered(p)) continue;
    for (const ProcessId q : g.neighbors(p)) {
      if (!covered(q)) return false;
    }
  }
  return true;
}

// --- Independent validators (used by tests and checkers) -------------------

bool is_independent_set(const Graph& g, const std::vector<bool>& in_set);
bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set);
bool is_matching(const Graph& g, const std::vector<Edge>& edges);
bool is_maximal_matching(const Graph& g, const std::vector<Edge>& edges);

}  // namespace sss
