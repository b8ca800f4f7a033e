#include "core/problems.hpp"

#include <algorithm>

#include "core/matching_protocol.hpp"
#include "core/mis_protocol.hpp"
#include "support/require.hpp"

namespace sss {

LegitimacyPredicate Problem::predicate() const {
  return [this](const Graph& g, const Configuration& config) {
    return holds(g, config);
  };
}

ColoringProblem::ColoringProblem(int color_var) : color_var_(color_var) {}

bool ColoringProblem::holds(const Graph& g, const Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value mine = config.comm(p, color_var_);
    for (const ProcessId q : g.neighbors(p)) {
      if (q > p && config.comm(q, color_var_) == mine) return false;
    }
  }
  return true;
}

MisProblem::MisProblem(int state_var) : state_var_(state_var) {}

bool MisProblem::holds(const Graph& g, const Configuration& config) const {
  // Per process at once: a Dominator has no Dominator neighbor
  // (independence) and every other process has one (maximality).
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    bool dominated = false;
    for (const ProcessId q : g.neighbors(p)) {
      if (config.comm(q, state_var_) == MisProtocol::kDominator) {
        dominated = true;
        break;
      }
    }
    if (dominated == (config.comm(p, state_var_) == MisProtocol::kDominator)) {
      return false;
    }
  }
  return true;
}

MatchingProblem::MatchingProblem() = default;

bool MatchingProblem::holds(const Graph& g, const Configuration& config) const {
  // A matched edge is a mutual PR pair married from at least one side
  // (PRmarried(p) means exactly that, seen from p). No process can be in
  // two such pairs, so the matched set is always a matching and only
  // maximality remains to check.
  return every_edge_covered(g, [&](ProcessId p) {
    const ProcessId q = matching_pr_partner(g, config, p);
    return q >= 0 &&
           (config.comm(p, MatchingProtocol::kPrVar) ==
                config.internal_var(p, MatchingProtocol::kCurVar) ||
            config.comm(q, MatchingProtocol::kPrVar) ==
                config.internal_var(q, MatchingProtocol::kCurVar));
  });
}

std::vector<int> extract_colors(const Graph& g, const Configuration& config,
                                int color_var) {
  std::vector<int> colors(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    colors[static_cast<std::size_t>(p)] = config.comm(p, color_var);
  }
  return colors;
}

std::vector<bool> extract_mis(const Graph& g, const Configuration& config,
                              int state_var) {
  std::vector<bool> in_set(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    in_set[static_cast<std::size_t>(p)] =
        config.comm(p, state_var) == MisProtocol::kDominator;
  }
  return in_set;
}

bool matching_pr_married(const Graph& g, const Configuration& config,
                         ProcessId p) {
  const Value pr = config.comm(p, MatchingProtocol::kPrVar);
  const Value cur = config.internal_var(p, MatchingProtocol::kCurVar);
  if (pr == 0 || pr != cur) return false;
  const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(cur));
  return config.comm(q, MatchingProtocol::kPrVar) ==
         static_cast<Value>(g.local_index_of(q, p));
}

ProcessId matching_pr_partner(const Graph& g, const Configuration& config,
                              ProcessId p) {
  const Value pr = config.comm(p, MatchingProtocol::kPrVar);
  if (pr == 0) return -1;
  const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
  return config.comm(q, MatchingProtocol::kPrVar) ==
                 static_cast<Value>(
                     g.mirror_index(p, static_cast<NbrIndex>(pr)))
             ? q
             : -1;
}

std::vector<Edge> extract_matching(const Graph& g,
                                   const Configuration& config) {
  std::vector<Edge> matched;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (!matching_pr_married(g, config, p)) continue;
    const Value pr = config.comm(p, MatchingProtocol::kPrVar);
    const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
    // A married q is married to p, so the pair is recorded once, at the
    // smaller endpoint.
    if (p < q || !matching_pr_married(g, config, q)) {
      matched.emplace_back(std::min(p, q), std::max(p, q));
    }
  }
  return matched;
}

std::vector<Edge> extract_mutual_pr_edges(const Graph& g,
                                          const Configuration& config) {
  std::vector<Edge> matched;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value pr = config.comm(p, MatchingProtocol::kPrVar);
    if (pr == 0) continue;
    const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
    if (q < p) continue;  // handle each pair once
    if (config.comm(q, MatchingProtocol::kPrVar) ==
        static_cast<Value>(g.local_index_of(q, p))) {
      matched.emplace_back(p, q);
    }
  }
  return matched;
}

bool is_independent_set(const Graph& g, const std::vector<bool>& in_set) {
  SSS_REQUIRE(static_cast<int>(in_set.size()) == g.num_vertices(),
              "membership bitmap has the wrong size");
  for (const auto& [a, b] : g.edges()) {
    if (in_set[static_cast<std::size_t>(a)] &&
        in_set[static_cast<std::size_t>(b)]) {
      return false;
    }
  }
  return true;
}

bool is_maximal_independent_set(const Graph& g,
                                const std::vector<bool>& in_set) {
  if (!is_independent_set(g, in_set)) return false;
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    if (in_set[static_cast<std::size_t>(p)]) continue;
    bool dominated = false;
    for (ProcessId q : g.neighbors(p)) {
      if (in_set[static_cast<std::size_t>(q)]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool is_matching(const Graph& g, const std::vector<Edge>& edges) {
  std::vector<int> incidence(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const auto& [a, b] : edges) {
    if (!g.has_edge(a, b)) return false;
    if (++incidence[static_cast<std::size_t>(a)] > 1) return false;
    if (++incidence[static_cast<std::size_t>(b)] > 1) return false;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const std::vector<Edge>& edges) {
  if (!is_matching(g, edges)) return false;
  std::vector<bool> covered(static_cast<std::size_t>(g.num_vertices()), false);
  for (const auto& [a, b] : edges) {
    covered[static_cast<std::size_t>(a)] = true;
    covered[static_cast<std::size_t>(b)] = true;
  }
  for (const auto& [a, b] : g.edges()) {
    if (!covered[static_cast<std::size_t>(a)] &&
        !covered[static_cast<std::size_t>(b)]) {
      return false;
    }
  }
  return true;
}

}  // namespace sss
