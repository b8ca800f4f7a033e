/// Legitimacy predicates against their reference statements.
///
/// Every `Problem::holds` is one allocation-free pass over the adjacency
/// (core/problems.hpp). The extractors and `is_*` validators state the same
/// predicates the straightforward way: materialize the output (a color
/// vector, a membership bitmap, a matched-edge list, true BFS distances)
/// and check it. This suite holds each ProblemRegistry entry to that
/// reference on the harness menagerie, for every base protocol paired with
/// it, on three kinds of configuration:
///  * uniform random configurations;
///  * silent configurations reached by Engine::run;
///  * every single-variable in-domain mutation of those silent
///    configurations (constants included), which lands on the boundary of
///    legitimacy that random draws almost never reach.
/// Random spanning forests written as {D, PR} claims give the BFS family
/// parent-consistent configurations whose distances may overshoot. Hand-
/// built edge cases cover shapes no protocol run produces: missing or
/// duplicate roots, out-of-range parent channels, a rootless component of
/// a disconnected network, and a leader id nobody owns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs_tree_protocol.hpp"
#include "core/leader_election_protocol.hpp"
#include "core/matching_protocol.hpp"
#include "core/problem_registry.hpp"
#include "core/protocol_registry.hpp"
#include "core/spanning_forest_protocol.hpp"
#include "graph/builders.hpp"
#include "graph/coloring.hpp"
#include "protocol_harness.hpp"
#include "runtime/daemon.hpp"
#include "runtime/engine.hpp"
#include "support/rng.hpp"
#include "transformer/rotating_check.hpp"
#include "verify/forest_predicates.hpp"
#include "verify/tree_predicates.hpp"

namespace sss {
namespace {

std::vector<Value> comm_column(const Graph& g, const Configuration& config,
                               int var) {
  std::vector<Value> column(static_cast<std::size_t>(g.num_vertices()));
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    column[static_cast<std::size_t>(p)] = config.comm(p, var);
  }
  return column;
}

/// The reference statement of each registry problem, built only from the
/// extractors and validators.
bool reference_holds(const std::string& problem, const Graph& g,
                     const Configuration& config) {
  if (problem == "vertex-coloring") {
    return is_proper_coloring(g, extract_colors(g, config));
  }
  if (problem == "maximal-independent-set") {
    return is_maximal_independent_set(g, extract_mis(g, config));
  }
  if (problem == "maximal-matching") {
    return is_maximal_matching(g, extract_matching(g, config));
  }
  if (problem == "mutual-pr-matching") {
    return is_maximal_matching(g, extract_mutual_pr_edges(g, config));
  }
  if (problem == "bfs-spanning-tree") {
    const ProcessId root = extract_bfs_root(g, config);
    return root >= 0 &&
           is_bfs_tree(g, root,
                       comm_column(g, config, BfsTreeProtocol::kDistVar),
                       comm_column(g, config, BfsTreeProtocol::kParentVar));
  }
  if (problem == "bfs-spanning-forest") {
    const std::vector<ProcessId> roots = extract_forest_roots(g, config);
    return !roots.empty() &&
           is_bfs_forest(
               g, roots,
               comm_column(g, config, SpanningForestProtocol::kDistVar),
               comm_column(g, config, SpanningForestProtocol::kParentVar));
  }
  if (problem == "leader-election") {
    const Value agreed = extract_agreed_leader(g, config);
    if (agreed < 0) return false;
    // The agreed id must be the minimum one, and its owner (the last one,
    // should a corrupted constant duplicate it) roots the BFS tree.
    ProcessId owner = -1;
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      const Value id = config.comm(p, LeaderElectionProtocol::kIdVar);
      if (id < agreed) return false;
      if (id == agreed) owner = p;
    }
    return owner >= 0 &&
           is_bfs_tree(
               g, owner,
               comm_column(g, config, LeaderElectionProtocol::kDistVar),
               comm_column(g, config, LeaderElectionProtocol::kParentVar));
  }
  ADD_FAILURE() << "no reference statement for problem \"" << problem << "\"";
  return false;
}

/// Calls `visit` on every configuration that differs from `config` in
/// exactly one variable (communication or internal, constants included)
/// set to another value of its domain; `config` is restored afterwards.
void for_each_single_mutation(const Graph& g, const ProtocolSpec& spec,
                              Configuration& config,
                              const std::function<void()>& visit) {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    for (int var = 0; var < spec.num_comm(); ++var) {
      const Value original = config.comm(p, var);
      const VarDomain domain = spec.comm[static_cast<std::size_t>(var)]
                                   .domain(g, p);
      for (Value v = domain.lo; v <= domain.hi; ++v) {
        if (v == original) continue;
        config.set_comm(p, var, v);
        visit();
      }
      config.set_comm(p, var, original);
    }
    for (int var = 0; var < spec.num_internal(); ++var) {
      const Value original = config.internal_var(p, var);
      const VarDomain domain = spec.internal[static_cast<std::size_t>(var)]
                                   .domain(g, p);
      for (Value v = domain.lo; v <= domain.hi; ++v) {
        if (v == original) continue;
        config.set_internal(p, var, v);
        visit();
      }
      config.set_internal(p, var, original);
    }
  }
}

/// The registry's default parameters, plus a two-root forest for entries
/// that take a root set: the single default root alone would leave the
/// nearest-root half of the forest predicate unexercised.
std::vector<ParamMap> parameter_variants(const ProtocolRegistry::Entry& entry,
                                         const Graph& g) {
  std::vector<ParamMap> variants = {{}};
  if (std::find(entry.params.begin(), entry.params.end(), "roots") !=
      entry.params.end()) {
    variants.push_back(
        {{"roots", "0," + std::to_string(g.num_vertices() - 1)}});
  }
  return variants;
}

struct Tally {
  int checked = 0;
  int legitimate = 0;
};

TEST(ProblemPredicates, EveryRegistryProblemMatchesItsReference) {
  const ProtocolRegistry& protocols = ProtocolRegistry::instance();
  const std::vector<Graph> graphs = testing::harness_menagerie();
  for (const std::string& problem_name : ProblemRegistry::instance().names()) {
    SCOPED_TRACE(problem_name);
    const std::unique_ptr<Problem> problem =
        ProblemRegistry::instance().make(problem_name);
    Tally tally;
    const auto expect_match = [&](const Graph& g, const Configuration& config,
                                  const std::string& where) {
      const bool expected = reference_holds(problem_name, g, config);
      EXPECT_EQ(problem->holds(g, config), expected) << where;
      ++tally.checked;
      tally.legitimate += expected ? 1 : 0;
    };

    for (const std::string& protocol_name : protocols.protocol_names()) {
      const ProtocolRegistry::Entry& entry = protocols.info(protocol_name);
      if (entry.problem != problem_name) continue;
      const std::string daemon =
          entry.daemons.empty() ? "distributed" : entry.daemons.front();
      for (const Graph& g : graphs) {
        for (const ParamMap& params : parameter_variants(entry, g)) {
          const std::unique_ptr<Protocol> protocol =
              protocols.make(protocol_name, g, params);
          for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const std::string where =
                protocol->name() + " on " + g.name() + ", seed " +
                std::to_string(seed);
            Engine engine(g, *protocol, make_daemon(daemon), seed);
            engine.randomize_state();
            expect_match(g, engine.config(), where + ", random");

            RunOptions run;
            run.max_steps = 400'000;
            ASSERT_TRUE(engine.run(run).silent) << where;
            Configuration config = engine.config();
            expect_match(g, config, where + ", silent");
            for_each_single_mutation(g, protocol->spec(), config, [&] {
              expect_match(g, config, where + ", mutated");
            });
          }
        }
      }
    }
    EXPECT_GT(tally.checked, 0)
        << "no base protocol is paired with " << problem_name;
    // Both answers must occur, or the comparison proves little.
    EXPECT_GT(tally.legitimate, 0);
    EXPECT_LT(tally.legitimate, tally.checked);
  }
}

/// Runs the registry problem `name` and its reference on a hand-built
/// configuration and checks both against `expected`.
void expect_hand_built(const std::string& name, const Graph& g,
                       const Configuration& config, bool expected,
                       const std::string& label) {
  const auto problem = ProblemRegistry::instance().make(name);
  EXPECT_EQ(problem->holds(g, config), expected) << label;
  EXPECT_EQ(reference_holds(name, g, config), expected) << label;
}

TEST(ProblemPredicates, BfsTreeEdgeCases) {
  const Graph g = path(4);
  const BfsTreeProtocol protocol(g, 0);
  constexpr int kD = BfsTreeProtocol::kDistVar;
  constexpr int kPr = BfsTreeProtocol::kParentVar;
  constexpr int kR = BfsTreeProtocol::kRootVar;
  Configuration tree(g, protocol.spec());
  const Value dist[] = {0, 1, 2, 3};
  const Value parent[] = {0, 1, 1, 1};  // channel 1 faces the lower id
  for (ProcessId p = 0; p < 4; ++p) {
    tree.set_comm(p, kD, dist[p]);
    tree.set_comm(p, kPr, parent[p]);
    tree.set_comm(p, kR, p == 0 ? 1 : 0);
  }
  expect_hand_built("bfs-spanning-tree", g, tree, true, "path tree");

  Configuration no_root = tree;
  no_root.set_comm(0, kR, 0);
  expect_hand_built("bfs-spanning-tree", g, no_root, false, "no root");

  Configuration two_roots = tree;
  two_roots.set_comm(3, kR, 1);
  expect_hand_built("bfs-spanning-tree", g, two_roots, false, "two roots");

  Configuration parent_zero = tree;
  parent_zero.set_comm(2, kPr, 0);
  expect_hand_built("bfs-spanning-tree", g, parent_zero, false,
                    "non-root parent channel 0");

  Configuration parent_past_degree = tree;
  parent_past_degree.set_comm(3, kPr, 2);  // degree 1
  expect_hand_built("bfs-spanning-tree", g, parent_past_degree, false,
                    "parent channel past the degree");

  Configuration root_with_parent = tree;
  root_with_parent.set_comm(0, kPr, 1);
  expect_hand_built("bfs-spanning-tree", g, root_with_parent, false,
                    "root with a parent");

  // The root's component alone is a BFS tree, but the network is not.
  const Graph split = Graph::from_edges(4, {{0, 1}, {2, 3}});
  Configuration partial(split, protocol.spec());
  const Value split_parent[] = {0, 1, 0, 1};
  for (ProcessId p = 0; p < 4; ++p) {
    partial.set_comm(p, kD, p % 2);
    partial.set_comm(p, kPr, split_parent[p]);
    partial.set_comm(p, kR, p == 0 ? 1 : 0);
  }
  expect_hand_built("bfs-spanning-tree", split, partial, false,
                    "unreachable component");
}

TEST(ProblemPredicates, BfsForestEdgeCases) {
  const Graph g = path(5);
  const SpanningForestProtocol protocol(g, {0, 4});
  constexpr int kD = SpanningForestProtocol::kDistVar;
  constexpr int kPr = SpanningForestProtocol::kParentVar;
  constexpr int kR = SpanningForestProtocol::kRootVar;
  Configuration forest(g, protocol.spec());
  const Value dist[] = {0, 1, 2, 1, 0};
  const Value parent[] = {0, 1, 2, 2, 0};  // process 2 leans toward 3
  for (ProcessId p = 0; p < 5; ++p) {
    forest.set_comm(p, kD, dist[p]);
    forest.set_comm(p, kPr, parent[p]);
    forest.set_comm(p, kR, p == 0 || p == 4 ? 1 : 0);
  }
  expect_hand_built("bfs-spanning-forest", g, forest, true, "two-root path");

  Configuration other_side = forest;
  other_side.set_comm(2, kPr, 1);  // equally near root 0
  expect_hand_built("bfs-spanning-forest", g, other_side, true,
                    "tie toward the other root");

  Configuration no_roots = forest;
  no_roots.set_comm(0, kR, 0);
  no_roots.set_comm(4, kR, 0);
  expect_hand_built("bfs-spanning-forest", g, no_roots, false, "no roots");

  Configuration far_root = forest;
  far_root.set_comm(4, kR, 0);  // claims still count distance to 4
  expect_hand_built("bfs-spanning-forest", g, far_root, false,
                    "claims toward an unflagged root");

  Configuration parent_past_degree = forest;
  parent_past_degree.set_comm(1, kPr, 3);  // degree 2
  expect_hand_built("bfs-spanning-forest", g, parent_past_degree, false,
                    "parent channel past the degree");

  // Two components: {0,1,2} rooted at 0 and {3,4}, whose best-looking
  // claims are a fake root without the flag.
  const Graph split = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  Configuration rootless(split, protocol.spec());
  const Value split_dist[] = {0, 1, 2, 1, 0};
  const Value split_parent[] = {0, 1, 1, 1, 0};
  for (ProcessId p = 0; p < 5; ++p) {
    rootless.set_comm(p, kD, split_dist[p]);
    rootless.set_comm(p, kPr, split_parent[p]);
    rootless.set_comm(p, kR, p == 0 ? 1 : 0);
  }
  expect_hand_built("bfs-spanning-forest", split, rootless, false,
                    "component without a root");
  Configuration rooted = rootless;
  rooted.set_comm(4, kR, 1);
  expect_hand_built("bfs-spanning-forest", split, rooted, true,
                    "every component rooted");
}

TEST(ProblemPredicates, LeaderElectionEdgeCases) {
  const Graph g = path(3);
  const LeaderElectionProtocol protocol(g, {5, 6, 7});
  constexpr int kL = LeaderElectionProtocol::kLeaderVar;
  constexpr int kD = LeaderElectionProtocol::kDistVar;
  constexpr int kPr = LeaderElectionProtocol::kParentVar;
  constexpr int kId = LeaderElectionProtocol::kIdVar;
  Configuration elected(g, protocol.spec());
  for (ProcessId p = 0; p < 3; ++p) {
    elected.set_comm(p, kL, 5);
    elected.set_comm(p, kD, p);
    elected.set_comm(p, kPr, p == 0 ? 0 : 1);
    elected.set_comm(p, kId, 5 + p);
  }
  expect_hand_built("leader-election", g, elected, true, "elected 5");

  Configuration unowned = elected;
  for (ProcessId p = 0; p < 3; ++p) unowned.set_comm(p, kL, 4);
  expect_hand_built("leader-election", g, unowned, false,
                    "leader id nobody owns");

  Configuration not_minimum = elected;
  for (ProcessId p = 0; p < 3; ++p) not_minimum.set_comm(p, kL, 6);
  expect_hand_built("leader-election", g, not_minimum, false,
                    "leader is not the minimum id");

  Configuration disagree = elected;
  disagree.set_comm(2, kL, 6);
  expect_hand_built("leader-election", g, disagree, false, "disagreement");

  Configuration owner_with_parent = elected;
  owner_with_parent.set_comm(0, kPr, 1);
  expect_hand_built("leader-election", g, owner_with_parent, false,
                    "leader with a parent");

  Configuration parent_zero = elected;
  parent_zero.set_comm(1, kPr, 0);
  expect_hand_built("leader-election", g, parent_zero, false,
                    "follower with parent channel 0");
}

/// Parent-consistent claims that need not be BFS: grows a random spanning
/// forest from `roots` (each step attaches a random non-forest neighbor of
/// a random forest vertex) and writes D = depth in that forest and PR =
/// the channel to the forest parent. Every parent check passes, so only
/// the distance bound decides — a case single mutations of silent
/// configurations never reach.
void claim_random_forest(const Graph& g, const std::vector<ProcessId>& roots,
                         int dist_var, int parent_var, Rng& rng,
                         Configuration& config) {
  std::vector<Value> depth(static_cast<std::size_t>(g.num_vertices()), -1);
  std::vector<std::pair<ProcessId, ProcessId>> candidates;
  const auto attach = [&](ProcessId v, ProcessId parent) {
    depth[static_cast<std::size_t>(v)] =
        parent < 0 ? 0 : depth[static_cast<std::size_t>(parent)] + 1;
    config.set_comm(v, dist_var, depth[static_cast<std::size_t>(v)]);
    config.set_comm(v, parent_var,
                    parent < 0 ? 0 : g.local_index_of(v, parent));
    for (const ProcessId w : g.neighbors(v)) {
      if (depth[static_cast<std::size_t>(w)] < 0) candidates.emplace_back(v, w);
    }
  };
  for (const ProcessId root : roots) attach(root, -1);
  while (!candidates.empty()) {
    const auto pick = static_cast<std::size_t>(rng.below(candidates.size()));
    const auto [u, v] = candidates[pick];
    candidates[pick] = candidates.back();
    candidates.pop_back();
    if (depth[static_cast<std::size_t>(v)] < 0) attach(v, u);
  }
}

TEST(ProblemPredicates, BfsFamilyOnRandomSpanningForestClaims) {
  Rng rng(0xbf5);
  const auto tree = ProblemRegistry::instance().make("bfs-spanning-tree");
  const auto forest = ProblemRegistry::instance().make("bfs-spanning-forest");
  const auto leader = ProblemRegistry::instance().make("leader-election");
  std::map<std::string, Tally> tallies;
  const auto expect_match = [&](const Problem& problem, const Graph& g,
                                const Configuration& config) {
    const bool expected = reference_holds(problem.name(), g, config);
    EXPECT_EQ(problem.holds(g, config), expected)
        << problem.name() << " on " << g.name();
    Tally& tally = tallies[problem.name()];
    ++tally.checked;
    tally.legitimate += expected ? 1 : 0;
  };
  for (const Graph& g : testing::harness_menagerie()) {
    const int n = g.num_vertices();
    for (int draw = 0; draw < 40; ++draw) {
      const auto pick = [&] {
        return static_cast<ProcessId>(rng.below(static_cast<std::uint64_t>(n)));
      };

      const ProcessId root = pick();
      const BfsTreeProtocol tree_protocol(g, root);
      Configuration rooted(g, tree_protocol.spec());
      for (ProcessId p = 0; p < n; ++p) {
        rooted.set_comm(p, BfsTreeProtocol::kRootVar, p == root ? 1 : 0);
      }
      claim_random_forest(g, {root}, BfsTreeProtocol::kDistVar,
                          BfsTreeProtocol::kParentVar, rng, rooted);
      expect_match(*tree, g, rooted);

      std::vector<ProcessId> roots = {pick(), pick()};
      if (roots[0] == roots[1]) roots.pop_back();
      const SpanningForestProtocol forest_protocol(g, roots);
      Configuration multi(g, forest_protocol.spec());
      for (const ProcessId r : roots) {
        multi.set_comm(r, SpanningForestProtocol::kRootVar, 1);
      }
      claim_random_forest(g, roots, SpanningForestProtocol::kDistVar,
                          SpanningForestProtocol::kParentVar, rng, multi);
      expect_match(*forest, g, multi);

      // Identifiers rotated so the owner of the minimum id varies.
      const ProcessId owner = pick();
      std::vector<Value> ids(static_cast<std::size_t>(n));
      for (ProcessId p = 0; p < n; ++p) {
        ids[static_cast<std::size_t>(p)] = (p - owner + n) % n;
      }
      const LeaderElectionProtocol leader_protocol(g, ids);
      Configuration elected(g, leader_protocol.spec());
      for (ProcessId p = 0; p < n; ++p) {
        elected.set_comm(p, LeaderElectionProtocol::kIdVar,
                         ids[static_cast<std::size_t>(p)]);
        elected.set_comm(p, LeaderElectionProtocol::kLeaderVar, 0);
      }
      claim_random_forest(g, {owner}, LeaderElectionProtocol::kDistVar,
                          LeaderElectionProtocol::kParentVar, rng, elected);
      expect_match(*leader, g, elected);
    }
  }
  ASSERT_EQ(tallies.size(), 3u);
  for (const auto& [name, tally] : tallies) {
    EXPECT_GT(tally.legitimate, 0) << name;
    EXPECT_LT(tally.legitimate, tally.checked) << name;
  }
}

TEST(ProblemPredicates, SeparationMatchesEdgeListStatement) {
  Rng rng(0x5e9a);
  int separated = 0;
  int checked = 0;
  for (const Graph& g : testing::harness_menagerie()) {
    for (int separation = 1; separation <= 3; ++separation) {
      const PairwiseSeparation source(g, separation);
      Configuration config(g, source.base_spec());
      for (int draw = 0; draw < 200; ++draw) {
        // Narrow draws so both answers occur on every graph.
        const Value hi = static_cast<Value>(2 * separation * g.max_degree());
        for (ProcessId p = 0; p < g.num_vertices(); ++p) {
          config.set_comm(p, PairwiseSeparation::kValueVar,
                          static_cast<Value>(rng.range(1, hi)));
        }
        bool expected = true;
        for (const auto& [a, b] : g.edges()) {
          if (std::abs(config.comm(a, PairwiseSeparation::kValueVar) -
                       config.comm(b, PairwiseSeparation::kValueVar)) <
              separation) {
            expected = false;
          }
        }
        EXPECT_EQ(PairwiseSeparation::separated(g, config, separation),
                  expected)
            << g.name() << ", separation " << separation;
        ++checked;
        separated += expected ? 1 : 0;
      }
    }
  }
  EXPECT_GT(separated, 0);
  EXPECT_LT(separated, checked);
}

}  // namespace
}  // namespace sss
