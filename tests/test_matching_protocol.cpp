/// Tests for Protocol MATCHING (Figure 10): all six actions, Lemma 7
/// (PR in {0, cur} after the first round), Lemma 5 (silent => free or
/// married), deterministic convergence within the Lemma 9 bound,
/// 1-efficiency, and the matched-pair 1-stability behind Theorem 8.

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/matching_protocol.hpp"
#include "core/problems.hpp"
#include "core/stability.hpp"
#include "graph/builders.hpp"
#include "runtime/engine.hpp"
#include "support/require.hpp"
#include "test_util.hpp"

namespace sss {
namespace {

using testing::sweep_graphs;

constexpr int kM = MatchingProtocol::kMarriedVar;
constexpr int kPR = MatchingProtocol::kPrVar;
constexpr int kCur = MatchingProtocol::kCurVar;

/// path(3) with colors 1-2-3 and all-free state; the playground for the
/// micro action tests.
struct Playground {
  Graph g = path(3);
  MatchingProtocol protocol{g, Coloring{1, 2, 3}};
  Configuration config{g, protocol.spec()};
  Rng rng{7};

  Playground() { protocol.install_constants(g, config); }

  ProcessStep step(ProcessId p) {
    return apply_solo_step(g, protocol, config, p, rng);
  }
};

TEST(MatchingProtocol, SpecMatchesFigure10) {
  Playground pg;
  ASSERT_EQ(pg.protocol.spec().num_comm(), 3);
  EXPECT_EQ(pg.protocol.spec().comm[kM].name(), "M");
  EXPECT_EQ(pg.protocol.spec().comm[kPR].name(), "PR");
  EXPECT_TRUE(pg.protocol.spec().comm[MatchingProtocol::kColorVar]
                  .is_constant());
  // PR ranges over {0..delta.p}.
  EXPECT_EQ(pg.protocol.spec().comm[kPR].domain(pg.g, 1).lo, 0);
  EXPECT_EQ(pg.protocol.spec().comm[kPR].domain(pg.g, 1).hi, 2);
}

TEST(MatchingProtocol, A1RepointsStalePointer) {
  // PR.p not in {0, cur.p} -> PR.p <- cur.p (highest priority).
  Playground pg;
  pg.config.set_comm(1, kPR, 2);       // points at channel 2
  pg.config.set_internal(1, kCur, 1);  // but checks channel 1
  const ProcessStep step = pg.step(1);
  EXPECT_EQ(step.action, 0);
  EXPECT_EQ(pg.config.comm(1, kPR), 1);
}

TEST(MatchingProtocol, A2AnnouncesMarriage) {
  // M.p != PRmarried(p) -> update M. Build a married pair 0-1.
  Playground pg;
  pg.config.set_comm(0, kPR, 1);       // 0's only channel is 1
  pg.config.set_internal(0, kCur, 1);
  pg.config.set_comm(1, kPR, 1);       // 1's channel 1 is process 0
  pg.config.set_internal(1, kCur, 1);
  const ProcessStep step = pg.step(0);
  EXPECT_EQ(step.action, 1);
  EXPECT_EQ(pg.config.comm(0, kM), 1);
  // And the converse: marriage ends, M must drop to false.
  pg.config.set_comm(1, kPR, 0);
  const ProcessStep drop = pg.step(0);
  EXPECT_EQ(drop.action, 1);
  EXPECT_EQ(pg.config.comm(0, kM), 0);
}

TEST(MatchingProtocol, A3AcceptsProposal) {
  // PR.p = 0 and PR.(cur.p) = p -> accept.
  Playground pg;
  pg.config.set_comm(0, kPR, 1);       // 0 proposes to 1
  pg.config.set_internal(0, kCur, 1);
  pg.config.set_comm(0, kM, 0);
  pg.config.set_comm(1, kPR, 0);
  pg.config.set_internal(1, kCur, 1);  // 1 checks channel 1 = process 0
  const ProcessStep step = pg.step(1);
  EXPECT_EQ(step.action, 2);
  EXPECT_EQ(pg.config.comm(1, kPR), 1);  // accepted: points back at 0
}

TEST(MatchingProtocol, A4AbandonsMarriedNeighbor) {
  // PR.p = cur.p, no proposal back, and the neighbor is married.
  Playground pg;
  pg.config.set_comm(1, kPR, 2);       // 1 points at process 2
  pg.config.set_internal(1, kCur, 2);
  pg.config.set_comm(2, kPR, 0);       // 2 does not point back
  pg.config.set_comm(2, kM, 1);        // and claims to be married
  const ProcessStep step = pg.step(1);
  EXPECT_EQ(step.action, 3);
  EXPECT_EQ(pg.config.comm(1, kPR), 0);
}

TEST(MatchingProtocol, A4AbandonsLowerColoredNeighbor) {
  // Condition (ii): break pointer cycles via colors. 2 points at 1 (color
  // 2 < 3) which points elsewhere.
  Playground pg;
  pg.config.set_comm(2, kPR, 1);       // 2's only channel is process 1
  pg.config.set_internal(2, kCur, 1);
  pg.config.set_comm(1, kPR, 1);       // 1 points at process 0 instead
  pg.config.set_internal(1, kCur, 1);
  const ProcessStep step = pg.step(2);
  EXPECT_EQ(step.action, 3);
  EXPECT_EQ(pg.config.comm(2, kPR), 0);
}

TEST(MatchingProtocol, A5ProposesToFreeHigherColoredNeighbor) {
  Playground pg;  // all free; colors 1-2-3
  pg.config.set_internal(0, kCur, 1);  // 0 checks its neighbor 1
  const ProcessStep step = pg.step(0);
  EXPECT_EQ(step.action, 4);
  EXPECT_EQ(pg.config.comm(0, kPR), 1);  // proposal out
}

TEST(MatchingProtocol, A6ScansPastIneligibleNeighbor) {
  // A free process pointing at a lower-colored free neighbor advances cur.
  Playground pg;
  pg.config.set_internal(1, kCur, 1);  // 1 checks process 0 (color 1 < 2)
  const ProcessStep step = pg.step(1);
  EXPECT_EQ(step.action, 5);
  EXPECT_EQ(pg.config.comm(1, kPR), 0);          // still free
  EXPECT_EQ(pg.config.internal_var(1, kCur), 2);  // moved on
}

TEST(MatchingProtocol, MarriedPairIsDisabled) {
  Playground pg;
  pg.config.set_comm(0, kPR, 1);
  pg.config.set_internal(0, kCur, 1);
  pg.config.set_comm(0, kM, 1);
  pg.config.set_comm(1, kPR, 1);
  pg.config.set_internal(1, kCur, 1);
  pg.config.set_comm(1, kM, 1);
  GuardContext g0(pg.g, pg.config, 0, nullptr);
  GuardContext g1(pg.g, pg.config, 1, nullptr);
  EXPECT_EQ(pg.protocol.first_enabled(g0), Protocol::kDisabled);
  EXPECT_EQ(pg.protocol.first_enabled(g1), Protocol::kDisabled);
}

// Lemma 7: after the first round, PR.p is always 0 or cur.p.
TEST(MatchingProtocol, Lemma7PointerDiscipline) {
  const Graph g = grid(3, 3);
  const MatchingProtocol protocol(g, greedy_coloring(g));
  Engine engine(g, protocol, make_fair_enumerator_daemon(), 31);
  engine.randomize_state();
  // One enumerator round = n steps.
  for (int s = 0; s < g.num_vertices(); ++s) engine.step();
  for (int extra = 0; extra < 300; ++extra) {
    engine.step();
    const Configuration& config = engine.config();
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      const Value pr = config.comm(p, kPR);
      EXPECT_TRUE(pr == 0 || pr == config.internal_var(p, kCur))
          << "process " << p << " after step " << engine.steps();
    }
  }
}

struct MatchingCase {
  std::string graph;
  std::string daemon;
};

class MatchingConvergence : public ::testing::TestWithParam<MatchingCase> {};

// Theorem 7 + Lemma 9: silent within (Delta+1)n + 2 rounds, 1-efficient,
// and the matched edges form a maximal matching.
TEST_P(MatchingConvergence, ConvergesWithinLemma9Bound) {
  const auto& param = GetParam();
  Graph g = path(2);
  for (auto& [label, graph] : sweep_graphs()) {
    if (label == param.graph) g = graph;
  }
  const MatchingProtocol protocol(g, greedy_coloring(g));
  const MatchingProblem problem;
  const std::int64_t bound =
      matching_round_bound(g.num_vertices(), g.max_degree());
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    Engine engine(g, protocol, make_daemon(param.daemon), seed);
    engine.randomize_state();
    RunOptions options;
    options.max_steps = 4'000'000;
    options.legitimacy = problem.predicate();
    const RunStats stats = engine.run(options);
    ASSERT_TRUE(stats.silent) << param.graph << "/" << param.daemon;
    EXPECT_TRUE(problem.holds(g, engine.config()));
    EXPECT_EQ(stats.max_reads_per_process_step, 1);
    EXPECT_LE(static_cast<std::int64_t>(stats.rounds_to_silence), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchingConvergence,
    ::testing::Values(MatchingCase{"path8", "distributed"},
                      MatchingCase{"path8", "adversarial"},
                      MatchingCase{"cycle9", "central-rr"},
                      MatchingCase{"complete5", "distributed"},
                      MatchingCase{"complete5", "synchronous"},
                      MatchingCase{"star6", "enumerator"},
                      MatchingCase{"grid3x4", "distributed"},
                      MatchingCase{"petersen", "central-random"},
                      MatchingCase{"bintree10", "synchronous"},
                      MatchingCase{"gnp12", "distributed"},
                      MatchingCase{"caterpillar4x2", "adversarial"},
                      MatchingCase{"rtree11", "central-rr"}),
    [](const ::testing::TestParamInfo<MatchingCase>& param_info) {
      return testing::sanitize(param_info.param.graph + "_" +
                               param_info.param.daemon);
    });

// Lemma 5: in a silent configuration every process is free or married.
TEST(MatchingProtocol, Lemma5SilentMeansFreeOrMarried) {
  for (const auto& [label, g] : sweep_graphs()) {
    const MatchingProtocol protocol(g, greedy_coloring(g));
    Engine engine(g, protocol, make_distributed_random_daemon(), 51);
    engine.randomize_state();
    const RunStats stats = engine.run({});
    ASSERT_TRUE(stats.silent) << label;
    const Configuration& config = engine.config();
    for (ProcessId p = 0; p < g.num_vertices(); ++p) {
      const Value pr = config.comm(p, kPR);
      if (pr == 0) {
        EXPECT_EQ(config.comm(p, kM), 0) << label << " free process " << p;
        continue;
      }
      const ProcessId q = g.neighbor(p, static_cast<NbrIndex>(pr));
      EXPECT_EQ(config.comm(q, kPR),
                static_cast<Value>(g.local_index_of(q, p)))
          << label << " process " << p << " is neither free nor married";
      EXPECT_EQ(config.comm(p, kM), 1) << label;
    }
  }
}

TEST(MatchingProtocol, MatchedEdgesAgreeAcrossExtractors) {
  const Graph g = grid(3, 4);
  const MatchingProtocol protocol(g, dsatur_coloring(g));
  Engine engine(g, protocol, make_distributed_random_daemon(), 52);
  engine.randomize_state();
  ASSERT_TRUE(engine.run({}).silent);
  // In silent configurations the paper's inMM-based matched set coincides
  // with the raw mutual-PR pairs (Lemma 7 pins PR to cur).
  EXPECT_EQ(extract_matching(g, engine.config()),
            extract_mutual_pr_edges(g, engine.config()));
}

TEST(MatchingProtocol, ExtractMatchingRecordsEachPairOnceInOrder) {
  // path(8): channel 1 faces the lower id, channel 2 the higher one.
  const Graph g = path(8);
  const MatchingProtocol protocol(g, greedy_coloring(g));
  Configuration config(g, protocol.spec());
  const auto point = [&](ProcessId p, Value pr, Value cur) {
    config.set_comm(p, MatchingProtocol::kPrVar, pr);
    config.set_internal(p, MatchingProtocol::kCurVar, cur);
  };
  point(0, 0, 1);
  point(1, 2, 1);  // {1,2}: married only at 2 (1's cur looks away)
  point(2, 1, 1);
  point(3, 2, 2);  // {3,4}: married at both ends
  point(4, 1, 1);
  point(5, 2, 2);  // {5,6}: married only at 5
  point(6, 1, 2);
  point(7, 0, 1);
  EXPECT_FALSE(matching_pr_married(g, config, 1));
  EXPECT_TRUE(matching_pr_married(g, config, 2));
  EXPECT_TRUE(matching_pr_married(g, config, 3));
  EXPECT_TRUE(matching_pr_married(g, config, 4));
  EXPECT_TRUE(matching_pr_married(g, config, 5));
  EXPECT_FALSE(matching_pr_married(g, config, 6));
  // Each pair once, ordered by its first married endpoint, as the
  // quadratic de-duplicating scan produced it.
  const std::vector<Edge> expected = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(extract_matching(g, config), expected);
  EXPECT_TRUE(MatchingProblem().holds(g, config));

  point(2, 2, 2);  // 2 now points at 3, which points back at 4
  EXPECT_EQ(extract_matching(g, config),
            (std::vector<Edge>{{3, 4}, {5, 6}}));
  EXPECT_FALSE(MatchingProblem().holds(g, config));  // {0,1} uncovered
}

// Theorem 8's mechanism: married processes become 1-stable; free processes
// keep scanning all neighbors.
TEST(MatchingProtocol, MarriedProcessesAreOneStable) {
  const Graph g = cycle(10);
  const MatchingProtocol protocol(g, greedy_coloring(g));
  Engine engine(g, protocol, make_distributed_random_daemon(), 53);
  engine.randomize_state();
  const StabilityReport report = analyze_stability(engine, {}, 6);
  ASSERT_TRUE(report.silent);
  const Configuration& config = engine.config();
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const int reads =
        report.suffix_read_set_sizes[static_cast<std::size_t>(p)];
    if (config.comm(p, kM) == 1) {
      EXPECT_LE(reads, 1) << "married process " << p;
    } else {
      EXPECT_EQ(reads, g.degree(p)) << "free process " << p;
    }
  }
}

TEST(MatchingProtocol, MatchingSizeMeetsBiedlBound) {
  // [6]: any maximal matching has >= ceil(m / (2*Delta-1)) edges.
  for (const auto& [label, g] : sweep_graphs()) {
    const MatchingProtocol protocol(g, identity_coloring(g));
    Engine engine(g, protocol, make_distributed_random_daemon(), 54);
    engine.randomize_state();
    ASSERT_TRUE(engine.run({}).silent) << label;
    const auto matched = extract_matching(g, engine.config());
    EXPECT_GE(static_cast<std::int64_t>(matched.size()),
              matching_size_lower_bound(g.num_edges(), g.max_degree()))
        << label;
  }
}

TEST(MatchingProtocol, TwoProcessNetworkMarries) {
  const Graph g = path(2);
  const MatchingProtocol protocol(g, Coloring{1, 2});
  Engine engine(g, protocol, make_distributed_random_daemon(), 55);
  engine.randomize_state();
  ASSERT_TRUE(engine.run({}).silent);
  const auto matched = extract_matching(g, engine.config());
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], (Edge{0, 1}));
}

}  // namespace
}  // namespace sss
