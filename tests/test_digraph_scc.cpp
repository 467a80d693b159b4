// Tests for the digraph substrate and Tarjan SCC.
#include <gtest/gtest.h>

#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

TEST(Digraph, BasicConstruction) {
  Digraph g(3);
  EXPECT_EQ(g.node_count(), 3);
  const auto a = g.add_arc(0, 1);
  const auto b = g.add_arc(1, 2);
  EXPECT_EQ(g.arc_count(), 2);
  EXPECT_EQ(g.arc(a).src, 0);
  EXPECT_EQ(g.arc(b).dst, 2);
  EXPECT_EQ(g.out_arcs(0).size(), 1u);
  EXPECT_TRUE(g.out_arcs(2).empty());
}

TEST(Digraph, SelfLoopAndParallelArcs) {
  Digraph g(2);
  g.add_arc(0, 0);
  g.add_arc(0, 1);
  g.add_arc(0, 1);
  EXPECT_EQ(g.out_arcs(0).size(), 3u);
}

TEST(Digraph, BadIdsThrow) {
  Digraph g(2);
  EXPECT_THROW((void)g.add_arc(0, 2), ModelError);
  EXPECT_THROW((void)g.add_arc(-1, 0), ModelError);
  EXPECT_THROW((void)g.arc(0), ModelError);
  EXPECT_THROW((void)g.out_arcs(5), ModelError);
}

TEST(Scc, SingleCycle) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 0);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.component_count, 1);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[1], scc.component_of[2]);
}

TEST(Scc, Chain) {
  Digraph g(3);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.component_count, 3);
}

TEST(Scc, TwoCyclesBridged) {
  Digraph g(6);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(1, 2);  // bridge
  g.add_arc(2, 3);
  g.add_arc(3, 4);
  g.add_arc(4, 2);
  g.add_arc(4, 5);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.component_count, 3);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[2], scc.component_of[3]);
  EXPECT_EQ(scc.component_of[3], scc.component_of[4]);
  EXPECT_NE(scc.component_of[0], scc.component_of[2]);
  EXPECT_NE(scc.component_of[4], scc.component_of[5]);
}

TEST(Scc, SelfLoopIsCyclicArc) {
  Digraph g(2);
  const auto self = g.add_arc(0, 0);
  const auto cross = g.add_arc(0, 1);
  const SccResult scc = strongly_connected_components(g);
  EXPECT_TRUE(arc_in_cycle(g, scc, self));
  EXPECT_FALSE(arc_in_cycle(g, scc, cross));
}

TEST(Scc, ReverseTopologicalNumbering) {
  // Tarjan numbers a component before any component that can reach it.
  Digraph g(4);
  g.add_arc(0, 1);
  g.add_arc(1, 2);
  g.add_arc(2, 3);
  const SccResult scc = strongly_connected_components(g);
  // Arc u->v across components implies comp(v) < comp(u).
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    EXPECT_LT(scc.component_of[static_cast<std::size_t>(arc.dst)],
              scc.component_of[static_cast<std::size_t>(arc.src)]);
  }
}

TEST(Scc, GroupedPartitionsNodes) {
  Digraph g(5);
  g.add_arc(0, 1);
  g.add_arc(1, 0);
  g.add_arc(2, 3);
  const SccResult scc = strongly_connected_components(g);
  const auto groups = scc.grouped();
  std::size_t total = 0;
  for (const auto& grp : groups) total += grp.size();
  EXPECT_EQ(total, 5u);
}

TEST(Scc, EmptyGraph) {
  Digraph g;
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.component_count, 0);
}

// Property sweep: on random graphs, the SCC condensation must be acyclic
// and arcs inside a component must lie on a cycle through mutual paths.
class SccProperty : public ::testing::TestWithParam<u64> {};

TEST_P(SccProperty, CondensationIsAcyclic) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(2, 40));
    Digraph g(n);
    const i64 arcs = rng.uniform(1, 3 * n);
    for (i64 i = 0; i < arcs; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)));
    }
    const SccResult scc = strongly_connected_components(g);
    // Cross-component arcs always point to lower component ids (reverse
    // topological numbering) — this forbids condensation cycles.
    for (std::int32_t a = 0; a < g.arc_count(); ++a) {
      const auto& arc = g.arc(a);
      const auto cs = scc.component_of[static_cast<std::size_t>(arc.src)];
      const auto cd = scc.component_of[static_cast<std::size_t>(arc.dst)];
      if (cs != cd) {
        EXPECT_LT(cd, cs);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SccProperty, ::testing::Values(11, 12, 13, 14, 15));

}  // namespace
}  // namespace kp
