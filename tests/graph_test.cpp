// Tests for src/graph: CSR construction, generators, balls (the paper's
// exact edge rule), ops, and metrics.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "graph/ball.h"
#include "graph/ball_atlas.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/ops.h"
#include "rand/splitmix.h"
#include "scenario/registry.h"

namespace lnc::graph {
namespace {

TEST(Graph, BuilderDeduplicatesAndSorts) {
  Graph::Builder b;
  b.add_edge(2, 0).add_edge(0, 2).add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  ASSERT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.neighbors(2)[0], 0u);
  EXPECT_EQ(g.neighbors(2)[1], 1u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, IsolatedNodesSurvive) {
  Graph::Builder b(5);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(Generators, CycleStructure) {
  const Graph g = cycle(7);
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.edge_count(), 7u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 3);
  EXPECT_EQ(girth(g), 7);
  EXPECT_FALSE(is_bipartite(g));     // odd cycle
  EXPECT_TRUE(is_bipartite(cycle(8)));
}

TEST(Generators, PathAndStar) {
  const Graph p = path(5);
  EXPECT_EQ(p.edge_count(), 4u);
  EXPECT_EQ(diameter(p), 4);
  EXPECT_EQ(girth(p), -1);  // forest

  const Graph s = star(6);
  EXPECT_EQ(s.degree(0), 5u);
  EXPECT_EQ(diameter(s), 2);
}

TEST(Generators, CompleteGraph) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(g.min_degree(), 5u);
  EXPECT_EQ(diameter(g), 1);
  EXPECT_EQ(girth(g), 3);
}

TEST(Generators, GridAndTorus) {
  const Graph g = grid(4, 3);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 4u * 2 + 3u * 3);  // 3 rows x 3 + 4 cols x 2
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(is_bipartite(g));

  const Graph t = torus(4, 4);
  EXPECT_EQ(t.node_count(), 16u);
  EXPECT_EQ(t.min_degree(), 4u);
  EXPECT_EQ(t.max_degree(), 4u);
  EXPECT_EQ(t.edge_count(), 32u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(diameter(g), 4);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, BinaryTreeAndCaterpillar) {
  const Graph t = binary_tree(15);
  EXPECT_EQ(t.edge_count(), 14u);
  EXPECT_EQ(girth(t), -1);
  EXPECT_TRUE(is_connected(t));

  const Graph c = caterpillar(4, 2);
  EXPECT_EQ(c.node_count(), 12u);
  EXPECT_EQ(c.edge_count(), 11u);
  EXPECT_TRUE(is_connected(c));
}

TEST(Generators, Petersen) {
  const Graph g = petersen();
  EXPECT_EQ(g.node_count(), 10u);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(g.min_degree(), 3u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(girth(g), 5);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, RandomRegularIsRegularAndSimple) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph g = random_regular(24, 3, seed);
    EXPECT_EQ(g.node_count(), 24u);
    EXPECT_EQ(g.min_degree(), 3u);
    EXPECT_EQ(g.max_degree(), 3u);
  }
}

TEST(Generators, GnpBoundedRespectsCap) {
  const Graph g = gnp_bounded(60, 0.2, 4, 7);
  EXPECT_LE(g.max_degree(), 4u);
  EXPECT_EQ(g.node_count(), 60u);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed : {11ull, 12ull}) {
    const Graph g = random_tree(40, seed);
    EXPECT_EQ(g.edge_count(), 39u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeBoundedRespectsDegree) {
  const Graph g = random_tree_bounded(50, 3, 5);
  EXPECT_EQ(g.edge_count(), 49u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 3u);
}

TEST(Ball, RadiusZeroIsJustTheCenter) {
  const Graph g = cycle(9);
  const BallView ball(g, 4, 0);
  EXPECT_EQ(ball.size(), 1u);
  EXPECT_EQ(ball.to_original(0), 4u);
  EXPECT_TRUE(ball.neighbors(0).empty());
}

TEST(Ball, PaperEdgeRuleOnCycle) {
  // B(v, t) on a cycle: path of 2t+1 nodes; the two distance-t endpoints
  // keep only their edge toward distance t-1.
  const Graph g = cycle(11);
  const BallView ball(g, 5, 2);
  EXPECT_EQ(ball.size(), 5u);
  int boundary_nodes = 0;
  for (NodeId i = 0; i < ball.size(); ++i) {
    if (ball.distance(i) == 2) {
      ++boundary_nodes;
      EXPECT_EQ(ball.degree_in_ball(i), 1u);
      EXPECT_EQ(ball.host_degree(i), 2u);
    }
  }
  EXPECT_EQ(boundary_nodes, 2);
}

TEST(Ball, BoundaryEdgesExcludedOnCompleteGraph) {
  // In K_5, B(v, 1) contains all nodes; the 4 boundary nodes are pairwise
  // adjacent in the host but those edges are NOT part of the ball.
  const Graph g = complete(5);
  const BallView ball(g, 0, 1);
  EXPECT_EQ(ball.size(), 5u);
  for (NodeId i = 1; i < ball.size(); ++i) {
    EXPECT_EQ(ball.distance(i), 1);
    ASSERT_EQ(ball.degree_in_ball(i), 1u);
    EXPECT_EQ(ball.neighbors(i)[0], 0u);  // only the center
  }
  EXPECT_EQ(ball.degree_in_ball(0), 4u);
}

TEST(Ball, InteriorEdgesKept) {
  // Triangle edge between two distance-1 nodes in a radius-2 ball stays.
  Graph::Builder b;
  b.add_edge(0, 1).add_edge(0, 2).add_edge(1, 2).add_edge(1, 3);
  const Graph g = b.build();
  const BallView ball(g, 0, 2);
  // Locals: 0 -> center; find locals of 1 and 2.
  NodeId l1 = kInvalidNode;
  NodeId l2 = kInvalidNode;
  for (NodeId i = 0; i < ball.size(); ++i) {
    if (ball.to_original(i) == 1) l1 = i;
    if (ball.to_original(i) == 2) l2 = i;
  }
  ASSERT_NE(l1, kInvalidNode);
  ASSERT_NE(l2, kInvalidNode);
  const auto nbrs = ball.neighbors(l1);
  EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), l2) != nbrs.end());
}

TEST(Ball, SignatureDistinguishesStructures) {
  const Graph c = cycle(9);
  const Graph p = path(9);
  const BallView b1(c, 4, 2);
  const BallView b2(p, 4, 2);  // interior of path: same as cycle ball
  const BallView b3(p, 0, 2);  // endpoint: different structure
  EXPECT_EQ(b1.structure_signature(), b2.structure_signature());
  EXPECT_NE(b1.structure_signature(), b3.structure_signature());
}

TEST(Ball, ScratchReuseIsBitIdenticalToFreshConstruction) {
  // One workspace re-collected across graphs of different sizes, centers,
  // and radii must reproduce the freshly constructed ball exactly — the
  // contract that lets the Monte-Carlo runners keep a per-worker scratch
  // warm across trials.
  const Graph graphs[] = {cycle(17), path(9), complete(6), grid(4, 5)};
  BallView reused;
  BallScratch scratch;
  for (const Graph& g : graphs) {
    for (int radius : {0, 1, 2, 4}) {
      for (NodeId center = 0; center < g.node_count(); center += 3) {
        const BallView fresh(g, center, radius);
        reused.collect(g, center, radius, scratch);
        ASSERT_EQ(fresh.size(), reused.size());
        ASSERT_TRUE(std::equal(fresh.members().begin(),
                               fresh.members().end(),
                               reused.members().begin()));
        for (NodeId i = 0; i < fresh.size(); ++i) {
          ASSERT_EQ(fresh.distance(i), reused.distance(i));
          ASSERT_EQ(fresh.host_degree(i), reused.host_degree(i));
          const auto want = fresh.neighbors(i);
          const auto got = reused.neighbors(i);
          ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                                 got.end()));
        }
        ASSERT_EQ(fresh.structure_signature(),
                  reused.structure_signature());
        ASSERT_EQ(fresh.encoded_words(), reused.encoded_words());
      }
    }
  }
}

void expect_same_ball(const BallView& want, const BallView& got) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.radius(), got.radius());
  ASSERT_TRUE(std::equal(want.members().begin(), want.members().end(),
                         got.members().begin()));
  for (NodeId i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.distance(i), got.distance(i));
    ASSERT_EQ(want.host_degree(i), got.host_degree(i));
    const auto a = want.neighbors(i);
    const auto b = got.neighbors(i);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  ASSERT_EQ(want.encoded_words(), got.encoded_words());
  ASSERT_EQ(want.structure_signature(), got.structure_signature());
}

TEST(BallAtlas, EveryBallMatchesAFreshCollection) {
  // The topology families of tests/topology_test.cpp, materialized.
  const std::vector<std::pair<const char*, scenario::ParamMap>> families = {
      {"ring", {}},
      {"path", {}},
      {"grid", {{"random-ids", 0}}},
      {"torus", {{"random-ids", 0}}},
      {"hypercube", {{"random-ids", 0}}},
      {"binary-tree", {{"random-ids", 0}}},
      {"random-regular", {{"random-ids", 0}}},
      {"gnp", {{"random-ids", 0}}},
  };
  for (const auto& [name, params] : families) {
    const scenario::TopologyEntry* entry = scenario::topologies().find(name);
    ASSERT_NE(entry, nullptr) << name;
    const Graph g = entry->build(64, scenario::merged_params(entry->schema,
                                                             params),
                                 rand::mix_keys(1, 64))
                        .g;
    for (int radius = 0; radius <= 4; ++radius) {
      const auto built = BallAtlas::build(g, radius);
      ASSERT_NE(built, nullptr) << name;
      const BallAtlas& atlas = *built;
      ASSERT_EQ(atlas.size(), g.node_count()) << name;
      EXPECT_EQ(atlas.radius(), radius);
      EXPECT_GT(atlas.bytes(), 0u);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        SCOPED_TRACE(std::string(name) + " r=" + std::to_string(radius) +
                     " v=" + std::to_string(v));
        expect_same_ball(BallView(g, v, radius), atlas.ball(v));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(Graph, UidIsPerBuildSharedByCopies) {
  EXPECT_EQ(Graph().uid(), 0u);
  Graph a = cycle(8);
  const Graph b = cycle(8);
  EXPECT_NE(a.uid(), 0u);
  EXPECT_NE(a.uid(), b.uid());  // same structure, separate builds
  const Graph copy = a;
  EXPECT_EQ(copy.uid(), a.uid());
  const std::uint64_t uid = a.uid();
  const Graph moved = std::move(a);
  EXPECT_EQ(moved.uid(), uid);
}

TEST(BallAtlasCache, BuildsOnASecondRequesterOnly) {
  const Graph g = cycle(12);
  BallAtlasCache cache;
  EXPECT_EQ(cache.find(g, 1, 0), nullptr);  // first request: collect
  EXPECT_EQ(cache.find(g, 1, 0), nullptr);  // same requester again
  EXPECT_EQ(cache.atlas_count(), 0u);
  const BallAtlas* atlas = cache.find(g, 1, 1);
  ASSERT_NE(atlas, nullptr);
  EXPECT_EQ(atlas->radius(), 1);
  EXPECT_EQ(cache.find(g, 1, 0), atlas);  // kept, and stable
  EXPECT_EQ(cache.find(Graph(g), 1, 7), atlas);  // copies share the uid
  EXPECT_EQ(cache.find(g, 2, 0), nullptr);  // radius is part of the key
  EXPECT_EQ(cache.find(cycle(12), 1, 5), nullptr);  // new build, new key
  EXPECT_EQ(cache.find(Graph(), 1, 0), nullptr);  // no uid, no atlas
  EXPECT_EQ(cache.find(Graph(), 1, 1), nullptr);
  EXPECT_EQ(cache.atlas_count(), 1u);
}

TEST(BallAtlasCache, DeclinesAtlasesOverTheByteBudget) {
  // Even the views alone of this path exceed the budget, so the key is
  // declined without collecting anything, and stays declined.
  const auto n = static_cast<NodeId>(BallAtlasCache::kBudgetBytes /
                                         sizeof(BallView) +
                                     1);
  const Graph g = path(n);
  BallAtlasCache cache;
  EXPECT_EQ(cache.find(g, 0, 0), nullptr);
  EXPECT_EQ(cache.find(g, 0, 1), nullptr);
  EXPECT_EQ(cache.find(g, 0, 2), nullptr);
  EXPECT_EQ(cache.atlas_count(), 0u);
}

TEST(BallAtlas, BuildStopsAtTheFirstBallOverBudget) {
  const Graph g = cycle(12);
  const auto full = BallAtlas::build(g, 2);
  ASSERT_NE(full, nullptr);
  EXPECT_NE(BallAtlas::build(g, 2, full->bytes()), nullptr);
  EXPECT_EQ(BallAtlas::build(g, 2, full->bytes() - 1), nullptr);
  EXPECT_EQ(BallAtlas::build(g, 2, 0), nullptr);
}

// Peak resident set of this process, in bytes.
std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

TEST(BallAtlasCache, DeclinesBallsOverBudgetWithoutCollectingThemAll) {
  // The 4096 view headers of this hypercube fit in a 1 MiB budget, but
  // its radius-4 balls (794 members each) take about 170 MB in all. The
  // build must give up within the budget instead of collecting every ball
  // first and checking the total afterwards.
  const Graph g = hypercube(12);
  constexpr std::size_t kBudget = std::size_t{1} << 20;
  ASSERT_LE(std::size_t{g.node_count()} * sizeof(BallView), kBudget);
  BallAtlasCache cache(kBudget);
  const std::size_t peak_before = peak_rss_bytes();
  EXPECT_EQ(cache.find(g, 4, 0), nullptr);  // first request: collect
  EXPECT_EQ(cache.find(g, 4, 1), nullptr);  // declined
  EXPECT_EQ(cache.find(g, 4, 2), nullptr);  // and stays declined
  EXPECT_EQ(cache.atlas_count(), 0u);
  EXPECT_LT(peak_rss_bytes() - peak_before, std::size_t{32} << 20);
  // The same graph at radius 0 fits, and is kept.
  EXPECT_EQ(cache.find(g, 0, 0), nullptr);
  EXPECT_NE(cache.find(g, 0, 1), nullptr);
  EXPECT_EQ(cache.atlas_count(), 1u);
}

TEST(Ops, DisjointUnion) {
  const Graph a = cycle(4);
  const Graph b = path(3);
  const UnionResult u = disjoint_union({&a, &b});
  EXPECT_EQ(u.graph.node_count(), 7u);
  EXPECT_EQ(u.graph.edge_count(), 6u);
  EXPECT_EQ(component_count(u.graph), 2u);
  EXPECT_EQ(u.offsets[0], 0u);
  EXPECT_EQ(u.offsets[1], 4u);
  EXPECT_TRUE(u.graph.has_edge(4, 5));  // path edge shifted by 4
}

TEST(Ops, SubdivideEdgeTwice) {
  const Graph g = cycle(5);
  const DoubleSubdivision s = subdivide_edge_twice(g, 0, 1);
  EXPECT_EQ(s.graph.node_count(), 7u);
  EXPECT_EQ(s.graph.edge_count(), 7u);
  EXPECT_FALSE(s.graph.has_edge(0, 1));
  EXPECT_TRUE(s.graph.has_edge(0, s.first));
  EXPECT_TRUE(s.graph.has_edge(s.first, s.second));
  EXPECT_TRUE(s.graph.has_edge(s.second, 1));
  EXPECT_TRUE(is_connected(s.graph));
  EXPECT_EQ(diameter(s.graph), diameter(g) + 1);
}

TEST(Ops, RelabelPreservesStructure) {
  const Graph g = path(4);  // 0-1-2-3
  const Graph r = relabel(g, {3, 2, 1, 0});
  EXPECT_TRUE(r.has_edge(3, 2));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_EQ(r.edge_count(), 3u);
}

TEST(Metrics, BfsAndDistance) {
  const Graph g = cycle(10);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[5], 5);
  EXPECT_EQ(dist[9], 1);
  EXPECT_EQ(distance(g, 0, 5), 5);
  EXPECT_EQ(eccentricity(g, 0), 5);
}

TEST(Metrics, DisconnectedDiameter) {
  Graph::Builder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = b.build();
  EXPECT_EQ(diameter(g), -1);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(component_count(g), 2u);
}

TEST(Metrics, ArticulationPoints) {
  // Two triangles sharing node 2: node 2 is the only cut vertex.
  Graph::Builder b;
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  b.add_edge(2, 3).add_edge(3, 4).add_edge(2, 4);
  const Graph g = b.build();
  const auto cuts = articulation_points(g);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], 2u);
  EXPECT_FALSE(is_biconnected(g));
  EXPECT_TRUE(is_biconnected(cycle(6)));
  EXPECT_FALSE(is_biconnected(path(6)));
}

TEST(Metrics, ScatteredNodesRespectSeparation) {
  const Graph g = cycle(30);
  const auto nodes = scattered_nodes(g, 5, 100);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      EXPECT_GT(distance(g, nodes[i], nodes[j]), 5);
    }
  }
  EXPECT_GE(nodes.size(), 4u);  // 30 / 6 = 5 fit greedily
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = petersen();
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(g, back);
}

TEST(Io, EdgeListRejectsMalformed) {
  std::stringstream missing("3");
  EXPECT_THROW(read_edge_list(missing), std::runtime_error);
  std::stringstream range("2 1\n0 5\n");
  EXPECT_THROW(read_edge_list(range), std::runtime_error);
  std::stringstream loop("2 1\n1 1\n");
  EXPECT_THROW(read_edge_list(loop), std::runtime_error);
}

TEST(Io, DotContainsNodesAndEdges) {
  std::ostringstream os;
  write_dot(os, path(3), {"a", "b", "c"});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"b\""), std::string::npos);
}

}  // namespace
}  // namespace lnc::graph
