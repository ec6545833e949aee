// Tests for src/core: the Theorem-1 glue's structural invariants, the
// boosting-parameter formulas, hard-instance generation, Claim-4/5
// verification machinery, and the order-invariance checker.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "algo/order_invariant.h"
#include "algo/rand_coloring.h"
#include "core/boost_params.h"
#include "core/critical_strings.h"
#include "core/glue.h"
#include "core/hard_instances.h"
#include "core/order_check.h"
#include "decide/resilient_decider.h"
#include "graph/metrics.h"
#include "lang/coloring.h"
#include "lang/relax.h"

namespace lnc::core {
namespace {

TEST(BoostParams, FormulasMatchTheirDefinitions) {
  BoostParameters params;
  params.r = 0.9;
  params.p = 0.7;
  params.beta = 0.1;
  params.t = 0;
  params.t_prime = 1;
  ASSERT_TRUE(params.valid());

  // mu = ceil(1 / 0.4) = 3; D = 2 * 3 * 1 = 6.
  EXPECT_EQ(params.mu(), 3u);
  EXPECT_EQ(params.min_diameter(), 6u);

  // nu = 1 + ceil( ln(0.63) / ln(0.93) ).
  const auto expected_nu = 1 + static_cast<std::uint64_t>(std::ceil(
                                   std::log(0.9 * 0.7) / std::log(1 - 0.07)));
  EXPECT_EQ(params.nu(), expected_nu);

  // The bounds decay geometrically and eventually beat r.
  EXPECT_LT(params.disjoint_acceptance_bound(params.nu()) / params.p,
            params.r);
  EXPECT_LT(params.glued_acceptance_bound(params.nu_prime()), params.r);
  EXPECT_GT(params.disjoint_acceptance_bound(1),
            params.disjoint_acceptance_bound(2));
}

TEST(BoostParams, MuPigeonhole) {
  // Strict inequality holds unless 1/(2p-1) is an exact integer.
  EXPECT_TRUE(mu_pigeonhole_holds(0.7));   // 1/0.4 = 2.5 -> mu 3
  EXPECT_FALSE(mu_pigeonhole_holds(0.75));  // 1/0.5 = 2 exactly (boundary)
  EXPECT_FALSE(mu_pigeonhole_holds(0.5));
  EXPECT_TRUE(mu_pigeonhole_holds(0.618));
}

TEST(BoostParams, OrderInvariantCountMatchesEnumeration) {
  // t = 1, palette 3 on rings: 3^(3!) = 729 — small enough to enumerate.
  EXPECT_EQ(order_invariant_algorithm_count_ring(1, 3), 729u);
  EXPECT_EQ(order_invariant_algorithm_count_ring(0, 2), 2u);
  // t = 2: 5! = 120 patterns, 3^120 saturates.
  EXPECT_EQ(order_invariant_algorithm_count_ring(2, 3),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(BoostParams, Radius1BallCensus) {
  // Radius-1 balls under the paper's edge rule are stars K_{1,d}.
  EXPECT_EQ(radius1_ball_shape_count(3), 4u);
  // k = 0: only label 0 exists (the empty string); only the isolated
  // center: 1 label pair * 1 multiset.
  EXPECT_EQ(label_value_count(0), 1u);
  EXPECT_EQ(labeled_radius1_ball_count(0), 1u);
  EXPECT_EQ(ordered_labeled_radius1_ball_count(0), 1u);
  // k = 1: 3 label values (empty, "0", "1"), 9 pairs; degrees 0 and 1:
  // 9 * (1 + 9) = 90 labeled balls; orderings: 9*1*1! + 9*9*2! = 171.
  EXPECT_EQ(label_value_count(1), 3u);
  EXPECT_EQ(labeled_radius1_ball_count(1), 90u);
  EXPECT_EQ(ordered_labeled_radius1_ball_count(1), 9u + 81u * 2u);
  // k = 2: 7 values, 49 pairs; 49*(1 + 49 + C(50,2)) = 49*1275 = 62475.
  EXPECT_EQ(labeled_radius1_ball_count(2), 62475u);
  // The census grows monotonically in k and saturates eventually.
  EXPECT_LT(labeled_radius1_ball_count(2), labeled_radius1_ball_count(3));
  EXPECT_EQ(labeled_radius1_ball_count(40),
            std::numeric_limits<std::uint64_t>::max());
  // From k = 32 on the (input, output) pair count itself saturates; the
  // multiset count over that alphabet must saturate too, not wrap to a
  // zero divisor.
  EXPECT_EQ(labeled_radius1_ball_count(32),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ordered_labeled_radius1_ball_count(40),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HardInstances, ConsecutiveRingShape) {
  const local::Instance inst = consecutive_ring(10, 100);
  EXPECT_EQ(inst.node_count(), 10u);
  EXPECT_EQ(inst.ids[0], 100u);
  EXPECT_EQ(inst.ids[9], 109u);
  EXPECT_EQ(graph::diameter(inst.g), 5);
}

TEST(HardInstances, Claim2SequenceDisjointIncreasingIds) {
  const auto instances = claim2_sequence(4, 6, 50);
  ASSERT_EQ(instances.size(), 4u);
  ident::Identity prev_max = 0;
  for (const auto& inst : instances) {
    EXPECT_GE(graph::diameter(inst.g), 6);
    EXPECT_GT(inst.ids.min_identity(), prev_max);
    prev_max = inst.ids.max_identity();
  }
  EXPECT_GE(instances[0].ids.min_identity(), 50u);
}

TEST(HardInstances, BetaIsPositiveForRandomColoringOnResilientLanguage) {
  // The zero-round uniform coloring fails the 1-resilient 3-coloring on a
  // decently sized ring with probability bounded away from 0 — the
  // empirical Claim-2 beta.
  const lang::ProperColoring base(3);
  const lang::FResilient relaxed(base, 1);
  const algo::UniformRandomColoring coloring(3);
  const local::Instance inst = consecutive_ring(30);
  const stats::Estimate beta =
      estimate_beta(inst, coloring, relaxed, 2000, 77);
  EXPECT_GT(beta.ci.lo, 0.5);  // C30 random 3-coloring: >1 clash is typical
}

TEST(Glue, StructuralInvariants) {
  const auto parts = claim2_sequence(3, 4);
  const std::vector<graph::NodeId> anchors = {0, 0, 0};
  const GluedInstance glued = theorem1_glue(parts, anchors);

  // Node count: originals + 2 inserted per part.
  graph::NodeId expected = 0;
  for (const auto& part : parts) expected += part.node_count();
  expected += 2 * 3;
  EXPECT_EQ(glued.instance.node_count(), expected);

  // Connected, degree preserved at max(k, 3) = 3 for rings.
  EXPECT_TRUE(graph::is_connected(glued.instance.g));
  EXPECT_LE(glued.instance.g.max_degree(), 3u);

  // Section 5: the construction preserves 2-connectivity (rings are
  // biconnected, so the glue must be too).
  EXPECT_TRUE(graph::is_biconnected(glued.instance.g));

  // Identities: originals keep theirs; inserted nodes sit above them all.
  ident::Identity max_original = 0;
  for (const auto& part : parts) {
    max_original = std::max(max_original, part.ids.max_identity());
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (graph::NodeId v = 0; v < parts[i].node_count(); ++v) {
      EXPECT_EQ(glued.instance.ids[glued.to_glued(i, v)], parts[i].ids[v]);
    }
    EXPECT_GT(glued.instance.ids[glued.v_nodes[i]], max_original);
    EXPECT_GT(glued.instance.ids[glued.w_nodes[i]], max_original);
  }

  // The linking edges exist and the subdivided edge is gone.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(glued.instance.g.has_edge(glued.v_nodes[i],
                                          glued.w_nodes[(i + 1) % 3]));
    const graph::NodeId u = glued.anchors[i];
    const graph::NodeId z = glued.to_glued(i, parts[i].g.neighbors(0)[0]);
    EXPECT_FALSE(glued.instance.g.has_edge(u, z));
    EXPECT_TRUE(glued.instance.g.has_edge(u, glued.v_nodes[i]));
    EXPECT_TRUE(glued.instance.g.has_edge(glued.v_nodes[i],
                                          glued.w_nodes[i]));
    EXPECT_TRUE(glued.instance.g.has_edge(glued.w_nodes[i], z));
  }
}

TEST(Glue, PreservesBallsAwayFromTheSeam) {
  // A node far from its part's anchor sees the same ball in H_i and in G —
  // the key fact ("each of the nodes in these sets cannot distinguish an
  // instance on Hi from an instance on G").
  const auto parts = claim2_sequence(2, 8);
  const std::vector<graph::NodeId> anchors = {0, 0};
  const GluedInstance glued = theorem1_glue(parts, anchors);

  const graph::NodeId far_node = parts[0].node_count() / 2;  // antipodal
  const int radius = 2;
  const graph::BallView before(parts[0].g, far_node, radius);
  const graph::BallView after(glued.instance.g, glued.to_glued(0, far_node),
                              radius);
  ASSERT_EQ(before.size(), after.size());
  // Same identities in the same BFS discovery order.
  for (graph::NodeId local = 0; local < before.size(); ++local) {
    EXPECT_EQ(parts[0].ids[before.to_original(local)],
              glued.instance.ids[after.to_original(local)]);
  }
  EXPECT_EQ(before.structure_signature(), after.structure_signature());
}

TEST(Glue, DisjointUnionKeepsParts) {
  const auto parts = claim2_sequence(3, 3);
  const GluedInstance u = disjoint_union_instances(parts);
  EXPECT_EQ(graph::component_count(u.instance.g), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (graph::NodeId v = 0; v < parts[i].node_count(); ++v) {
      EXPECT_EQ(u.instance.ids[u.to_glued(i, v)], parts[i].ids[v]);
    }
  }
}

TEST(Glue, RejectsOverlappingIdentities) {
  std::vector<local::Instance> parts;
  parts.push_back(consecutive_ring(6, 1));
  parts.push_back(consecutive_ring(6, 3));  // overlaps 3..6
  EXPECT_DEATH(theorem1_glue(parts, std::vector<graph::NodeId>{0, 0}),
               "disjoint");
}

TEST(CriticalStrings, FixedConstructionIsDeterministic) {
  const algo::UniformRandomColoring coloring(3);
  const local::Instance inst = consecutive_ring(12);
  const local::Labeling a = run_fixed_construction(inst, coloring, 42);
  const local::Labeling b = run_fixed_construction(inst, coloring, 42);
  EXPECT_EQ(a, b);
  const local::Labeling c = run_fixed_construction(inst, coloring, 43);
  EXPECT_NE(a, c);
}

TEST(CriticalStrings, DisjointnessOnScatteredSet) {
  // Small end-to-end run of the Claim-4 bookkeeping: fix sigma so that
  // C_sigma fails, scatter S, sample decision strings, and check the
  // geometric disjointness the proof relies on.
  const lang::ProperColoring base(3);
  const lang::FResilient relaxed(base, 1);
  const algo::UniformRandomColoring coloring(3);
  const decide::ResilientDecider decider(base, 1);
  const local::Instance inst = consecutive_ring(40);

  // Find a failing sigma (beta > 0 makes this quick).
  std::uint64_t sigma = 0;
  local::Labeling output;
  for (std::uint64_t candidate = 1; candidate < 50; ++candidate) {
    output = run_fixed_construction(inst, coloring, candidate);
    if (!relaxed.contains(inst, output)) {
      sigma = candidate;
      break;
    }
  }
  ASSERT_NE(sigma, 0u);

  const int exclusion = decider.radius() + coloring.radius();  // t + t'
  const auto scattered =
      graph::scattered_nodes(inst.g, 2 * exclusion, 4);
  ASSERT_GE(scattered.size(), 2u);

  const CriticalStringsReport report = verify_critical_strings(
      inst, output, decider, scattered, exclusion, 500, 5);
  EXPECT_TRUE(report.disjointness_holds());
  EXPECT_EQ(report.trials, 500u);
}

TEST(OrderCheck, WrapperPassesIdReaderFails) {
  class IdReader final : public local::BallAlgorithm {
   public:
    std::string name() const override { return "id-reader"; }
    int radius() const override { return 1; }
    local::Label compute(const local::View& view) const override {
      return view.identity(0) % 5;
    }
  };
  const IdReader raw;
  const algo::OrderInvariantWrapper wrapped(raw);
  const local::Instance inst = consecutive_ring(12);

  OrderCheckOptions options;
  options.trials = 16;
  const OrderInvarianceReport raw_report =
      check_order_invariance(inst, raw, options);
  EXPECT_GT(raw_report.violations, 0u);

  const OrderInvarianceReport wrapped_report =
      check_order_invariance(inst, wrapped, options);
  EXPECT_TRUE(wrapped_report.invariant());
}

TEST(OrderCheck, RankPatternAlgorithmsAreOrderInvariant) {
  // Every table-based ring algorithm is order-invariant by construction.
  const auto tables = algo::enumerate_tables(3, 3, 100, 3);
  const local::Instance inst = consecutive_ring(10);
  for (const auto& table : tables) {
    const algo::RankPatternRingAlgorithm alg(1, table);
    const OrderInvarianceReport report = check_order_invariance(inst, alg);
    EXPECT_TRUE(report.invariant());
  }
}

}  // namespace
}  // namespace lnc::core
