// Tests for src/decide: LD deciders, the amos golden-ratio decider, the
// f-resilient decider of Corollary 1, the BPLD#node slack decider, the
// far-from-u evaluation device, the verdict-only accepts(), and guarantee
// measurement.
#include <gtest/gtest.h>

#include <cmath>

#include "decide/amos_decider.h"
#include "decide/evaluate.h"
#include "decide/guarantee.h"
#include "decide/lcl_decider.h"
#include "decide/resilient_decider.h"
#include "decide/slack_decider.h"
#include "fault/fault.h"
#include "graph/ball_atlas.h"
#include "graph/generators.h"
#include "lang/amos.h"
#include "lang/coloring.h"
#include "rand/splitmix.h"
#include "util/math.h"

namespace lnc::decide {
namespace {

local::Instance ring_instance(graph::NodeId n) {
  return local::make_instance(graph::cycle(n), ident::consecutive(n));
}

TEST(LclDecider, AcceptsExactlyMembers) {
  const lang::ProperColoring lang(3);
  const LclDecider decider(lang);
  const local::Instance inst = ring_instance(6);
  const local::Labeling proper = {0, 1, 0, 1, 0, 1};
  const local::Labeling clash = {0, 0, 1, 0, 1, 2};
  EXPECT_TRUE(evaluate(inst, proper, decider).accepted);
  const DecisionOutcome bad = evaluate(inst, clash, decider);
  EXPECT_FALSE(bad.accepted);
  // The rejecting set is exactly the bad-ball centers.
  EXPECT_EQ(bad.rejecting, lang.bad_ball_centers(inst, clash));
}

TEST(LclDecider, OneSidedNoFalseRejects) {
  // On members, EVERY node accepts — the LD guarantee is one-sided and
  // deterministic (no probability involved).
  const lang::ProperColoring lang(3);
  const LclDecider decider(lang);
  for (graph::NodeId n : {4u, 9u, 12u}) {
    const local::Instance inst = ring_instance(n);
    local::Labeling y(n);
    for (graph::NodeId v = 0; v < n; ++v) y[v] = v % 2;
    if (n % 2 == 1) y[n - 1] = 2;
    ASSERT_TRUE(lang.contains(inst, y));
    EXPECT_TRUE(evaluate(inst, y, decider).accepted);
  }
}

TEST(AmosDecider, DefaultsToGoldenRatio) {
  const AmosDecider decider;
  EXPECT_NEAR(decider.p(), util::golden_ratio_guarantee(), 1e-12);
  EXPECT_NEAR(decider.guarantee(), util::golden_ratio_guarantee(), 1e-12);
}

TEST(AmosDecider, AlwaysAcceptsZeroSelected) {
  const AmosDecider decider;
  const local::Instance inst = ring_instance(8);
  const local::Labeling none(8, 0);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
    EXPECT_TRUE(evaluate(inst, none, decider, coins).accepted);
  }
}

TEST(AmosDecider, MeetsGuaranteeOnBothSides) {
  const AmosDecider decider;
  const local::Instance inst = ring_instance(10);

  // Yes side: one selected node.
  auto yes_sampler = [&](std::uint64_t seed) {
    SampledConfiguration sample{ring_instance(10), local::Labeling(10, 0), {}};
    sample.output[seed % 10] = lang::Amos::kSelected;
    return sample;
  };
  // No side: two selected nodes.
  auto no_sampler = [&](std::uint64_t seed) {
    SampledConfiguration sample{ring_instance(10), local::Labeling(10, 0), {}};
    sample.output[seed % 10] = lang::Amos::kSelected;
    sample.output[(seed % 10 + 5) % 10] = lang::Amos::kSelected;
    return sample;
  };
  GuaranteeOptions options;
  options.trials = 4000;
  const GuaranteeReport report =
      measure_guarantee(decider, yes_sampler, no_sampler, options);
  EXPECT_TRUE(report.meets_bpld_bar());
  // Pr[all accept | 1 selected] = p ~ 0.618.
  EXPECT_NEAR(report.accept_on_yes.p_hat, decider.p(), 0.03);
  // Pr[some reject | 2 selected] = 1 - p^2 ~ 0.618.
  EXPECT_NEAR(report.reject_on_no.p_hat, 1.0 - decider.p() * decider.p(),
              0.03);
}

TEST(ResilientDecider, AdmissibleIntervalMatchesPaper) {
  // (2^{-1/f}, 2^{-1/(f+1)}) — the paper writes it as
  // (e^{-ln2/f}, e^{-ln2/(f+1)}).
  const util::Interval iv = ResilientDecider::admissible_interval(2);
  EXPECT_NEAR(iv.lo, std::exp(-std::log(2.0) / 2.0), 1e-12);
  EXPECT_NEAR(iv.hi, std::exp(-std::log(2.0) / 3.0), 1e-12);
  const double p = ResilientDecider::default_p(2);
  EXPECT_GT(p, iv.lo);
  EXPECT_LT(p, iv.hi);
}

TEST(ResilientDecider, GuaranteeExceedsHalfForAllF) {
  const lang::ProperColoring base(3);
  for (std::size_t f = 1; f <= 10; ++f) {
    const ResilientDecider decider(base, f);
    EXPECT_GT(decider.guarantee(), 0.5) << "f=" << f;
  }
}

TEST(ResilientDecider, AcceptsGoodBallsDeterministically) {
  const lang::ProperColoring base(3);
  const ResilientDecider decider(base, 2);
  const local::Instance inst = ring_instance(6);
  const local::Labeling proper = {0, 1, 0, 1, 0, 1};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
    EXPECT_TRUE(evaluate(inst, proper, decider, coins).accepted);
  }
}

TEST(ResilientDecider, MeetsEqOneBothSides) {
  const lang::ProperColoring base(3);
  const std::size_t f = 2;
  const ResilientDecider decider(base, f);
  const graph::NodeId n = 12;

  // Yes: exactly one monochromatic edge => 2 bad balls <= f. The base
  // pattern has its single clash at (0,1); rotating it keeps the count
  // (rings are vertex-transitive).
  const local::Labeling one_clash = {0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2};
  auto rotate = [n](const local::Labeling& base, graph::NodeId r) {
    local::Labeling y(n);
    for (graph::NodeId v = 0; v < n; ++v) y[(v + r) % n] = base[v];
    return y;
  };
  auto yes_sampler = [&](std::uint64_t seed) {
    return SampledConfiguration{
        ring_instance(n),
        rotate(one_clash, static_cast<graph::NodeId>(seed % n)), {}};
  };
  // No: two monochromatic edges => 4 bad balls > f.
  const local::Labeling two_clashes = {0, 0, 1, 0, 1, 2, 0, 0, 1, 0, 1, 2};
  auto no_sampler = [&](std::uint64_t seed) {
    return SampledConfiguration{
        ring_instance(n),
        rotate(two_clashes, static_cast<graph::NodeId>(seed % n)), {}};
  };
  GuaranteeOptions options;
  options.trials = 4000;
  const GuaranteeReport report =
      measure_guarantee(decider, yes_sampler, no_sampler, options);
  EXPECT_TRUE(report.meets_bpld_bar());
  // Theory: accept-on-yes = p^2, reject-on-no = 1 - p^4.
  EXPECT_NEAR(report.accept_on_yes.p_hat, std::pow(decider.p(), 2), 0.03);
  EXPECT_NEAR(report.reject_on_no.p_hat, 1.0 - std::pow(decider.p(), 4),
              0.03);
}

TEST(SlackDecider, RequiresKnowledgeOfN) {
  const lang::ProperColoring base(3);
  const SlackDecider decider(base, 0.25);
  const local::Instance inst = ring_instance(8);
  const local::Labeling y = {0, 0, 1, 0, 1, 0, 1, 2};
  const rand::PhiloxCoins coins(3, rand::Stream::kDecision);
  EvaluateOptions options;
  options.grant_n = true;  // without this the decider traps
  const DecisionOutcome outcome = evaluate(inst, y, decider, coins, options);
  (void)outcome;  // any verdict is fine; the point is it ran with n granted
  EXPECT_GT(decider.p_for(100), decider.p_for(10));
}

TEST(FarFrom, RestrictsVerdictsToDistantNodes) {
  const lang::ProperColoring lang(3);
  const LclDecider decider(lang);
  const graph::NodeId n = 16;
  const local::Instance inst = ring_instance(n);
  // Single clash at the edge (0, 1): bad balls at nodes 0 and 1 only.
  const local::Labeling y = {0, 0, 1, 0, 1, 0, 1, 0,
                             1, 0, 1, 0, 1, 0, 1, 2};
  ASSERT_FALSE(evaluate(inst, y, decider).accepted);

  // Far from node 0 with radius 2: both rejecting nodes are inside the
  // exclusion ball, so the restricted run ACCEPTS.
  EvaluateOptions far_options;
  far_options.far_from = FarFrom{0, 2};
  EXPECT_TRUE(evaluate(inst, y, decider, far_options).accepted);

  // Far from the antipodal node 8: the rejections count again.
  far_options.far_from = FarFrom{8, 2};
  EXPECT_FALSE(evaluate(inst, y, decider, far_options).accepted);
}

TEST(FarFrom, UnreachableNodesAlwaysCount) {
  // On a disconnected configuration, nodes in the other component are at
  // infinite distance from u, hence always outside the exclusion ball.
  const lang::ProperColoring lang(3);
  const LclDecider decider(lang);
  graph::Graph::Builder b(8);
  for (graph::NodeId i = 0; i < 3; ++i) b.add_edge(i, (i + 1) % 4);
  b.add_edge(3, 0);
  for (graph::NodeId i = 4; i < 7; ++i) b.add_edge(i, i + 1);
  b.add_edge(7, 4);
  const local::Instance inst =
      local::make_instance(b.build(), ident::consecutive(8));
  // Clash inside the SECOND component.
  const local::Labeling y = {0, 1, 0, 1, 0, 0, 1, 2};
  EvaluateOptions options;
  options.far_from = FarFrom{0, 3};  // u in the FIRST component
  const DecisionOutcome outcome = evaluate(inst, y, decider, options);
  EXPECT_FALSE(outcome.accepted);  // the far clash still counts
}

// Attaches `cache` to `workspace` so that its runs at `radius` over g read
// an atlas: the cache builds one for the second requester of a key.
void attach_atlas(local::BallWorkspace& workspace,
                  graph::BallAtlasCache& cache, const graph::Graph& g,
                  int radius) {
  workspace.attach(&cache, 0);
  ASSERT_EQ(workspace.atlas(g, radius), nullptr);
  workspace.attach(&cache, 1);
  ASSERT_NE(workspace.atlas(g, radius), nullptr);
}

TEST(Accepts, MatchesEvaluateWithAndWithoutAnAtlas) {
  const lang::ProperColoring coloring(3);
  const AmosDecider amos;                         // radius 0
  const ResilientDecider resilient(coloring, 1);  // radius 1
  // Both graphs are properly 2-colored by v % 2 (the grid's width is odd).
  const std::vector<local::Instance> instances = {
      ring_instance(24),
      local::make_instance(graph::grid(5, 5), ident::consecutive(25))};
  rand::SplitMix64 rng(2026);
  for (const local::Instance& inst : instances) {
    for (const RandomizedDecider* decider :
         {static_cast<const RandomizedDecider*>(&amos),
          static_cast<const RandomizedDecider*>(&resilient)}) {
      graph::BallAtlasCache cache;
      local::BallWorkspace warm;
      attach_atlas(warm, cache, inst.g, decider->radius());
      EvaluateOptions warm_options;
      warm_options.ball = &warm;
      std::size_t accepted = 0;
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        // Amos: each node selected with probability 1/12. Coloring: the
        // proper 2-coloring with each node recolored with probability 1/12.
        local::Labeling y(inst.node_count());
        for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
          const bool hit = rng.next_below(12) == 0;
          y[v] = decider == &amos ? (hit ? lang::Amos::kSelected : 0)
                                  : (hit ? rng.next_below(3) : v % 2);
        }
        const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
        const bool want = evaluate(inst, y, *decider, coins).accepted;
        SCOPED_TRACE(decider->name() + " n=" +
                     std::to_string(inst.node_count()) +
                     " seed=" + std::to_string(seed));
        EXPECT_EQ(accepts(inst, y, *decider, coins), want);
        EXPECT_EQ(accepts(inst, y, *decider, coins, warm_options), want);
        EXPECT_EQ(evaluate(inst, y, *decider, coins, warm_options).accepted,
                  want);
        if (want) ++accepted;
      }
      // Both verdicts occur, so the early exit ran.
      EXPECT_GT(accepted, 0u) << decider->name();
      EXPECT_LT(accepted, 200u) << decider->name();
    }
  }
}

// The counters a cold evaluate() charges, and those of accepts() on a
// workspace served by an atlas, for the same run.
struct ChargePair {
  bool cold_accepted = true;
  bool warm_accepted = true;
  local::Telemetry cold;
  local::Telemetry warm;
};

ChargePair charges(const local::Instance& inst,
                   std::span<const local::Label> y,
                   const RandomizedDecider& decider,
                   const rand::CoinProvider& coins, EvaluateOptions options,
                   local::BallWorkspace& warm_workspace) {
  ChargePair pair;
  options.telemetry = &pair.cold;
  pair.cold_accepted = evaluate(inst, y, decider, coins, options).accepted;
  options.telemetry = &pair.warm;
  options.ball = &warm_workspace;
  pair.warm_accepted = accepts(inst, y, decider, coins, options);
  return pair;
}

void expect_same_charges(const ChargePair& pair) {
  EXPECT_EQ(pair.warm_accepted, pair.cold_accepted);
  EXPECT_TRUE(pair.warm.deterministic_equal(pair.cold))
      << "msgs " << pair.warm.messages_sent << " vs "
      << pair.cold.messages_sent << ", words " << pair.warm.words_sent
      << " vs " << pair.cold.words_sent << ", balls "
      << pair.warm.ball_expansions << " vs " << pair.cold.ball_expansions;
}

TEST(Accepts, ChargesEveryNodeWhenTheFirstNodeRejects) {
  const lang::ProperColoring coloring(3);
  const ResilientDecider decider(coloring, 1);
  const graph::NodeId n = 24;
  const local::Instance inst = ring_instance(n);
  local::Labeling y(n);
  for (graph::NodeId v = 0; v < n; ++v) y[v] = v % 2;
  y[1] = 0;  // bad balls at 0, 1 and 2
  graph::BallAtlasCache cache;
  local::BallWorkspace warm;
  attach_atlas(warm, cache, inst.g, decider.radius());
  bool found = false;
  for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
    const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
    const DecisionOutcome outcome = evaluate(inst, y, decider, coins);
    if (outcome.rejecting.empty() || outcome.rejecting.front() != 0) continue;
    found = true;
    const ChargePair pair = charges(inst, y, decider, coins, {}, warm);
    EXPECT_FALSE(pair.warm_accepted);
    EXPECT_EQ(pair.cold.ball_expansions, n);
    expect_same_charges(pair);
  }
  EXPECT_TRUE(found) << "no seed made node 0 reject";
}

TEST(Accepts, CrashCensoredRadiusZeroChargesOnlySurvivors) {
  const AmosDecider decider;  // radius 0: the censored run reads the atlas
  const graph::NodeId n = 48;
  const local::Instance inst = ring_instance(n);
  local::Labeling y(n, 0);
  for (graph::NodeId v = 0; v < n; v += 8) y[v] = lang::Amos::kSelected;
  const auto crash = fault::make_crash(0.25, 3);
  const fault::InstanceFaults bound(*crash, inst.g, inst.ids.raw());
  graph::BallAtlasCache cache;
  local::BallWorkspace warm;
  attach_atlas(warm, cache, inst.g, decider.radius());
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
    const rand::PhiloxCoins fault_coins(seed, rand::Stream::kFault);
    EvaluateOptions options;
    options.fault = &bound;
    options.fault_coins = &fault_coins;
    const ChargePair pair = charges(inst, y, decider, coins, options, warm);
    // Crashed centers cast no verdict and are charged nothing.
    EXPECT_LT(pair.cold.ball_expansions, n);
    EXPECT_GT(pair.cold.ball_expansions, 0u);
    expect_same_charges(pair);
    if (!pair.warm_accepted) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Accepts, FarFromChargesOnlyTheCountedNodes) {
  const lang::ProperColoring coloring(3);
  const ResilientDecider decider(coloring, 1);
  const graph::NodeId n = 24;
  const local::Instance inst = ring_instance(n);
  graph::BallAtlasCache cache;
  local::BallWorkspace warm;
  attach_atlas(warm, cache, inst.g, decider.radius());
  rand::SplitMix64 rng(77);
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    local::Labeling y(n);
    for (graph::NodeId v = 0; v < n; ++v) y[v] = rng.next_below(3);
    const rand::PhiloxCoins coins(seed, rand::Stream::kDecision);
    EvaluateOptions options;
    options.far_from = FarFrom{0, 2};
    const ChargePair pair = charges(inst, y, decider, coins, options, warm);
    EXPECT_EQ(pair.cold.ball_expansions, n - 5);  // B(0, 2) excluded
    expect_same_charges(pair);
    if (!pair.warm_accepted) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ResilientDecider, RejectsOutOfIntervalP) {
  const lang::ProperColoring base(3);
  EXPECT_DEATH(ResilientDecider(base, 2, 0.5), "p_");
  EXPECT_DEATH(ResilientDecider(base, 2, 0.99), "p_");
}

}  // namespace
}  // namespace lnc::decide
