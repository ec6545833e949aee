#include "local/simulate.h"

#include <algorithm>

#include "util/assert.h"

namespace lnc::local {

ReconstructedBall reconstruct_ball(const Knowledge& knowledge,
                                   ident::Identity center_identity) {
  ReconstructedBall result;

  // Stable node order: identities ascending (any order works; algorithms
  // may only read identities and inputs, never raw indices).
  std::vector<ident::Identity> ids;
  ids.reserve(knowledge.size());
  for (const auto& [id, record] : knowledge) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  auto index_of = [&ids](ident::Identity id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    LNC_ASSERT(it != ids.end() && *it == id);
    return static_cast<graph::NodeId>(it - ids.begin());
  };

  graph::Graph::Builder builder(static_cast<graph::NodeId>(ids.size()));
  for (const auto& [a, b] : knowledge_edges(knowledge)) {
    builder.add_edge(index_of(a), index_of(b));
  }

  Labeling input(ids.size(), 0);
  for (const auto& [id, record] : knowledge) {
    input[index_of(id)] = record.input;
  }

  result.instance.g = builder.build();
  result.instance.input = std::move(input);
  result.instance.ids = ident::IdAssignment(std::move(ids));
  result.center = result.instance.ids.index_of(center_identity);
  LNC_ASSERT(result.center != graph::kInvalidNode);
  return result;
}

namespace {

template <typename ComputeAtNode>
SimulationResult simulate_impl(const Instance& inst, int t,
                               const EngineOptions& options,
                               ComputeAtNode&& compute) {
  const std::vector<Knowledge> tables = collect_balls(inst, t, options);

  SimulationResult result;
  result.rounds = t;
  result.output.resize(inst.node_count());
  for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
    const ReconstructedBall ball = reconstruct_ball(tables[v], inst.ids[v]);
    // The reconstruction holds exactly B_G(v, t) (ball_collector tests),
    // so a radius-t BallView over it from the center is the identical
    // object a direct run would see — modulo node indexing, which the
    // View interface hides.
    const graph::BallView view_ball(ball.instance.g, ball.center, t);
    View view;
    view.ball = &view_ball;
    view.instance = &ball.instance;
    if (options.grant_n) view.n_nodes = inst.node_count();
    result.output[v] = compute(view);
  }
  return result;
}

}  // namespace

SimulationResult run_via_messages(const Instance& inst,
                                  const BallAlgorithm& algo,
                                  const EngineOptions& options) {
  return simulate_impl(inst, algo.radius(), options,
                       [&](const View& view) { return algo.compute(view); });
}

SimulationResult run_via_messages(const Instance& inst,
                                  const RandomizedBallAlgorithm& algo,
                                  const rand::CoinProvider& coins,
                                  const EngineOptions& options) {
  return simulate_impl(inst, algo.radius(), options, [&](const View& view) {
    View with_coins = view;
    with_coins.coins = &coins;
    return algo.compute(with_coins, coins);
  });
}

}  // namespace lnc::local
