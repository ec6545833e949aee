#include "local/runner.h"

#include <algorithm>
#include <optional>

namespace lnc::local {
namespace {

/// `coins` is null for deterministic runs; `coins_per_node` is the
/// algorithm's declared coin prefix (RandomizedBallAlgorithm).
template <typename ComputeAtNode>
void run_per_node(const Instance& inst, int radius, const RunOptions& options,
                  const rand::CoinProvider* coins,
                  std::uint64_t coins_per_node, Labeling& output,
                  ComputeAtNode&& compute) {
  inst.validate();
  const graph::NodeId n = inst.node_count();
  output.assign(n, 0);
  Telemetry charged;
  // One workspace for the whole run even without a caller slot — the
  // per-node allocations collapse either way; the caller's slot only adds
  // cross-call (per-trial) reuse.
  std::optional<BallWorkspace> local_workspace;
  BallWorkspace& workspace =
      options.ball != nullptr ? *options.ball : local_workspace.emplace();
  const BallSource balls(inst, radius, options.ball_filter, options.ball);
  // The coin prefix every ball will read, drawn once for the whole run.
  // Only Philox coins have the bulk kernel (and any other provider, such
  // as CountingCoins, must observe every draw), and an implicit instance
  // keeps its memory ball-bounded, so those runs draw per read.
  const rand::CoinTable* coin_table = nullptr;
  if (coins_per_node > 0 && !inst.is_implicit()) {
    if (const auto* philox = dynamic_cast<const rand::PhiloxCoins*>(coins)) {
      workspace.coins.fill(*philox, inst.ids.raw(), coins_per_node);
      coin_table = &workspace.coins;
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (options.ball_filter != nullptr &&
        options.ball_filter->node_blocked(v)) {
      continue;  // crashed center: 0 tombstone, no collection, no charge
    }
    const graph::BallView& ball = balls.ball(v, workspace);
    View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = n;
    view.coins = coins;
    view.coin_table = coin_table;
    output[v] = compute(view);
    charged.messages_sent += ball.size();
    charged.words_sent += ball.encoded_words();
    ++charged.ball_expansions;
  }
  if (options.telemetry != nullptr) {
    // The simulation-theorem charge (local/telemetry.h): delivering every
    // inspected view, over max(radius, 1) rounds (wake-up included).
    charged.rounds_executed = static_cast<std::uint64_t>(std::max(radius, 1));
    options.telemetry->merge(charged);
  }
}

}  // namespace

void run_ball_algorithm_into(const Instance& inst, const BallAlgorithm& algo,
                             Labeling& output, const RunOptions& options) {
  run_per_node(inst, algo.radius(), options, nullptr, 0, output,
               [&](const View& view) { return algo.compute(view); });
}

void run_ball_algorithm_into(const Instance& inst,
                             const RandomizedBallAlgorithm& algo,
                             const rand::CoinProvider& coins, Labeling& output,
                             const RunOptions& options) {
  run_per_node(inst, algo.radius(), options, &coins, algo.coins_per_node(),
               output,
               [&](const View& view) { return algo.compute(view, coins); });
}

Labeling run_ball_algorithm(const Instance& inst, const BallAlgorithm& algo,
                            const RunOptions& options) {
  Labeling output;
  run_ball_algorithm_into(inst, algo, output, options);
  return output;
}

Labeling run_ball_algorithm(const Instance& inst,
                            const RandomizedBallAlgorithm& algo,
                            const rand::CoinProvider& coins,
                            const RunOptions& options) {
  Labeling output;
  run_ball_algorithm_into(inst, algo, coins, output, options);
  return output;
}

}  // namespace lnc::local
