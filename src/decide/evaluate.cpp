#include "decide/evaluate.h"

#include <algorithm>
#include <optional>

#include "fault/fault.h"
#include "graph/metrics.h"
#include "util/assert.h"

namespace lnc::decide {
namespace {

template <typename VerdictAt>
DecisionOutcome evaluate_impl(const local::Instance& inst,
                              const EvaluateOptions& options, int radius,
                              VerdictAt&& verdict_at) {
  inst.validate();
  const graph::NodeId n = inst.node_count();

  std::vector<char> counted(n, 1);
  if (options.far_from.has_value()) {
    const std::vector<int> dist =
        graph::bfs_distances(inst.g, options.far_from->node);
    for (graph::NodeId v = 0; v < n; ++v) {
      counted[v] =
          (dist[v] >= 0 && dist[v] <= options.far_from->exclusion_radius)
              ? 0
              : 1;
    }
  }

  // Fault censoring: crashed nodes cast no verdict, and surviving nodes
  // observe only the realized fault subgraph. Telemetry for the realized
  // faults is NOT charged here — the construction side owns that tally.
  std::optional<fault::FaultSubgraph> local_censor;
  const graph::BallFilter* filter = nullptr;
  if (options.fault != nullptr && !options.fault->trivial()) {
    LNC_EXPECTS(!inst.is_implicit() &&
                "fault censoring requires a materialized instance");
    const fault::FaultSubgraph* censor = options.realized_faults;
    if (censor == nullptr) {
      LNC_EXPECTS(options.fault_coins != nullptr &&
                  "non-trivial fault model requires its coin stream");
      fault::FaultSubgraph& fresh = options.ball != nullptr
                                        ? options.ball->faults
                                        : local_censor.emplace();
      fresh.realize(*options.fault, *options.fault_coins, inst.g,
                    inst.ids.raw(), /*links=*/radius > 0);
      censor = &fresh;
    }
    filter = censor;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (censor->node_blocked(v)) counted[v] = 0;
    }
  }

  DecisionOutcome outcome;
  local::Telemetry charged;
  std::optional<local::BallWorkspace> local_workspace;
  local::BallWorkspace& workspace =
      options.ball != nullptr ? *options.ball : local_workspace.emplace();
  const local::BallSource balls(inst, radius, filter, options.ball);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (counted[v] == 0) continue;
    const graph::BallView& ball = balls.ball(v, workspace);
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = n;
    if (!verdict_at(view)) {
      outcome.accepted = false;
      outcome.rejecting.push_back(v);
    }
    charged.messages_sent += ball.size();
    charged.words_sent += ball.encoded_words();
    ++charged.ball_expansions;
  }
  if (options.telemetry != nullptr) {
    charged.rounds_executed = static_cast<std::uint64_t>(std::max(radius, 1));
    options.telemetry->merge(charged);
  }
  return outcome;
}

}  // namespace

DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const Decider& decider,
                         const EvaluateOptions& options) {
  return evaluate_impl(inst, options, decider.radius(),
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv);
                       });
}

DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const RandomizedDecider& decider,
                         const rand::CoinProvider& coins,
                         const EvaluateOptions& options) {
  return evaluate_impl(inst, options, decider.radius(),
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv, coins);
                       });
}

}  // namespace lnc::decide
