#include "decide/evaluate.h"

#include <algorithm>
#include <optional>

#include "fault/fault.h"
#include "graph/metrics.h"
#include "util/assert.h"

namespace lnc::decide {
namespace {

// The one decision loop behind evaluate() and accepts(). With
// `stop_at_reject`, an atlas-served run stops at the first counted node
// that rejects: acceptance is a conjunction (Eq. 1), so that node settles
// the verdict. The modeled telemetry still covers every counted node (in
// the LOCAL model each one runs its decider), charged from the atlas's
// totals minus the uncounted centers' balls. A run that collects its
// balls charges each one as it goes, so it visits every counted node.
template <typename VerdictAt>
DecisionOutcome evaluate_impl(const local::Instance& inst,
                              const EvaluateOptions& options, int radius,
                              bool stop_at_reject, VerdictAt&& verdict_at) {
  inst.validate();
  const graph::NodeId n = inst.node_count();

  // Empty when every node counts.
  std::vector<char> counted;
  if (options.far_from.has_value()) {
    const std::vector<int> dist =
        graph::bfs_distances(inst.g, options.far_from->node);
    counted.resize(n);
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
  if (fault::engaged(options.fault)) {
    LNC_EXPECTS(!inst.is_implicit() &&
                "fault censoring requires a materialized instance");
    LNC_EXPECTS(&options.fault->graph() == &inst.g &&
                "fault binding belongs to another instance");
    const fault::FaultSubgraph* censor = options.realized_faults;
    if (censor == nullptr) {
      LNC_EXPECTS(options.fault_coins != nullptr &&
                  "non-trivial fault model requires its coin stream");
      fault::FaultSubgraph& fresh = options.ball != nullptr
                                        ? options.ball->faults
                                        : local_censor.emplace();
      fresh.realize(*options.fault, *options.fault_coins,
                    /*links=*/radius > 0);
      censor = &fresh;
    }
    filter = censor;
    if (counted.empty()) counted.assign(n, 1);
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
  const auto decide_at = [&](graph::NodeId v, const graph::BallView& ball) {
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = n;
    if (verdict_at(view)) return true;
    outcome.accepted = false;
    if (!stop_at_reject) outcome.rejecting.push_back(v);
    return false;
  };
  const char* counts = counted.empty() ? nullptr : counted.data();
  if (const graph::BallAtlas* atlas = balls.atlas(); atlas != nullptr) {
    charged.messages_sent = atlas->total_members();
    charged.words_sent = atlas->total_encoded_words();
    charged.ball_expansions = n;
    for (graph::NodeId v = 0; v < counted.size(); ++v) {
      if (counted[v] != 0) continue;
      const graph::BallView& ball = atlas->ball(v);
      charged.messages_sent -= ball.size();
      charged.words_sent -= ball.encoded_words();
      --charged.ball_expansions;
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (counts != nullptr && counts[v] == 0) continue;
      if (!decide_at(v, atlas->ball(v)) && stop_at_reject) break;
    }
  } else {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (counts != nullptr && counts[v] == 0) continue;
      const graph::BallView& ball = balls.ball(v, workspace);
      decide_at(v, ball);
      charged.messages_sent += ball.size();
      charged.words_sent += ball.encoded_words();
      ++charged.ball_expansions;
    }
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
                       /*stop_at_reject=*/false,
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
                       /*stop_at_reject=*/false,
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv, coins);
                       });
}

bool accepts(const local::Instance& inst,
             std::span<const local::Label> output,
             const RandomizedDecider& decider,
             const rand::CoinProvider& coins,
             const EvaluateOptions& options) {
  return evaluate_impl(inst, options, decider.radius(),
                       /*stop_at_reject=*/true,
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv, coins);
                       })
      .accepted;
}

}  // namespace lnc::decide
