#include "local/experiment.h"

#include <optional>
#include <utility>

#include "fault/fault.h"
#include "util/assert.h"

namespace lnc::local {
namespace {

/// Shared kBalls fault plumbing: censor the run and charge the realized
/// faults (once per trial — this is the ball path's ONLY charging site).
template <typename RunBody>
void run_censored_balls(const Instance& inst, int radius,
                        const ExecOptions& options, RunOptions& run_options,
                        RunBody&& run) {
  if (!fault::engaged(options.fault)) {
    run();
    return;
  }
  LNC_EXPECTS(options.fault_coins != nullptr &&
              "non-trivial fault model requires its coin stream");
  LNC_EXPECTS(!inst.is_implicit() &&
              "fault censoring requires a materialized instance");
  LNC_EXPECTS(&options.fault->graph() == &inst.g &&
              "fault binding belongs to another instance");
  std::optional<fault::FaultSubgraph> local_censor;
  fault::FaultSubgraph& censor = options.arena != nullptr
                                     ? options.arena->ball_workspace().faults
                                     : local_censor.emplace();
  // Edges matter to balls of radius >= 1 and to the telemetry charge.
  const bool charge = options.arena != nullptr;
  censor.realize(*options.fault, *options.fault_coins, radius > 0 || charge);
  run_options.ball_filter = &censor;
  run();
  if (charge) {
    Telemetry& telemetry = options.arena->telemetry();
    telemetry.nodes_crashed += censor.failed_nodes();
    (censor.link_kind() == fault::LinkFault::kDrop
         ? telemetry.messages_dropped
         : telemetry.edges_churned) += censor.faulty_edges();
  }
}

/// Per-node compute step shared by the messages and two-phase modes.
using ComputeFromView = std::function<Label(const View&)>;

/// The simulation theorem executed inside the node: flood for t rounds
/// (inherited collector behavior), then reconstruct B_G(v, t) from the
/// knowledge table and apply the ball algorithm locally.
class SimulatingProgram final : public BallCollectorProgram {
 public:
  SimulatingProgram(int radius, const ComputeFromView* compute)
      : BallCollectorProgram(radius), compute_(compute) {}

  bool init(const NodeEnv& env) override {
    n_nodes_ = env.n_nodes;
    const bool done = BallCollectorProgram::init(env);
    if (done) finish();  // zero-round algorithm: compute immediately
    return done;
  }

  bool receive(int round, const Inbox& inbox) override {
    const bool done = BallCollectorProgram::receive(round, inbox);
    if (done) finish();
    return done;
  }

  Label output() const override { return out_; }

 private:
  void finish() {
    const ReconstructedBall ball =
        reconstruct_ball(knowledge(), self_identity());
    const graph::BallView view_ball(ball.instance.g, ball.center, radius());
    View view;
    view.ball = &view_ball;
    view.instance = &ball.instance;
    view.n_nodes = n_nodes_;
    out_ = (*compute_)(view);
  }

  const ComputeFromView* compute_;
  std::optional<std::uint64_t> n_nodes_;
  Label out_ = 0;
};

class SimulatingFactory final : public NodeProgramFactory {
 public:
  SimulatingFactory(std::string name, int radius, ComputeFromView compute)
      : name_(std::move(name)),
        radius_(radius),
        compute_(std::move(compute)) {}

  std::string name() const override { return name_ + "@messages"; }

  std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<SimulatingProgram>(radius_, &compute_);
  }

 private:
  std::string name_;
  int radius_;
  ComputeFromView compute_;
};

void run_messages_mode(const Instance& inst, const std::string& name,
                       int radius, ComputeFromView compute, Labeling& output,
                       const ExecOptions& options) {
  SimulatingFactory factory(name, radius, std::move(compute));
  EngineOptions engine_options;
  engine_options.grant_n = options.grant_n;
  if (options.arena != nullptr) {
    engine_options.scratch = &options.arena->engine();
  }
  EngineResult result = run_engine(inst, factory, engine_options);
  LNC_ASSERT(result.completed);
  output = std::move(result.output);
}

void run_two_phase_mode(const Instance& inst, int radius,
                        const ComputeFromView& compute, Labeling& output,
                        const ExecOptions& options) {
  EngineOptions engine_options;
  engine_options.grant_n = options.grant_n;
  std::vector<Knowledge> local_tables;
  std::vector<Knowledge>& tables = options.arena != nullptr
                                       ? options.arena->knowledge()
                                       : local_tables;
  if (options.arena != nullptr) {
    engine_options.scratch = &options.arena->engine();
  }
  collect_balls_into(inst, radius, engine_options, tables);

  const graph::NodeId n = inst.node_count();
  output.assign(n, 0);
  BallWorkspace local_workspace;
  BallWorkspace& workspace = options.arena != nullptr
                                 ? options.arena->ball_workspace()
                                 : local_workspace;
  for (graph::NodeId v = 0; v < n; ++v) {
    const ReconstructedBall ball = reconstruct_ball(tables[v], inst.ids[v]);
    workspace.ball.collect(ball.instance.g, ball.center, radius,
                           workspace.scratch);
    const graph::BallView& view_ball = workspace.ball;
    View view;
    view.ball = &view_ball;
    view.instance = &ball.instance;
    if (options.grant_n) view.n_nodes = n;
    output[v] = compute(view);
  }
  if (options.arena != nullptr) {
    // Phase-one flooding was measured by the engine; phase two only
    // materializes the reconstructed balls in the harness.
    options.arena->telemetry().ball_expansions += n;
  }
}

}  // namespace

const char* to_string(ExecMode mode) noexcept {
  return kExecModeNames.name(mode);
}

void run_construction_into(const Instance& inst, const BallAlgorithm& algo,
                           ExecMode mode, Labeling& output,
                           const ExecOptions& options) {
  switch (mode) {
    case ExecMode::kBalls: {
      RunOptions run_options;
      run_options.grant_n = options.grant_n;
      if (options.arena != nullptr) {
        run_options.telemetry = &options.arena->telemetry();
        run_options.ball = &options.arena->ball_workspace();
      }
      run_censored_balls(inst, algo.radius(), options, run_options, [&] {
        run_ball_algorithm_into(inst, algo, output, run_options);
      });
      return;
    }
    case ExecMode::kMessages:
      LNC_EXPECTS(!fault::engaged(options.fault) &&
                  "simulation modes do not support fault models");
      run_messages_mode(
          inst, algo.name(), algo.radius(),
          [&algo](const View& view) { return algo.compute(view); }, output,
          options);
      return;
    case ExecMode::kTwoPhase:
      LNC_EXPECTS(!fault::engaged(options.fault) &&
                  "simulation modes do not support fault models");
      run_two_phase_mode(
          inst, algo.radius(),
          [&algo](const View& view) { return algo.compute(view); }, output,
          options);
      return;
  }
}

void run_construction_into(const Instance& inst,
                           const RandomizedBallAlgorithm& algo,
                           const rand::CoinProvider& coins, ExecMode mode,
                           Labeling& output, const ExecOptions& options) {
  switch (mode) {
    case ExecMode::kBalls: {
      RunOptions run_options;
      run_options.grant_n = options.grant_n;
      if (options.arena != nullptr) {
        run_options.telemetry = &options.arena->telemetry();
        run_options.ball = &options.arena->ball_workspace();
      }
      run_censored_balls(inst, algo.radius(), options, run_options, [&] {
        run_ball_algorithm_into(inst, algo, coins, output, run_options);
      });
      return;
    }
    case ExecMode::kMessages:
      LNC_EXPECTS(!fault::engaged(options.fault) &&
                  "simulation modes do not support fault models");
      run_messages_mode(
          inst, algo.name(), algo.radius(),
          [&algo, &coins](const View& view) {
            View with_coins = view;
            with_coins.coins = &coins;
            return algo.compute(with_coins, coins);
          },
          output, options);
      return;
    case ExecMode::kTwoPhase:
      LNC_EXPECTS(!fault::engaged(options.fault) &&
                  "simulation modes do not support fault models");
      run_two_phase_mode(
          inst, algo.radius(),
          [&algo, &coins](const View& view) {
            View with_coins = view;
            with_coins.coins = &coins;
            return algo.compute(with_coins, coins);
          },
          output, options);
      return;
  }
}

Labeling run_construction(const Instance& inst, const BallAlgorithm& algo,
                          ExecMode mode, const ExecOptions& options) {
  Labeling output;
  run_construction_into(inst, algo, mode, output, options);
  return output;
}

Labeling run_construction(const Instance& inst,
                          const RandomizedBallAlgorithm& algo,
                          const rand::CoinProvider& coins, ExecMode mode,
                          const ExecOptions& options) {
  Labeling output;
  run_construction_into(inst, algo, coins, mode, output, options);
  return output;
}

ExperimentPlan construction_plan(std::string name, const Instance& inst,
                                 const RandomizedBallAlgorithm& algo,
                                 OutputPredicate predicate,
                                 std::uint64_t trials, std::uint64_t base_seed,
                                 ExecMode mode, bool grant_n) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.success_trial = [&inst, &algo, predicate = std::move(predicate), mode,
                        grant_n](const TrialEnv& env) {
    const rand::PhiloxCoins coins = env.construction_coins();
    ExecOptions options;
    options.grant_n = grant_n;
    options.arena = env.arena;
    Labeling& output = env.arena->labeling();
    run_construction_into(inst, algo, coins, mode, output, options);
    return predicate(inst, output);
  };
  return plan;
}

ExperimentPlan construction_value_plan(
    std::string name, const Instance& inst,
    const RandomizedBallAlgorithm& algo, OutputStatistic statistic,
    std::uint64_t trials, std::uint64_t base_seed, ExecMode mode,
    bool grant_n) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.value_trial = [&inst, &algo, statistic = std::move(statistic), mode,
                      grant_n](const TrialEnv& env) {
    const rand::PhiloxCoins coins = env.construction_coins();
    ExecOptions options;
    options.grant_n = grant_n;
    options.arena = env.arena;
    Labeling& output = env.arena->labeling();
    run_construction_into(inst, algo, coins, mode, output, options);
    return statistic(inst, output);
  };
  return plan;
}

}  // namespace lnc::local
