// Unified execution of construction algorithms across the paper's three
// equivalent views of a t-round LOCAL computation (section 2.1.1):
//
//   kBalls     — every node inspects B_G(v, t) directly (the direct ball
//                runner: the fast path);
//   kMessages  — the algorithm runs natively through the synchronous round
//                engine: each node floods its knowledge for t rounds and
//                applies the ball algorithm to its own reconstruction
//                *inside the node program* (the simulation theorem,
//                executed as one engine program);
//   kTwoPhase  — phase one collects balls through the engine, phase two
//                reconstructs and computes in the harness (local/simulate).
//
// tests/batch_test.cpp asserts the three modes agree label for label.
//
// The plan factories below wrap a construction run into an ExperimentPlan
// for local/batch_runner.h — one trial = one fresh construction-coin
// stream, executed against a predicate (success probability) or statistic
// (mean) of the produced labeling.
#pragma once

#include "local/batch_runner.h"
#include "local/runner.h"
#include "local/simulate.h"

namespace lnc::fault {
class InstanceFaults;
}

namespace lnc::local {

enum class ExecMode { kBalls, kMessages, kTwoPhase };

inline constexpr util::EnumNames<ExecMode, 3> kExecModeNames{{{
    {ExecMode::kBalls, "balls"},
    {ExecMode::kMessages, "messages"},
    {ExecMode::kTwoPhase, "two-phase"}}}};

const char* to_string(ExecMode mode) noexcept;

struct ExecOptions {
  bool grant_n = false;
  /// Reusable per-worker storage; null uses call-local scratch.
  WorkerArena* arena = nullptr;

  /// Optional adversary (src/fault/): when `fault` is engaged (bound and
  /// non-trivial; it must be bound to the instance being run),
  /// `fault_coins` must be the trial's dedicated fault stream. Only kBalls
  /// honors faults here — every ball is collected in the trial's realized
  /// fault subgraph, and the realized faults are charged to the arena
  /// telemetry once per trial: every failed node (nodes_crashed) and,
  /// between surviving nodes, every faulty edge (messages_dropped for a
  /// drop model, edges_churned for churn). The simulation modes
  /// (kMessages/kTwoPhase) assert the model away; scenario validation
  /// never routes a faulty spec at them. Engine-backed constructions
  /// apply faults through EngineOptions instead (scenario/builtins.cpp).
  const fault::InstanceFaults* fault = nullptr;
  const rand::CoinProvider* fault_coins = nullptr;
};

/// Runs a deterministic construction algorithm in the given mode.
void run_construction_into(const Instance& inst, const BallAlgorithm& algo,
                           ExecMode mode, Labeling& output,
                           const ExecOptions& options = {});
Labeling run_construction(const Instance& inst, const BallAlgorithm& algo,
                          ExecMode mode, const ExecOptions& options = {});

/// Runs a Monte-Carlo construction algorithm in the given mode with the
/// given coins (fix the seed upstream to realize a fixed sigma).
void run_construction_into(const Instance& inst,
                           const RandomizedBallAlgorithm& algo,
                           const rand::CoinProvider& coins, ExecMode mode,
                           Labeling& output, const ExecOptions& options = {});
Labeling run_construction(const Instance& inst,
                          const RandomizedBallAlgorithm& algo,
                          const rand::CoinProvider& coins, ExecMode mode,
                          const ExecOptions& options = {});

/// Per-output success / statistic checks. Callers close over languages,
/// relaxations, or any other acceptance notion.
using OutputPredicate =
    std::function<bool(const Instance&, const Labeling&)>;
using OutputStatistic =
    std::function<double(const Instance&, const Labeling&)>;

/// Pr over fresh construction coins that predicate(inst, C(inst)) holds.
/// The referenced instance and algorithm must outlive the plan's run.
ExperimentPlan construction_plan(std::string name, const Instance& inst,
                                 const RandomizedBallAlgorithm& algo,
                                 OutputPredicate predicate,
                                 std::uint64_t trials, std::uint64_t base_seed,
                                 ExecMode mode = ExecMode::kBalls,
                                 bool grant_n = false);

/// Mean over fresh construction coins of statistic(inst, C(inst)).
ExperimentPlan construction_value_plan(
    std::string name, const Instance& inst,
    const RandomizedBallAlgorithm& algo, OutputStatistic statistic,
    std::uint64_t trials, std::uint64_t base_seed,
    ExecMode mode = ExecMode::kBalls, bool grant_n = false);

}  // namespace lnc::local
