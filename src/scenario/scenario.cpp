#include "scenario/scenario.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "decide/evaluate.h"
#include "decide/experiment_plans.h"
#include "fault/fault.h"
#include "rand/coins.h"
#include "util/assert.h"

namespace lnc::scenario {
namespace {

/// Seed-derivation tags separating the per-grid-point streams.
constexpr std::uint64_t kPlanSeedTag = 0xE1;

/// The one unknown-component diagnostic every registry lookup emits:
/// "unknown <kind> '<name>'; available: a, b, c". Uniform across all six
/// registries so callers (and tests) can rely on one shape.
template <typename Entry>
std::string unknown_component(const char* kind, const std::string& name,
                              const Registry<Entry>& registry) {
  std::string message = "unknown ";
  message += kind;
  message += " '" + name + "'; available: ";
  bool first = true;
  for (const Entry* entry : registry.all()) {
    if (!first) message += ", ";
    message += entry->name;
    first = false;
  }
  return message;
}

/// Union-of-schemas check for one user parameter: the key must be
/// declared by some component, and the value must satisfy the declared
/// range of EVERY declaring component (shared keys reach them all).
/// Empty string when fine, else the diagnostic.
std::string check_param(const std::string& key, double value,
                        const std::vector<const ParamSchema*>& schemas) {
  bool declared = false;
  for (const ParamSchema* schema : schemas) {
    for (const ParamSpec& spec : *schema) {
      if (spec.name != key) continue;
      declared = true;
      // Negated >= form so NaN fails the check instead of slipping
      // through to abort in a component constructor.
      if (!(value >= spec.min_value && value <= spec.max_value)) {
        std::ostringstream os;
        os << "parameter '" << key << "' = " << value << " is outside the "
           << "declared range [" << spec.min_value << ", " << spec.max_value
           << "] (" << spec.doc << ")";
        return os.str();
      }
    }
  }
  if (!declared) {
    return "parameter '" + key + "' is not declared by any of the four "
           "components";
  }
  return {};
}

}  // namespace

const char* to_string(Execution execution) noexcept {
  return kExecutionNames.name(execution);
}

std::optional<Execution> execution_from_string(
    std::string_view text) noexcept {
  return kExecutionNames.parse(text);
}

std::string validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) return "scenario has no name";
  const TopologyEntry* topology = topologies().find(spec.topology);
  if (topology == nullptr) {
    return unknown_component("topology", spec.topology, topologies());
  }
  const LanguageEntry* language = languages().find(spec.language);
  if (language == nullptr) {
    return unknown_component("language", spec.language, languages());
  }
  const ConstructionEntry* construction =
      constructions().find(spec.construction);
  if (construction == nullptr) {
    return unknown_component("construction", spec.construction,
                             constructions());
  }
  const DeciderEntry* decider = deciders().find(spec.decider);
  if (decider == nullptr) {
    return unknown_component("decider", spec.decider, deciders());
  }
  const FaultEntry* fault_entry = faults().find(spec.fault);
  if (fault_entry == nullptr) {
    return unknown_component("fault", spec.fault, faults());
  }

  const std::vector<const ParamSchema*> schemas = {
      &topology->schema, &language->schema, &construction->schema,
      &decider->schema};
  for (const auto& [key, value] : spec.params) {
    const std::string problem = check_param(key, value, schemas);
    if (!problem.empty()) return problem;
  }

  // Fault parameters are a separate namespace: checked against the fault
  // entry's schema only. `none` has an empty schema, so any fault-param on
  // it is rejected here (keeping "none + defaults" the exact spec shape
  // old cache keys hashed).
  for (const auto& [key, value] : spec.fault_params) {
    bool declared = false;
    for (const ParamSpec& fspec : fault_entry->schema) {
      if (fspec.name != key) continue;
      declared = true;
      if (!(value >= fspec.min_value && value <= fspec.max_value)) {
        std::ostringstream os;
        os << "fault parameter '" << key << "' = " << value
           << " is outside the declared range [" << fspec.min_value << ", "
           << fspec.max_value << "] (" << fspec.doc << ")";
        return os.str();
      }
    }
    if (!declared) {
      return "fault parameter '" + key + "' is not declared by fault model '" +
             spec.fault + "'";
    }
  }

  if (spec.n_grid.empty()) return "empty n-grid";
  if (spec.trials == 0) return "zero trials";
  if (construction->ring_only && !is_canonical_ring(spec.topology)) {
    return "construction '" + spec.construction +
           "' requires the canonical ring topology";
  }

  // Non-trivial fault models constrain the execution paths: the
  // construction must tolerate silent ports / censored balls
  // (fault_capable), ball constructions must run in ball mode (the
  // messages/two-phase simulation modes have no fault semantics), and
  // implicit streaming points are out (the realized fault subgraph is
  // charged per materialized trial).
  if (spec.fault != "none") {
    if (!construction->fault_capable) {
      return "fault model '" + spec.fault + "' requires a fault-capable "
             "construction, but '" + spec.construction +
             "' does not tolerate faulty execution (sequential-greedy and "
             "orientation-dependent algorithms deadlock or corrupt state "
             "when neighbors fall silent)";
    }
    if (spec.mode != local::ExecMode::kBalls) {
      const std::unique_ptr<Construction> built =
          make_construction(spec.construction, spec.params);
      if (built->ball_algorithm() != nullptr) {
        return "fault model '" + spec.fault + "' requires mode=balls for "
               "ball-backed constructions (the simulation-theorem modes "
               "have no fault semantics)";
      }
    }
    bool implicit_under_fault =
        spec.execution == Execution::kImplicit;
    for (const std::uint64_t n : spec.n_grid) {
      if (spec.execution == Execution::kAuto && n > kMaterializeCap) {
        implicit_under_fault = true;
      }
    }
    if (implicit_under_fault) {
      return "fault model '" + spec.fault + "' requires materialized "
             "execution (implicit streaming points cannot charge the "
             "realized fault subgraph's telemetry)";
    }
  }
  if (decider->needs_lcl) {
    const std::unique_ptr<lang::Language> built =
        make_language(spec.language, spec.params);
    if (lcl_core(*built) == nullptr) {
      return "decider '" + spec.decider + "' needs an LCL-backed language, "
             "but '" + spec.language + "' has no LCL core";
    }
  }

  // Node ids are 32-bit (kInvalidNode reserved); no execution mode can
  // exceed that.
  for (const std::uint64_t n : spec.n_grid) {
    if (n >= static_cast<std::uint64_t>(graph::kInvalidNode)) {
      return "n = " + std::to_string(n) + " exceeds the 32-bit NodeId range";
    }
  }

  // Implicit-execution eligibility: every grid point that will run without
  // a materialized graph (execution=implicit, or execution=auto beyond
  // kMaterializeCap) must be streamable — an implicit-capable family that
  // accepts the parameters, ball exec mode, a ball-backed construction, a
  // success workload, and a local (non-global-check) decider.
  std::uint64_t implicit_n = 0;
  bool any_implicit = false;
  for (const std::uint64_t n : spec.n_grid) {
    if (spec.execution == Execution::kImplicit ||
        (spec.execution == Execution::kAuto && n > kMaterializeCap)) {
      any_implicit = true;
      implicit_n = n;
      break;
    }
  }
  if (any_implicit) {
    const std::string why =
        spec.execution == Execution::kImplicit
            ? "execution=implicit"
            : "n = " + std::to_string(implicit_n) +
                  " exceeds the materialization cap (" +
                  std::to_string(kMaterializeCap) + ")";
    if (!topology->build_implicit) {
      return why + ", but topology '" + spec.topology +
             "' has no implicit representation";
    }
    const ParamMap merged = merged_params(topology->schema, spec.params);
    if (topology->build_implicit(
            implicit_n, merged,
            rand::mix_keys(spec.base_seed, implicit_n)) == nullptr) {
      return why + ", but topology '" + spec.topology +
             "' declines implicit construction for these parameters "
             "(implicit instances carry the computed consecutive identity "
             "assignment — random-ids must be 0)";
    }
    if (spec.mode != local::ExecMode::kBalls) {
      return why + ", which requires mode=balls (implicit instances have "
             "no materialized graph for the engine to step)";
    }
    if (spec.workload != local::WorkloadKind::kSuccess) {
      return why + ", which requires a success workload (value/counter "
             "statistics read an O(n) output labeling)";
    }
    if (decider->global_check) {
      return why + ", which requires a local decider — the 'exact' global "
             "membership check reads an O(n) output labeling";
    }
    const std::unique_ptr<Construction> built =
        make_construction(spec.construction, spec.params);
    if (built->ball_algorithm() == nullptr) {
      return why + ", which requires a ball-backed construction, but '" +
             spec.construction + "' is engine-backed";
    }
  }

  if (spec.workload == local::WorkloadKind::kSuccess) {
    if (!spec.statistic.empty()) {
      return "success workloads take no statistic (got '" + spec.statistic +
             "'; declare a value or counter workload to measure it)";
    }
    return {};
  }
  const char* workload_name = local::to_string(spec.workload);
  if (spec.decider != "exact") {
    return std::string(workload_name) +
           " workloads measure the construction's output directly and "
           "require the 'exact' pseudo-decider, not '" + spec.decider + "'";
  }
  if (spec.statistic.empty()) {
    return std::string(workload_name) +
           " workload needs a statistic (e.g. 'rounds'; see the statistics "
           "catalogue)";
  }
  const StatisticEntry* statistic = statistics().find(spec.statistic);
  if (statistic == nullptr) {
    return unknown_component("statistic", spec.statistic, statistics());
  }
  if (spec.workload == local::WorkloadKind::kCounter &&
      !statistic->integer_valued) {
    return "statistic '" + spec.statistic + "' is not integer-valued; "
           "counter workloads sum exact integer slots — use a value "
           "workload instead";
  }
  if (statistic->needs_lcl) {
    const std::unique_ptr<lang::Language> built =
        make_language(spec.language, spec.params);
    if (lcl_core(*built) == nullptr) {
      return "statistic '" + spec.statistic + "' needs an LCL-backed "
             "language, but '" + spec.language + "' has no LCL core";
    }
  }
  return {};
}

CompiledScenario compile(const ScenarioSpec& spec) {
  const std::string error = validate(spec);
  LNC_EXPECTS(error.empty() && "invalid scenario spec");

  const DeciderEntry* decider_entry = deciders().find(spec.decider);

  CompiledScenario compiled;
  compiled.spec_ = spec;
  compiled.language_ = make_language(spec.language, spec.params);
  compiled.construction_ = make_construction(spec.construction, spec.params);
  compiled.fault_model_ = make_fault(spec.fault, spec.fault_params);
  if (!decider_entry->global_check) {
    compiled.decider_ =
        make_decider(spec.decider, compiled.language_.get(), spec.params);
  }

  const lang::Language* language = compiled.language_.get();
  const Construction* construction = compiled.construction_.get();
  const decide::RandomizedDecider* decider = compiled.decider_.get();
  // Null for trivial models: every execution path below bypasses the
  // fault machinery entirely then, keeping fault="none" bit-identical to
  // pre-fault runs.
  const fault::FaultModel* fault = compiled.fault_model_->trivial()
                                       ? nullptr
                                       : compiled.fault_model_.get();
  const local::RandomizedBallAlgorithm* ball = construction->ball_algorithm();
  // Engine constructions whose factory implements create_vector() can run
  // trial-vectorized; probe the capability once for the whole grid. The
  // SoA lockstep path realizes fault models with the scalar engine's
  // semantics (local/vector_engine.h), so faulty specs vectorize too.
  const local::NodeProgramFactory* engine_factory =
      construction->engine_factory();
  const bool vectorizable = engine_factory != nullptr &&
                            engine_factory->create_vector() != nullptr;
  const bool accept = spec.success_on_accept;

  // Value/counter workloads evaluate a registered statistic per trial.
  // Registry entries are process-lifetime, so plans may capture the entry.
  const StatisticEntry* statistic =
      spec.workload != local::WorkloadKind::kSuccess
          ? statistics().find(spec.statistic)
          : nullptr;
  // Shared per-trial construction run of the custom paths: ball
  // algorithms through the spec's exec mode (so --mode means the same
  // thing on every workload path), engine programs through their
  // Construction.
  const local::ExecMode mode = spec.mode;
  const auto run_construction =
      [construction, ball, mode](const local::Instance& instance,
                                 const fault::InstanceFaults* faults,
                                 const local::TrialEnv& env,
                                 local::Labeling& output) {
        if (ball == nullptr) {
          Construction::RunOptions run_options;
          run_options.fault = faults;
          return construction->run(instance, env, output, run_options);
        }
        const rand::PhiloxCoins fault_coins = env.fault_coins();
        local::ExecOptions exec_options;
        exec_options.arena = env.arena;
        if (faults != nullptr) {
          exec_options.fault = faults;
          exec_options.fault_coins = &fault_coins;
        }
        local::run_construction_into(instance, *ball, env.construction_coins(),
                                     mode, output, exec_options);
        return Construction::Outcome{ball->radius()};
      };
  // Shared per-trial body of the statistic paths: run the construction,
  // snapshot the telemetry delta when the statistic reads it, evaluate.
  const auto evaluate_statistic =
      [language, statistic, run_construction](
          const local::Instance& instance, const fault::InstanceFaults* faults,
          const local::TrialEnv& env) {
        local::Labeling& output = env.arena->labeling();
        local::Telemetry before;
        if (statistic->needs_telemetry) before = env.arena->telemetry();
        StatisticContext ctx;
        ctx.outcome = run_construction(instance, faults, env, output);
        if (statistic->needs_telemetry) {
          const local::Telemetry& after = env.arena->telemetry();
          ctx.delta.messages_sent =
              after.messages_sent - before.messages_sent;
          ctx.delta.words_sent = after.words_sent - before.words_sent;
          ctx.delta.rounds_executed =
              after.rounds_executed - before.rounds_executed;
          ctx.delta.ball_expansions =
              after.ball_expansions - before.ball_expansions;
        }
        ctx.instance = &instance;
        ctx.output = &output;
        ctx.language = language;
        ctx.balls = &env.arena->ball_workspace();
        return statistic->eval(ctx);
      };

  compiled.points_.reserve(spec.n_grid.size());
  for (const std::uint64_t n : spec.n_grid) {
    const std::uint64_t instance_seed = rand::mix_keys(spec.base_seed, n);
    const std::uint64_t plan_seed =
        rand::mix_keys(instance_seed, kPlanSeedTag);
    const std::string plan_name = spec.name + "/n" + std::to_string(n);

    CompiledScenario::GridPoint point;
    point.requested_n = n;
    // Representation choice per grid point (validated above): implicit
    // points stream neighborhoods on demand and route into the streaming
    // construct-then-decide plan; everything else materializes the CSR
    // graph exactly as before.
    const bool implicit_point =
        spec.execution == Execution::kImplicit ||
        (spec.execution == Execution::kAuto && n > kMaterializeCap);
    point.instance =
        implicit_point
            ? interned_implicit_instance(spec.topology, n, spec.params,
                                         instance_seed)
            : interned_instance(spec.topology, n, spec.params, instance_seed);
    LNC_EXPECTS(point.instance != nullptr);
    const local::Instance& inst = *point.instance;
    // The fault model meets the instance here, once per grid point.
    if (fault != nullptr) {
      point.faults = std::make_shared<const fault::InstanceFaults>(
          *fault, inst.g, inst.ids.raw());
    }
    const fault::InstanceFaults* faults = point.faults.get();
    decide::EvaluateOptions eval_options;
    eval_options.grant_n = decider_entry->needs_n;
    eval_options.fault = faults;

    const local::Instance* inst_ptr = point.instance.get();
    if (spec.workload == local::WorkloadKind::kValue) {
      point.plan = local::custom_value_plan(
          plan_name, spec.trials, plan_seed,
          [inst_ptr, faults, evaluate_statistic](const local::TrialEnv& env) {
            return evaluate_statistic(*inst_ptr, faults, env);
          });
    } else if (spec.workload == local::WorkloadKind::kCounter) {
      point.plan = local::custom_count_plan(
          plan_name, spec.trials, plan_seed, 1,
          [inst_ptr, faults, evaluate_statistic](
              const local::TrialEnv& env, std::span<std::uint64_t> slots) {
            slots[0] += static_cast<std::uint64_t>(
                std::llround(evaluate_statistic(*inst_ptr, faults, env)));
          });
    } else if (decider == nullptr) {
      // "exact": success == (global membership verdict == accept side).
      point.plan = local::custom_plan(
          plan_name, spec.trials, plan_seed,
          [inst_ptr, faults, language, run_construction,
           accept](const local::TrialEnv& env) {
            local::Labeling& output = env.arena->labeling();
            run_construction(*inst_ptr, faults, env, output);
            return language->contains(*inst_ptr, output,
                                      &env.arena->ball_workspace()) ==
                   accept;
          });
    } else if (ball != nullptr) {
      point.plan = decide::construct_then_decide_plan(
          plan_name, inst, *ball, *decider, spec.trials, plan_seed,
          eval_options, accept, spec.mode);
    } else {
      point.plan = local::custom_plan(
          plan_name, spec.trials, plan_seed,
          [inst_ptr, faults, run_construction, decider, eval_options,
           accept](const local::TrialEnv& env) {
            local::Labeling& output = env.arena->labeling();
            run_construction(*inst_ptr, faults, env, output);
            const rand::PhiloxCoins d_coins = env.decision_coins();
            const rand::PhiloxCoins f_coins = env.fault_coins();
            decide::EvaluateOptions trial_options = eval_options;
            trial_options.telemetry = &env.arena->telemetry();
            trial_options.ball = &env.arena->ball_workspace();
            if (faults != nullptr) trial_options.fault_coins = &f_coins;
            return decide::accepts(*inst_ptr, output, *decider, d_coins,
                                   trial_options) == accept;
          });
    }

    // Backend selection. Every plan carries an OptimizationConfig so a
    // forced --backend is honored on every path (vectorized falls back to
    // batched where no SoA hooks exist); kAuto resolves through the
    // size-based tuner. Vectorizable engine constructions additionally
    // get the SoA execution hooks — the workload-matching finish turns
    // each lockstep trial's output into exactly what the scalar trial
    // body would have tallied.
    {
      double mean_degree = 0.0;
      if (inst.is_implicit()) {
        mean_degree = inst.implicit->mean_degree();
      } else if (inst.node_count() > 0) {
        double degree_sum = 0.0;
        for (graph::NodeId v = 0; v < inst.g.node_count(); ++v) {
          degree_sum += static_cast<double>(inst.g.degree(v));
        }
        mean_degree = degree_sum / static_cast<double>(inst.node_count());
      }
      local::OptimizationConfig config = local::OptimizationConfig::automatic(
          inst.node_count(), spec.trials, mean_degree);
      if (spec.backend != local::OptimizationConfig::Backend::kAuto) {
        config.backend = spec.backend;
      }
      point.plan.optimization = config;
    }
    if (vectorizable) {
      point.plan.vector.instance = inst_ptr;
      point.plan.vector.factory = engine_factory;
      point.plan.vector.fault = faults;
      if (spec.workload == local::WorkloadKind::kValue ||
          spec.workload == local::WorkloadKind::kCounter) {
        const auto finish_statistic =
            [inst_ptr, language, statistic](
                const local::TrialEnv& env, const local::Labeling& output,
                int rounds, const local::Telemetry& delta) {
              StatisticContext ctx;
              ctx.instance = inst_ptr;
              ctx.output = &output;
              ctx.outcome = Construction::Outcome{rounds};
              ctx.language = language;
              ctx.balls = &env.arena->ball_workspace();
              if (statistic->needs_telemetry) ctx.delta = delta;
              return statistic->eval(ctx);
            };
        if (spec.workload == local::WorkloadKind::kValue) {
          point.plan.vector.value_finish =
              [finish_statistic](const local::TrialEnv& env,
                                 const local::Labeling& output, int rounds,
                                 const local::Telemetry& delta) {
                return finish_statistic(env, output, rounds, delta);
              };
        } else {
          point.plan.vector.count_finish =
              [finish_statistic](const local::TrialEnv& env,
                                 const local::Labeling& output, int rounds,
                                 const local::Telemetry& delta,
                                 std::span<std::uint64_t> slots) {
                slots[0] += static_cast<std::uint64_t>(
                    std::llround(finish_statistic(env, output, rounds, delta)));
              };
        }
      } else if (decider == nullptr) {
        point.plan.vector.success_finish =
            [inst_ptr, language, accept](const local::TrialEnv& env,
                                         const local::Labeling& output,
                                         int /*rounds*/,
                                         const local::Telemetry& /*delta*/) {
              return language->contains(*inst_ptr, output,
                                        &env.arena->ball_workspace()) ==
                     accept;
            };
      } else {
        point.plan.vector.success_finish =
            [inst_ptr, decider, eval_options, accept, faults](
                const local::TrialEnv& env, const local::Labeling& output,
                int /*rounds*/, const local::Telemetry& /*delta*/) {
              const rand::PhiloxCoins d_coins = env.decision_coins();
              const rand::PhiloxCoins f_coins = env.fault_coins();
              decide::EvaluateOptions trial_options = eval_options;
              trial_options.telemetry = &env.arena->telemetry();
              trial_options.ball = &env.arena->ball_workspace();
              if (faults != nullptr) trial_options.fault_coins = &f_coins;
              return decide::accepts(*inst_ptr, output, *decider, d_coins,
                                     trial_options) == accept;
            };
      }
    }
    compiled.points_.push_back(std::move(point));
  }
  return compiled;
}

}  // namespace lnc::scenario
