// Vector-engine backend tests: the acceptance gate of the trial-vectorized
// SoA backend. Both backends (batched / vectorized), every thread count,
// every shard partition, every batch width and every fault model must
// produce bit-identical tallies, exact sums, counter slots, and
// deterministic telemetry (fault counters included), equal to the cold
// reference (tests/cold_reference.h) — forcing a backend is a performance
// choice, never a results choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/luby_mis.h"
#include "cold_reference.h"
#include "graph/generators.h"
#include "ident/identity.h"
#include "local/batch_runner.h"
#include "local/vector_engine.h"
#include "rand/coins.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;
using local::OptimizationConfig;
using Backend = local::OptimizationConfig::Backend;

scenario::ScenarioSpec shrunk_preset(const std::string& name,
                                     std::uint64_t trials) {
  const scenario::ScenarioSpec* preset = scenario::find_preset(name);
  EXPECT_NE(preset, nullptr) << name;
  scenario::ScenarioSpec spec = *preset;
  spec.trials = trials;
  spec.n_grid = {spec.n_grid.front()};
  return spec;
}

scenario::SweepResult run_with(const scenario::ScenarioSpec& base,
                               Backend backend, unsigned threads,
                               unsigned shard = 0, unsigned shard_count = 1) {
  scenario::ScenarioSpec spec = base;
  spec.backend = backend;
  EXPECT_EQ(scenario::validate(spec), "");
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  scenario::SweepOptions options;
  options.trial_range = local::shard_range(spec.trials, shard, shard_count);
  std::optional<stats::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  options.pool = pool ? &*pool : nullptr;
  return scenario::run_sweep(compiled, options);
}

void expect_results_identical(const scenario::SweepResult& a,
                              const scenario::SweepResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    expect_tallies_identical(a.rows[i].tally, b.rows[i].tally,
                             what + " row " + std::to_string(i));
  }
}

// Vectorizable presets covering all three vector programs and all three
// workloads (the counter case is the luby value preset re-declared as a
// counter, since no stock counter preset uses a vectorizable engine).
std::vector<scenario::ScenarioSpec> vectorizable_specs() {
  std::vector<scenario::ScenarioSpec> specs;
  specs.push_back(shrunk_preset("gnp-weak-coloring", 40));     // success
  specs.push_back(shrunk_preset("tree-matching", 40));         // success
  specs.push_back(shrunk_preset("luby-mis-rounds", 40));       // value
  specs.push_back(shrunk_preset("rand-matching-rounds", 40));  // value
  scenario::ScenarioSpec counter = shrunk_preset("luby-mis-rounds", 40);
  counter.name = "luby-mis-rounds-counter";
  counter.workload = local::WorkloadKind::kCounter;
  specs.push_back(counter);
  return specs;
}

TEST(VectorEngine, BackendsAreBitIdenticalAcrossThreadCounts) {
  for (const scenario::ScenarioSpec& spec : vectorizable_specs()) {
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    ASSERT_EQ(compiled.points().size(), 1u) << spec.name;
    const local::ExperimentPlan& plan = compiled.points()[0].plan;
    const local::ShardTally cold = cold_reference(plan, {0, plan.trials});
    for (const Backend backend : {Backend::kBatched, Backend::kVectorized}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        const scenario::SweepResult warm = run_with(spec, backend, threads);
        ASSERT_EQ(warm.rows.size(), 1u) << spec.name;
        expect_tallies_identical(
            cold, warm.rows[0].tally,
            spec.name + " backend=" + local::to_string(backend) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(VectorEngine, UnevenShardMergeReproducesUnshardedRun) {
  // 40 trials over 3 shards split 14/13/13 — the batch boundaries inside
  // each shard land differently than in the unsharded run, so this pins
  // down that per-trial outcomes are pure in the trial index, not in the
  // batch layout.
  const scenario::ScenarioSpec spec = shrunk_preset("luby-mis-rounds", 40);
  const scenario::SweepResult whole = run_with(spec, Backend::kVectorized, 2);
  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {
    shards.push_back(run_with(spec, Backend::kVectorized, 2, s, 3));
  }
  expect_results_identical(whole, scenario::merge_trial_ranges(shards),
                           "3-way vectorized shard merge");

  // Mixed-backend shards must merge to the same numbers too — that is
  // the contract that makes merge_sweep_files' backend mismatch a
  // warning rather than an error.
  std::vector<scenario::SweepResult> mixed;
  mixed.push_back(run_with(spec, Backend::kBatched, 1, 0, 3));
  mixed.push_back(run_with(spec, Backend::kVectorized, 2, 1, 3));
  mixed.push_back(run_with(spec, Backend::kBatched, 8, 2, 3));
  scenario::SweepResult merged = scenario::merge_trial_ranges(mixed);
  expect_results_identical(whole, merged, "mixed-backend shard merge");
}

TEST(VectorEngine, BatchWidthPreservesBitIdentity) {
  // The batch width changes HOW trials are grouped, never WHAT they
  // compute: single-trial and ragged 7-wide batches must reproduce the
  // default configuration exactly.
  const scenario::ScenarioSpec spec =
      shrunk_preset("rand-matching-rounds", 40);
  scenario::ScenarioSpec forced = spec;
  forced.backend = Backend::kVectorized;
  const scenario::CompiledScenario compiled = scenario::compile(forced);
  ASSERT_EQ(compiled.points().size(), 1u);
  const local::ExperimentPlan& base_plan = compiled.points()[0].plan;
  ASSERT_TRUE(base_plan.vector.engaged());

  local::BatchRunner runner(nullptr);
  const local::TrialRange range{0, forced.trials};
  const local::ShardTally baseline = runner.run_shard(base_plan, range);

  const auto variant = [&](const char* what, auto&& mutate) {
    local::ExperimentPlan plan = base_plan;
    mutate(plan.optimization);
    expect_tallies_identical(baseline, runner.run_shard(plan, range), what);
  };
  variant("batch_trials=1",
          [](OptimizationConfig& c) { c.batch_trials = 1; });
  variant("batch_trials=7",
          [](OptimizationConfig& c) { c.batch_trials = 7; });
}

// Every vector program under every fault model, on a random 3-regular
// graph: a success workload (the global membership check of the tombstoned
// output) and a value workload (executed rounds, which the kFaultMaxRounds
// cap bounds under heavy loss).
std::vector<scenario::ScenarioSpec> faulty_specs() {
  const struct {
    const char* construction;
    const char* language;
  } programs[] = {{"luby-mis", "mis"},
                  {"rand-matching", "matching"},
                  {"weak-color-mc", "weak-coloring"}};
  const struct {
    const char* name;
    scenario::ParamMap params;
  } faults[] = {{"drop", {{"p-loss", 0.3}}},
                {"crash", {{"p-crash", 0.15}, {"crash-round", 6}}},
                {"churn", {{"p-churn", 0.25}}}};
  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& program : programs) {
    for (const auto& fault : faults) {
      for (const bool value : {false, true}) {
        scenario::ScenarioSpec spec;
        spec.name = std::string(program.construction) + "-" + fault.name +
                    (value ? "-rounds" : "");
        spec.topology = "random-regular";
        spec.params = {{"degree", 3}};
        spec.language = program.language;
        spec.construction = program.construction;
        spec.decider = "exact";
        spec.fault = fault.name;
        spec.fault_params = fault.params;
        if (value) {
          spec.workload = local::WorkloadKind::kValue;
          spec.statistic = "rounds";
        }
        spec.n_grid = {48};
        spec.trials = 40;
        spec.base_seed = 0xFA17;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

TEST(VectorEngine, FaultModelsAreBitIdenticalAcrossBackends) {
  for (const scenario::ScenarioSpec& base : faulty_specs()) {
    ASSERT_EQ(scenario::validate(base), "") << base.name;
    scenario::ScenarioSpec batched = base;
    batched.backend = Backend::kBatched;
    scenario::ScenarioSpec vectorized = base;
    vectorized.backend = Backend::kVectorized;
    const scenario::CompiledScenario scalar = scenario::compile(batched);
    const scenario::CompiledScenario lockstep = scenario::compile(vectorized);
    const local::ExperimentPlan& scalar_plan = scalar.points()[0].plan;
    const local::ExperimentPlan& vector_plan = lockstep.points()[0].plan;
    ASSERT_TRUE(vector_plan.vector.engaged()) << base.name;
    ASSERT_NE(vector_plan.vector.fault, nullptr) << base.name;

    local::BatchRunner runner(nullptr);
    for (const local::TrialRange range :
         {local::TrialRange{0, base.trials}, local::TrialRange{5, 29}}) {
      const std::string where = base.name + " trials [" +
                                std::to_string(range.begin) + ", " +
                                std::to_string(range.end) + ")";
      const local::ShardTally want = runner.run_shard(scalar_plan, range);
      for (const std::uint64_t width : {1u, 7u, 32u}) {
        local::ExperimentPlan plan = vector_plan;
        plan.optimization.batch_trials = width;
        expect_tallies_identical(
            want, runner.run_shard(plan, range),
            where + " batch_trials=" + std::to_string(width));
      }
    }
  }
}

TEST(VectorEngine, AutomaticConfigPicksSaneBackends) {
  for (const std::uint64_t trials : {1u, 2u, 4u, 7u}) {
    EXPECT_EQ(OptimizationConfig::automatic(64, trials, 2.0).backend,
              Backend::kBatched)
        << trials << " trials";
  }
  const OptimizationConfig big = OptimizationConfig::automatic(64, 1000, 3.0);
  EXPECT_EQ(big.backend, Backend::kVectorized);
  EXPECT_GE(big.batch_trials, 4u);
  EXPECT_LE(big.batch_trials, 64u);
  // Tiny vectorized runs never allocate batches wider than the trial count.
  EXPECT_LE(OptimizationConfig::automatic(64, 10, 3.0).batch_trials, 10u);
  // Huge instances drive the batch width down to the floor, never to zero.
  EXPECT_EQ(OptimizationConfig::automatic(1u << 22, 1000, 8.0).batch_trials,
            4u);
}

TEST(VectorEngine, BackendRoundTripsThroughStrings) {
  for (const Backend backend :
       {Backend::kAuto, Backend::kBatched, Backend::kVectorized}) {
    const auto parsed = local::backend_from_string(local::to_string(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(local::backend_from_string("simd").has_value());
  // A retired name: every reader diagnoses it (see serve_test).
  EXPECT_FALSE(local::backend_from_string("naive").has_value());
  EXPECT_FALSE(local::backend_from_string("").has_value());
}

TEST(VectorEngine, DirectBatchMatchesScalarEngineTrialForTrial) {
  // The lowest-level form of the contract: run_vector_batch over a span of
  // construction-coin keys reproduces run_engine per trial — labelings,
  // executed rounds, and the deterministic telemetry delta.
  const local::Instance inst = local::make_instance(
      graph::cycle(48), ident::random_permutation(48, 11));
  const algo::LubyMisFactory factory;
  constexpr std::uint64_t kSeed = 1234;
  constexpr std::uint32_t kTrials = 9;  // run as batches of 5 and 4 below

  std::vector<local::Labeling> scalar_outputs;
  std::vector<int> scalar_rounds;
  std::vector<local::Telemetry> scalar_deltas;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    const rand::PhiloxCoins coins(stats::trial_seed(kSeed, t),
                                  rand::Stream::kConstruction);
    keys.push_back(coins.key());
    local::EngineOptions options;
    options.coins = &coins;
    const local::EngineResult result = run_engine(inst, factory, options);
    ASSERT_TRUE(result.completed);
    scalar_outputs.push_back(result.output);
    scalar_rounds.push_back(result.rounds);
    scalar_deltas.push_back(result.telemetry);
  }

  local::VectorScratch scratch;
  std::uint32_t seen = 0;
  // Two half-batches through the same scratch: the second run exercises
  // the program-recycling path on warm buffers.
  for (const auto& slice :
       {std::span<const std::uint64_t>(keys.data(), 5),
        std::span<const std::uint64_t>(keys.data() + 5, kTrials - 5)}) {
    const std::uint32_t base = seen;
    local::run_vector_batch(
        inst, factory, slice, nullptr, {}, scratch, nullptr,
        [&](std::uint32_t trial, const local::Labeling& output, int rounds,
            const local::Telemetry& delta) {
          const std::uint32_t global = base + trial;
          EXPECT_EQ(output, scalar_outputs[global]) << "trial " << global;
          EXPECT_EQ(rounds, scalar_rounds[global]) << "trial " << global;
          EXPECT_TRUE(delta.deterministic_equal(scalar_deltas[global]))
              << "trial " << global;
          ++seen;
        });
  }
  EXPECT_EQ(seen, kTrials);
}

}  // namespace
