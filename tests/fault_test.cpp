// Fault-model tests: bit-reproducibility of faulty sweeps across thread
// counts, shard layouts, and trial-range slices (every fault draw is a
// pure function of (trial, entity, round) Philox counters, never of
// execution order), plus the trivial-fault invariants that keep specs
// without a fault block byte-identical to the pre-fault path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "graph/generators.h"
#include "ident/identity.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;

const char* const kFaultPresets[] = {"ring-amos-drop", "luby-mis-crash",
                                     "rand-matching-churn"};

ScenarioSpec shrunk(const ScenarioSpec& preset, std::uint64_t trials) {
  ScenarioSpec spec = preset;
  spec.trials = trials;
  spec.n_grid = {preset.n_grid.front()};
  return spec;
}

// The fault counter a preset's model is expected to exercise.
std::uint64_t fault_counter(const ScenarioSpec& spec,
                            const local::Telemetry& telemetry) {
  if (spec.fault == "drop") return telemetry.messages_dropped;
  if (spec.fault == "crash") return telemetry.nodes_crashed;
  if (spec.fault == "churn") return telemetry.edges_churned;
  return 0;
}

void expect_rows_bit_identical(const scenario::SweepResult& want,
                               const scenario::SweepResult& got,
                               const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].tally.successes, want.rows[i].tally.successes)
        << label;
    EXPECT_EQ(got.rows[i].tally.trials, want.rows[i].tally.trials) << label;
    EXPECT_TRUE(got.rows[i].tally.value_sum == want.rows[i].tally.value_sum)
        << label;
    EXPECT_TRUE(got.rows[i].tally.value_sum_sq ==
                want.rows[i].tally.value_sum_sq)
        << label;
    EXPECT_TRUE(got.rows[i].tally.telemetry.deterministic_equal(
        want.rows[i].tally.telemetry))
        << label;
    if (want.complete() && got.complete()) {
      const stats::Estimate w = scenario::row_estimate(want.rows[i]);
      const stats::Estimate g = scenario::row_estimate(got.rows[i]);
      EXPECT_EQ(g.p_hat, w.p_hat) << label;
      EXPECT_EQ(g.ci.lo, w.ci.lo) << label;
      EXPECT_EQ(g.ci.hi, w.ci.hi) << label;
    }
  }
}

TEST(FaultRegistry, AllFourModelsAreRegisteredWithSchemas) {
  for (const char* name : {"none", "drop", "crash", "churn"}) {
    const scenario::FaultEntry* entry = scenario::faults().find(name);
    ASSERT_NE(entry, nullptr) << name;
    if (std::string(name) == "none") {
      EXPECT_TRUE(entry->schema.empty());
      EXPECT_TRUE(scenario::make_fault("none", {})->trivial());
    } else {
      EXPECT_FALSE(entry->schema.empty()) << name;
      EXPECT_FALSE(
          scenario::make_fault(name, scenario::merged_params(entry->schema, {}))
              ->trivial())
          << name;
    }
  }
}

TEST(FaultModels, EachPresetIsThreadCountInvariantBitForBit) {
  // The core resilience contract: drop, crash, and churn sweeps produce
  // bit-identical tallies AND fault telemetry at 1 and 8 worker threads,
  // because every fault coin is keyed by (trial, entity, round), never by
  // which thread happened to run the trial.
  const stats::ThreadPool pool(8);
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 48);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult sequential = scenario::run_sweep(compiled);
    scenario::SweepOptions pooled;
    pooled.pool = &pool;
    const scenario::SweepResult threaded =
        scenario::run_sweep(compiled, pooled);
    expect_rows_bit_identical(sequential, threaded, name);
    // The preset's fault model actually fired: its counter is nonzero and
    // identical across thread counts.
    const std::uint64_t count =
        fault_counter(spec, sequential.rows[0].tally.telemetry);
    EXPECT_GT(count, 0u) << name;
    EXPECT_EQ(fault_counter(spec, threaded.rows[0].tally.telemetry), count)
        << name;
  }
}

TEST(FaultModels, UnevenThreeWayShardMergeSurvivesJsonRoundTrip) {
  // 10 trials over 3 shards (4/3/3), every shard round-tripped through
  // its JSON wire format: the merge reproduces the unsharded tallies,
  // exact sums, and fault telemetry bit for bit.
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 10);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);

    std::vector<scenario::SweepResult> shards;
    for (unsigned s = 0; s < 3; ++s) {
      scenario::SweepOptions options;
      options.shard = s;
      options.shard_count = 3;
      std::ostringstream os;
      scenario::write_json(os, scenario::run_sweep(compiled, options));
      std::vector<std::string> warnings;
      shards.push_back(scenario::sweep_from_json(os.str(), &warnings));
      EXPECT_TRUE(warnings.empty()) << name << ": " << warnings[0];
    }
    const scenario::SweepResult merged = scenario::merge_sweeps(shards);
    expect_rows_bit_identical(full, merged, name);
  }
}

TEST(FaultModels, TrialRangeSlicesMergeBitIdenticallyWithTheFullRun) {
  // Crash and churn draws depend only on the trial index, not on which
  // trials ran before: three uneven abutting --trial-range slices merge
  // to the full run bit for bit.
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 30);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);

    const std::uint64_t cuts[] = {0, 7, 19, 30};
    std::vector<scenario::SweepResult> parts;
    for (int i = 0; i < 3; ++i) {
      scenario::SweepOptions options;
      options.trial_range = local::TrialRange{cuts[i], cuts[i + 1]};
      parts.push_back(scenario::run_sweep(compiled, options));
    }
    ASSERT_EQ(scenario::can_merge_trial_ranges(parts), "") << name;
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    expect_rows_bit_identical(full, merged, name);
  }
}

TEST(FaultModels, NoneAndAbsentFaultBlocksAreTheSameScenario) {
  // A spec that never mentions faults and a spec that says fault="none"
  // are the same scenario: identical parsed structs, identical serialized
  // bytes (no "fault" key is ever emitted for the trivial model — the
  // cache-key stability guarantee), and identical sweep results.
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec absent = shrunk(*preset, 16);
  ScenarioSpec explicit_none = absent;
  explicit_none.fault = "none";

  const std::string absent_json = scenario::spec_to_json(absent);
  EXPECT_EQ(scenario::spec_to_json(explicit_none), absent_json);
  EXPECT_EQ(absent_json.find("\"fault\""), std::string::npos);
  const ScenarioSpec reparsed = scenario::spec_from_json(absent_json);
  EXPECT_EQ(reparsed.fault, "none");
  EXPECT_TRUE(reparsed.fault_params.empty());

  const scenario::SweepResult a =
      scenario::run_sweep(scenario::compile(absent));
  const scenario::SweepResult b =
      scenario::run_sweep(scenario::compile(explicit_none));
  expect_rows_bit_identical(a, b, "none-vs-absent");
  // The trivial model leaves the fault counters untouched, so the
  // telemetry JSON stays byte-compatible with pre-fault shard files.
  EXPECT_EQ(a.rows[0].tally.telemetry.messages_dropped, 0u);
  EXPECT_EQ(a.rows[0].tally.telemetry.nodes_crashed, 0u);
  EXPECT_EQ(a.rows[0].tally.telemetry.edges_churned, 0u);
}

TEST(FaultModels, SuccessIsMonotoneNonIncreasingInLossProbability) {
  // Resilience smoke on the amos yes side: stepping p-loss 0 -> 0.25 ->
  // 0.5 can only destroy accepting balls, never create them, so the
  // success count must not increase. (Not exact monotonicity per trial —
  // a statistical smoke over a fixed seed and trial budget.)
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  std::uint64_t previous = 0;
  bool first = true;
  for (const double p_loss : {0.0, 0.25, 0.5}) {
    ScenarioSpec spec = shrunk(*preset, 300);
    spec.fault = "drop";
    spec.fault_params = {{"p-loss", p_loss}};
    ASSERT_EQ(scenario::validate(spec), "") << p_loss;
    const scenario::SweepResult result =
        scenario::run_sweep(scenario::compile(spec));
    const std::uint64_t successes = result.rows[0].tally.successes;
    if (!first) {
      EXPECT_LE(successes, previous) << "p-loss=" << p_loss;
    }
    previous = successes;
    first = false;
  }
  // The sweep actually degraded: at p-loss=0.5 some accepting balls died.
  EXPECT_LT(previous, 300u);
}

TEST(FaultSubgraph, RealizesTheEngineCrashesAndSymmetricEdgeBits) {
  // The ball path's realized subgraph and the engine read the same
  // draws: a node is failed iff the engine would ever crash it, and an
  // edge's two ports share one round-0 draw.
  const graph::Graph g = graph::random_regular(200, 3, 9);
  const ident::IdAssignment ids = ident::random_permutation(200, 2);
  const rand::PhiloxCoins coins(17, rand::Stream::kFault);
  const auto crash = fault::make_crash(0.3, 4);
  fault::FaultSubgraph faults;
  faults.realize(*crash, coins, g, ids.raw());
  std::vector<std::uint64_t> rounds;
  crash->crash_rounds(coins, ids.raw(), rounds);
  std::size_t failed = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(faults.node_blocked(v), rounds[v] != fault::kNeverCrashes);
    if (rounds[v] != fault::kNeverCrashes) {
      EXPECT_GE(rounds[v], 1u);
      EXPECT_LE(rounds[v], 4u);
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, g.node_count());

  for (const auto& model : {fault::make_drop(0.4), fault::make_churn(0.4)}) {
    faults.realize(*model, coins, g, ids.raw());
    std::size_t blocked = 0;
    for (const graph::Edge& e : g.edges()) {
      EXPECT_EQ(faults.edge_blocked(e.u, e.v), faults.edge_blocked(e.v, e.u));
      EXPECT_FALSE(faults.node_blocked(e.u));
      if (faults.edge_blocked(e.u, e.v)) ++blocked;
    }
    EXPECT_GT(blocked, 0u) << model->name();
    EXPECT_LT(blocked, g.edge_count()) << model->name();
    // Without link draws every edge reads intact.
    faults.realize(*model, coins, g, ids.raw(), /*links=*/false);
    for (const graph::Edge& e : g.edges()) {
      EXPECT_FALSE(faults.edge_blocked(e.u, e.v));
    }
  }
}

}  // namespace
