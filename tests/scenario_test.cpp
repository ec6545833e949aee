// Scenario subsystem tests: registry resolution, preset health, shard
// partition/merge bit-identity (the ROADMAP "Sharded batch execution"
// contract), JSON spec round trips, instance interning, and program
// recycling.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "algo/weak_color_mc.h"
#include "local/engine.h"
#include "mutations.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;

ScenarioSpec shrunk(const ScenarioSpec& preset, std::uint64_t trials) {
  ScenarioSpec spec = preset;
  spec.trials = trials;
  spec.n_grid = {preset.n_grid.front()};
  return spec;
}

/// Runs only half `half` (0 or 1) of the spec's trials.
scenario::SweepOptions half_options(const ScenarioSpec& spec, unsigned half) {
  scenario::SweepOptions options;
  options.trial_range = local::shard_range(spec.trials, half, 2);
  return options;
}

TEST(Registry, CatalogueHasTheAdvertisedSurface) {
  EXPECT_GE(scenario::topologies().all().size(), 8u);
  EXPECT_GE(scenario::languages().all().size(), 8u);
  EXPECT_GE(scenario::constructions().all().size(), 6u);
  EXPECT_GE(scenario::deciders().all().size(), 5u);
  for (const char* decider :
       {"exact", "lcl", "amos", "resilient", "slack", "local-count"}) {
    EXPECT_NE(scenario::deciders().find(decider), nullptr) << decider;
  }
}

TEST(Registry, MergedParamsFillDefaultsAndKeepOverrides) {
  const scenario::ParamSchema schema = {{"colors", 3, ""}, {"eps", 0.5, ""}};
  const scenario::ParamMap merged =
      scenario::merged_params(schema, {{"eps", 0.25}, {"other", 9}});
  EXPECT_EQ(scenario::param(merged, "colors"), 3);
  EXPECT_EQ(scenario::param(merged, "eps"), 0.25);
  EXPECT_EQ(merged.count("other"), 0u);  // foreign keys are not adopted
}

TEST(Registry, InternedInstancesAreShared) {
  const auto a = scenario::interned_instance("ring", 24);
  const auto b = scenario::interned_instance("ring", 24);
  const auto c = scenario::interned_instance("ring", 25);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->node_count(), 24u);
}

TEST(Presets, AtLeastEightSpanningThreeTopologyFamilies) {
  const auto& presets = scenario::preset_scenarios();
  ASSERT_GE(presets.size(), 8u);
  std::set<std::string> topologies;
  std::set<std::string> deciders;
  std::set<std::string> names;
  for (const ScenarioSpec& spec : presets) {
    EXPECT_EQ(scenario::validate(spec), "");
    topologies.insert(spec.topology);
    deciders.insert(spec.decider);
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
  }
  EXPECT_GE(topologies.size(), 3u);
  // Every decider family is exercised by some preset.
  for (const char* family : {"exact", "lcl", "amos", "resilient", "slack"}) {
    EXPECT_EQ(deciders.count(family), 1u) << family;
  }
}

TEST(Presets, EveryScenarioResolvesAndRunsOneTrialSweep) {
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 1);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult result = scenario::run_sweep(compiled);
    ASSERT_EQ(result.rows.size(), 1u) << spec.name;
    EXPECT_EQ(result.rows[0].tally.trials, 1u) << spec.name;
    EXPECT_LE(result.rows[0].tally.successes, 1u) << spec.name;
  }
}

TEST(Sharding, ShardRangePartitionsTheTrialRange) {
  for (const std::uint64_t trials : {1u, 7u, 8u, 9u, 1000u}) {
    for (const unsigned shards : {1u, 2u, 3u, 7u}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const local::TrialRange range = local::shard_range(trials, s, shards);
        EXPECT_EQ(range.begin, expected_begin);
        expected_begin = range.end;
        covered += range.count();
      }
      EXPECT_EQ(covered, trials);
      EXPECT_EQ(expected_begin, trials);
    }
  }
}

TEST(Sharding, TwoWayMergeEqualsUnshardedBitForBit) {
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 9);
    const scenario::CompiledScenario compiled = scenario::compile(spec);

    const scenario::SweepResult full = scenario::run_sweep(compiled);
    const scenario::SweepResult parts[] = {
        scenario::run_sweep(compiled, half_options(spec, 0)),
        scenario::run_sweep(compiled, half_options(spec, 1))};
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);

    ASSERT_EQ(merged.rows.size(), full.rows.size()) << spec.name;
    for (std::size_t i = 0; i < full.rows.size(); ++i) {
      const stats::Estimate want = scenario::row_estimate(full.rows[i]);
      const stats::Estimate got = scenario::row_estimate(merged.rows[i]);
      EXPECT_EQ(got.successes, want.successes) << spec.name;
      EXPECT_EQ(got.trials, want.trials) << spec.name;
      // Bit-for-bit: identical integer tallies make identical doubles.
      EXPECT_EQ(got.p_hat, want.p_hat) << spec.name;
      EXPECT_EQ(got.ci.lo, want.ci.lo) << spec.name;
      EXPECT_EQ(got.ci.hi, want.ci.hi) << spec.name;
    }
  }
}

TEST(Sharding, UnevenThreeWayMergeAndJsonRoundTrip) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 10);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult full = scenario::run_sweep(compiled);

  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {
    scenario::SweepOptions options;
    options.trial_range = local::shard_range(spec.trials, s, 3);
    // Round-trip every shard through its JSON wire format, as the
    // cross-process workflow does.
    std::ostringstream os;
    scenario::write_json(os, scenario::run_sweep(compiled, options));
    shards.push_back(scenario::sweep_from_json(os.str()));
  }
  const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);
  EXPECT_EQ(scenario::row_estimate(merged.rows[0]).p_hat,
            scenario::row_estimate(full.rows[0]).p_hat);
  EXPECT_EQ(merged.rows[0].tally.successes, full.rows[0].tally.successes);
}

TEST(Sharding, TelemetryTwoWayMergeEqualsUnshardedBitForBit) {
  // The deterministic communication counters obey the same partition
  // contract as the success tallies: any shard split merges back to the
  // unsharded counters exactly, for every preset.
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 9);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);
    const scenario::SweepResult parts[] = {
        scenario::run_sweep(compiled, half_options(spec, 0)),
        scenario::run_sweep(compiled, half_options(spec, 1))};
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    ASSERT_EQ(merged.rows.size(), full.rows.size()) << spec.name;
    for (std::size_t i = 0; i < full.rows.size(); ++i) {
      const local::Telemetry& want = full.rows[i].tally.telemetry;
      const local::Telemetry& got = merged.rows[i].tally.telemetry;
      EXPECT_EQ(got.messages_sent, want.messages_sent) << spec.name;
      EXPECT_EQ(got.words_sent, want.words_sent) << spec.name;
      EXPECT_EQ(got.rounds_executed, want.rounds_executed) << spec.name;
      EXPECT_EQ(got.ball_expansions, want.ball_expansions) << spec.name;
    }
  }
}

TEST(Sharding, TelemetryUnevenThreeWayMergeSurvivesJsonRoundTrip) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 10);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  ASSERT_GT(full.rows[0].tally.telemetry.messages_sent, 0u);
  ASSERT_GT(full.rows[0].tally.telemetry.words_sent, 0u);
  ASSERT_GT(full.rows[0].tally.telemetry.rounds_executed, 0u);

  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {  // 10 trials over 3 shards: 4/3/3
    scenario::SweepOptions options;
    options.trial_range = local::shard_range(spec.trials, s, 3);
    std::ostringstream os;
    scenario::write_json(os, scenario::run_sweep(compiled, options));
    std::vector<std::string> warnings;
    shards.push_back(scenario::sweep_from_json(os.str(), &warnings));
    EXPECT_TRUE(warnings.empty()) << warnings[0];
  }
  const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);
  EXPECT_TRUE(merged.rows[0].tally.telemetry.deterministic_equal(
      full.rows[0].tally.telemetry));
}

TEST(ValueSweep, SummaryLinesAreGrepStableAndThreadInvariant) {
  // The value-mode CLI summary line prints the mean/stddev at full
  // round-trip precision, so string equality across thread counts IS the
  // exact-merge contract. A hand-built row pins the exact format.
  scenario::SweepResult result;
  result.scenario = "golden";
  result.workload = local::WorkloadKind::kValue;
  result.trial_end = 2;
  scenario::SweepRow row;
  row.requested_n = 8;
  row.actual_n = 8;
  row.total_trials = 2;
  row.tally.trials = 2;
  row.tally.value_sum.add(1.5);
  row.tally.value_sum.add(2.5);
  row.tally.value_sum_sq.add(1.5 * 1.5);
  row.tally.value_sum_sq.add(2.5 * 2.5);
  result.rows.push_back(row);
  const std::vector<std::string> golden = scenario::summary_lines(result);
  ASSERT_EQ(golden.size(), 1u);
  EXPECT_EQ(golden[0],
            "value[golden/n8]: mean=2 stddev=0.70710678118654757 trials=2");

  // Live sweeps: identical lines at 1 and 8 worker threads.
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 12);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const std::vector<std::string> sequential =
      scenario::summary_lines(scenario::run_sweep(compiled));
  const stats::ThreadPool pool(8);
  scenario::SweepOptions pooled;
  pooled.pool = &pool;
  EXPECT_EQ(sequential,
            scenario::summary_lines(scenario::run_sweep(compiled, pooled)));
  ASSERT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential[0].rfind("value[luby-mis-rounds/n64]: mean=", 0), 0u)
      << sequential[0];
  EXPECT_NE(sequential[0].find(" stddev="), std::string::npos);
  EXPECT_NE(sequential[0].find(" trials=12"), std::string::npos);

  // Sharded (incomplete) results and success workloads emit no lines.
  EXPECT_TRUE(scenario::summary_lines(
                  scenario::run_sweep(compiled, half_options(spec, 0)))
                  .empty());
}

TEST(ValueSweep, JsonRoundTripCarriesTheMeanBlock) {
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 9);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult shard =
      scenario::run_sweep(compiled, half_options(spec, 1));
  std::ostringstream os;
  scenario::write_json(os, shard);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"workload\": \"value\""), std::string::npos);
  EXPECT_NE(text.find("\"values\": {\"sum\": "), std::string::npos);
  EXPECT_NE(text.find("\"exact_sum\": \""), std::string::npos);

  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(text, &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  EXPECT_EQ(parsed.workload, local::WorkloadKind::kValue);
  ASSERT_EQ(parsed.rows.size(), shard.rows.size());
  for (std::size_t i = 0; i < shard.rows.size(); ++i) {
    EXPECT_TRUE(parsed.rows[i].tally.value_sum ==
                shard.rows[i].tally.value_sum);
    EXPECT_TRUE(parsed.rows[i].tally.value_sum_sq ==
                shard.rows[i].tally.value_sum_sq);
  }
}

TEST(ValueSweep, CounterJsonRoundTripCarriesCounts) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-words");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 7));
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  ASSERT_EQ(full.rows[0].tally.counts.size(), 1u);
  EXPECT_GT(full.rows[0].tally.counts[0], 0u);

  std::ostringstream os;
  scenario::write_json(os, full);
  EXPECT_NE(os.str().find("\"workload\": \"counter\""), std::string::npos);
  EXPECT_NE(os.str().find("\"counts\": ["), std::string::npos);
  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(os.str(), &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  EXPECT_EQ(parsed.rows[0].tally.counts, full.rows[0].tally.counts);
}

TEST(ValueSweep, WarnsOnUnknownValueRowKeysButStillParses) {
  // A value shard file from a future binary generation: foreign keys in
  // a row's values block (and next to it) warn but do not break the
  // merge, and the exact accumulators still read back bit-perfectly.
  scenario::SweepResult seeded;
  seeded.scenario = "x";
  seeded.workload = local::WorkloadKind::kValue;
  scenario::SweepRow row;
  row.requested_n = 8;
  row.actual_n = 8;
  row.total_trials = 4;
  row.tally.trials = 4;
  row.tally.value_sum.add(0.1);
  row.tally.value_sum.add(2.25);
  row.tally.value_sum_sq.add(0.1 * 0.1);
  row.tally.value_sum_sq.add(2.25 * 2.25);
  seeded.rows.push_back(row);
  std::ostringstream os;
  scenario::write_json(os, seeded);
  std::string text = os.str();
  const std::string needle = "\"exact_sum\":";
  text.insert(text.find(needle), "\"future_moment\": 3.5, ");
  ASSERT_NE(text.find("future_moment"), std::string::npos);

  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(text, &warnings);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("future_moment"), std::string::npos);
  EXPECT_NE(warnings[0].find("values-block"), std::string::npos);
  EXPECT_TRUE(parsed.rows[0].tally.value_sum ==
              seeded.rows[0].tally.value_sum);
  EXPECT_EQ(scenario::row_mean(parsed.rows[0]).mean,
            scenario::row_mean(seeded.rows[0]).mean);

  // An unknown workload tag is a hard error, not a warning — the reader
  // cannot merge tallies it does not understand.
  EXPECT_THROW(
      scenario::sweep_from_json(
          "{\"scenario\": \"x\", \"base_seed\": 1, \"shard\": 0, "
          "\"shard_count\": 1, \"workload\": \"vibes\", \"rows\": []}"),
      std::runtime_error);
}

TEST(ValueSweep, MergeRejectsMixedWorkloads) {
  const ScenarioSpec* value_preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(value_preset, nullptr);
  const ScenarioSpec spec = shrunk(*value_preset, 8);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult shard0 =
      scenario::run_sweep(compiled, half_options(spec, 0));
  scenario::SweepResult shard1 =
      scenario::run_sweep(compiled, half_options(spec, 1));
  shard1.workload = local::WorkloadKind::kSuccess;  // simulated stale file
  const scenario::SweepResult mixed[] = {shard0, shard1};
  EXPECT_NE(scenario::can_merge_trial_ranges(mixed).find("workload"),
            std::string::npos);
}

TEST(SweepJson, WarnsOnUnrecognizedKeysButStillParses) {
  // A shard file from a different binary generation (here: an invented
  // top-level key and an invented row key) must parse — old files stay
  // mergeable — but surface both foreign keys as warnings.
  const std::string text =
      "{\"scenario\": \"x\", \"base_seed\": 1, \"shard\": 0, "
      "\"shard_count\": 1, \"future_field\": 7, \"rows\": "
      "[{\"n\": 8, \"actual_n\": 8, \"total_trials\": 4, \"trials\": 4, "
      "\"successes\": 2, \"exotic\": 1}]}";
  std::vector<std::string> warnings;
  const scenario::SweepResult result =
      scenario::sweep_from_json(text, &warnings);
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].tally.successes, 2u);
  // Pre-telemetry rows read back with zeroed counters.
  EXPECT_EQ(result.rows[0].tally.telemetry.messages_sent, 0u);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("future_field"), std::string::npos);
  EXPECT_NE(warnings[1].find("exotic"), std::string::npos);
  // Without a warning sink the same file parses silently (library use).
  EXPECT_EQ(scenario::sweep_from_json(text).rows.size(), 1u);
}

TEST(Sharding, RangeMergeTakesAnyOrderAndDiagnosesOverlapGapAndMissingLast) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 32);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  // --shard 0/2, 2/4 and 3/4: two split factors, one partition.
  const auto shard = [&](unsigned index, unsigned count) {
    scenario::SweepOptions options;
    options.trial_range = local::shard_range(spec.trials, index, count);
    return scenario::run_sweep(compiled, options);
  };
  const scenario::SweepResult a = shard(0, 2);
  const scenario::SweepResult b = shard(2, 4);
  const scenario::SweepResult c = shard(3, 4);

  std::vector<scenario::SweepResult> parts = {a, b, c};
  std::sort(parts.begin(), parts.end(),
            [](const auto& x, const auto& y) {
              return x.trial_begin < y.trial_begin;
            });
  do {
    ASSERT_EQ(scenario::can_merge_trial_ranges(parts), "");
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    EXPECT_TRUE(merged.complete());
    ASSERT_EQ(merged.rows.size(), full.rows.size());
    EXPECT_EQ(merged.rows[0].tally.successes, full.rows[0].tally.successes);
    EXPECT_EQ(merged.rows[0].tally.trials, full.rows[0].tally.trials);
    EXPECT_TRUE(merged.rows[0].tally.telemetry.deterministic_equal(
        full.rows[0].tally.telemetry));
  } while (std::next_permutation(
      parts.begin(), parts.end(), [](const auto& x, const auto& y) {
        return x.trial_begin < y.trial_begin;
      }));

  const auto diagnosis = [](std::vector<scenario::SweepResult> given) {
    return scenario::can_merge_trial_ranges(given);
  };
  // A part given twice overlaps itself, even when the set is complete.
  EXPECT_NE(diagnosis({c, a, b, b}).find("overlaps"), std::string::npos);
  EXPECT_NE(diagnosis({a, a}).find("overlaps"), std::string::npos);
  // A missing middle part leaves a gap.
  EXPECT_NE(diagnosis({c, a}).find("[16, 24) are covered by no part"),
            std::string::npos)
      << diagnosis({c, a});
  // A missing first part leaves a gap at trial 0.
  EXPECT_NE(diagnosis({b, c}).find("covered by no part"), std::string::npos);
  // A missing last part leaves the run short of its total.
  EXPECT_NE(diagnosis({b, a}).find("missing last part"), std::string::npos)
      << diagnosis({b, a});
  EXPECT_NE(diagnosis({a}).find("missing last part"), std::string::npos);
}

/// Writes `texts` as result files under the test temp root and returns
/// their paths.
std::vector<std::string> write_parts(
    const std::string& name, const std::vector<std::string>& texts) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    paths.push_back((std::filesystem::path(::testing::TempDir()) /
                     ("lnc-" + name + "-" + std::to_string(i) + ".json"))
                        .string());
    std::ofstream(paths.back(), std::ios::trunc) << texts[i];
  }
  return paths;
}

/// The result files of `spec` split with --shard i/count, in order.
std::vector<std::string> shard_texts(const ScenarioSpec& spec,
                                     unsigned count) {
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  std::vector<std::string> texts;
  for (unsigned s = 0; s < count; ++s) {
    scenario::SweepOptions options;
    options.trial_range = local::shard_range(spec.trials, s, count);
    std::ostringstream os;
    scenario::write_json(os, scenario::run_sweep(compiled, options));
    texts.push_back(os.str());
  }
  return texts;
}

/// Replaces the first number after `field` in `text`.
void overwrite_number(std::string& text, const std::string& field,
                      const std::string& value) {
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos) << field;
  const std::size_t begin = at + field.size();
  std::size_t end = begin;
  while (end < text.size() && std::isdigit(text[end])) ++end;
  text.replace(begin, end - begin, value);
}

TEST(SweepJson, ImpossibleTalliesAreDiagnosed) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const std::vector<std::string> halves = shard_texts(shrunk(*preset, 30), 2);
  const auto diagnosis = [](const std::string& text) -> std::string {
    try {
      scenario::sweep_from_json(text);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "";
  };
  // More successes than trials: a merge would print p_hat above 1.
  std::string text = halves[0];
  overwrite_number(text, "\"successes\": ", "74");
  EXPECT_NE(diagnosis(text).find("74 successes in 15 trials"),
            std::string::npos)
      << diagnosis(text);
  const std::vector<std::string> paths =
      write_parts("impossible", {text, halves[1]});
  EXPECT_THROW(scenario::merge_sweep_files(paths), std::runtime_error);
  // More trials than the run has.
  text = halves[1];
  overwrite_number(text, "\"total_trials\": ", "14");
  EXPECT_NE(diagnosis(text).find("15 trials of a 14-trial run"),
            std::string::npos)
      << diagnosis(text);
  // An inverted range.
  text = halves[1];
  overwrite_number(text, "\"trial_end\": ", "3");
  EXPECT_NE(diagnosis(text).find("[15, 3) is inverted"), std::string::npos)
      << diagnosis(text);
}

TEST(SweepJson, ShardFilesWithRetiredShardKeysStillMerge) {
  // Files written before results dropped their i-of-k identity carry
  // "shard"/"shard_count" next to the range. They read without warnings,
  // and the keys are ignored: only the range places a part.
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 30);
  std::vector<std::string> texts = shard_texts(spec, 2);
  const std::string seed = "\"base_seed\": " + std::to_string(spec.base_seed);
  ASSERT_EQ(texts[0].find("shard"), std::string::npos) << texts[0];
  texts[0].insert(texts[0].find(seed) + seed.size(),
                  ", \"shard\": 0, \"shard_count\": 2");
  // A key that no longer means anything cannot be narrowed into a wrong
  // index either.
  texts[1].insert(texts[1].find(seed) + seed.size(),
                  ", \"shard\": 4294967297, \"shard_count\": 2");
  std::vector<std::string> warnings;
  const scenario::SweepResult merged = scenario::merge_sweep_files(
      write_parts("retired-keys", {texts[1], texts[0]}), &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  const scenario::SweepResult full =
      scenario::run_sweep(scenario::compile(spec));
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.rows[0].tally.successes, full.rows[0].tally.successes);
  EXPECT_EQ(merged.rows[0].tally.trials, full.rows[0].tally.trials);
}

// Mutated shard files (a fixed seed and case count): truncations, bit
// flips, deep nesting and edge numbers over the tallies and the range of
// one part of a 3-way split must each end in a diagnostic or in a merge
// whose rows are complete and possible — never in a crash or sanitizer
// report.
TEST(ShardFiles, MutatedShardFilesMergeFaithfullyOrAreDiagnosed) {
  std::vector<std::vector<std::string>> bases;
  for (const char* name : {"ring-amos-yes", "ring-amos-words"}) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    bases.push_back(shard_texts(shrunk(*preset, 12), 3));
  }
  const std::vector<std::string> fields = {
      "\"trials\": ",      "\"successes\": ", "\"total_trials\": ",
      "\"trial_begin\": ", "\"trial_end\": ", "\"counts\": ["};
  const std::vector<std::string> edges = {
      "1e309", "-1e309", "18446744073709551616", "18446744073709551615",
      "-0",    "-8",     "0.5",                  "4294967297",
      "1e-320", "0",     "1",                    "4",
      "12",    "13"};
  Mutator mutate(20261023);
  int merged_count = 0;
  int diagnosed = 0;
  for (int c = 0; c < 400; ++c) {
    std::vector<std::string> texts = mutate.pick(bases);
    std::string& text = texts[mutate.next() % texts.size()];
    switch (mutate.next() % 4) {
      case 0:
        mutate.truncate(text);
        break;
      case 1:
        mutate.flip(text);
        break;
      case 2: {  // the rows wrapped in 1..300 arrays
        const std::string field = "\"rows\": ";
        mutate.nest(text, text.find(field) + field.size(),
                    text.rfind(']') + 1);
        break;
      }
      default:  // an edge number over one tally or range value
        mutate.edge_over(text, mutate.pick(fields), edges);
    }
    const std::vector<std::string> paths = write_parts("mutated", texts);
    const std::string where = "case " + std::to_string(c) + ": " + text;
    scenario::SweepResult merged;
    try {
      merged = scenario::merge_sweep_files(paths);
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()), "") << where;
      ++diagnosed;
      continue;
    }
    ++merged_count;
    EXPECT_TRUE(merged.complete()) << where;
    for (const scenario::SweepRow& row : merged.rows) {
      EXPECT_EQ(row.tally.trials, row.total_trials) << where;
      EXPECT_LE(row.tally.successes, row.tally.trials) << where;
    }
  }
  // Both outcomes occur: the mutations reach past the parser.
  EXPECT_GT(merged_count, 0);
  EXPECT_GT(diagnosed, 0);
}

TEST(SpecJson, FullWidthSeedsRoundTripExactly) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  const ScenarioSpec spec = scenario::spec_from_json(
      "{\"seed\": 18446744073709551615, \"trials\": 9007199254740993}");
  EXPECT_EQ(spec.base_seed, big);
  EXPECT_EQ(spec.trials, 9007199254740993ull);  // 2^53 + 1: double rounds
}

TEST(Validation, RejectsUnknownComponentsAndParams) {
  ScenarioSpec spec;
  spec.name = "bad";
  spec.topology = "moebius";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.n_grid = {8};
  EXPECT_NE(scenario::validate(spec).find("unknown topology"),
            std::string::npos);

  spec.topology = "ring";
  spec.params["frobnication"] = 1;
  EXPECT_NE(scenario::validate(spec).find("frobnication"), std::string::npos);
  spec.params.clear();

  spec.construction = "cole-vishkin";
  spec.topology = "grid";
  EXPECT_NE(scenario::validate(spec).find("ring"), std::string::npos);

  spec.topology = "ring";
  spec.construction = "rand-coloring";
  spec.language = "amos";
  spec.decider = "resilient";
  EXPECT_NE(scenario::validate(spec).find("LCL"), std::string::npos);
}

TEST(Validation, AllSixRegistriesShareOneUnknownDiagnosticShape) {
  // Every string-addressable registry — topology, language, construction,
  // decider, fault, statistic — answers an unknown name with the same
  // "unknown <kind> '<name>'; available: …" shape, so a CLI user always
  // sees the catalogue they can pick from, whichever knob they mistyped.
  const auto expect_shape = [](const std::string& message,
                               const std::string& kind, const char* member) {
    EXPECT_EQ(message.rfind("unknown " + kind + " 'nope'; available: ", 0), 0u)
        << message;
    EXPECT_NE(message.find(member), std::string::npos) << message;
  };
  ScenarioSpec base;
  base.name = "diag";
  base.topology = "ring";
  base.language = "coloring";
  base.construction = "rand-coloring";
  base.decider = "exact";
  base.n_grid = {8};
  ASSERT_EQ(scenario::validate(base), "");

  ScenarioSpec spec = base;
  spec.topology = "nope";
  expect_shape(scenario::validate(spec), "topology", "ring");
  spec = base;
  spec.language = "nope";
  expect_shape(scenario::validate(spec), "language", "coloring");
  spec = base;
  spec.construction = "nope";
  expect_shape(scenario::validate(spec), "construction", "rand-coloring");
  spec = base;
  spec.decider = "nope";
  expect_shape(scenario::validate(spec), "decider", "exact");
  spec = base;
  spec.fault = "nope";
  expect_shape(scenario::validate(spec), "fault", "drop");
  spec = base;
  spec.workload = local::WorkloadKind::kValue;
  spec.statistic = "nope";
  expect_shape(scenario::validate(spec), "statistic", "rounds");
}

TEST(Validation, FaultParamsAndCompatibilityAreDiagnosed) {
  ScenarioSpec spec;
  spec.name = "faulty";
  spec.topology = "ring";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.decider = "exact";
  spec.n_grid = {8};
  spec.fault = "drop";
  spec.fault_params = {{"p-loss", 0.25}};
  EXPECT_EQ(scenario::validate(spec), "");

  // Fault params live in their own namespace, validated against the fault
  // model's schema only: foreign keys and out-of-range values name the
  // fault model, and `none` declares no parameters at all.
  spec.fault_params = {{"p-crash", 0.25}};
  EXPECT_NE(scenario::validate(spec).find("fault model 'drop'"),
            std::string::npos);
  spec.fault_params = {{"p-loss", 1.5}};
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  spec.fault = "none";
  spec.fault_params = {{"p-loss", 0.1}};
  EXPECT_NE(scenario::validate(spec).find("fault model 'none'"),
            std::string::npos);

  // Non-trivial faults require a fault-capable construction.
  spec.fault = "drop";
  spec.fault_params.clear();
  spec.construction = "greedy-coloring";
  EXPECT_NE(scenario::validate(spec).find("fault"), std::string::npos);
}

TEST(Validation, RejectsOutOfRangeAndNanParameters) {
  ScenarioSpec spec;
  spec.name = "ranges";
  spec.topology = "ring";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.decider = "slack";
  spec.n_grid = {12};
  spec.params = {{"eps", 0.5}};
  EXPECT_EQ(scenario::validate(spec), "");
  spec.params["eps"] = 2.0;  // slack decider declares eps in (0, 1]
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  // NaN satisfies no declared range — it must be diagnosed here, not
  // abort later in the decider's constructor precondition.
  spec.params["eps"] = std::nan("");
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  spec.params = {{"colors", 0}};  // below the palette minimum
  spec.decider = "exact";
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
}

TEST(ValueSweep, CanMergeRejectsMismatchedCounterWidths) {
  // A shard file from a binary generation with a different counter-slot
  // layout must be refused with a diagnostic, not an abort.
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-words");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 8);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult shard0 =
      scenario::run_sweep(compiled, half_options(spec, 0));
  scenario::SweepResult shard1 =
      scenario::run_sweep(compiled, half_options(spec, 1));
  shard1.rows[0].tally.counts.push_back(7);  // extra foreign slot
  const scenario::SweepResult mismatched[] = {shard0, shard1};
  EXPECT_NE(scenario::can_merge_trial_ranges(mismatched).find("widths"),
            std::string::npos);
  // A counter-less part first must not hide the mismatch of the others.
  scenario::SweepResult bare = shard0;
  bare.rows[0].tally.counts.clear();
  scenario::SweepResult third = shard1;
  third.trial_begin = shard1.trial_end;
  third.trial_end = shard1.trial_end;
  third.rows[0].tally.trials = 0;
  third.rows[0].tally.counts.pop_back();
  const scenario::SweepResult hidden[] = {bare, shard1, third};
  EXPECT_NE(scenario::can_merge_trial_ranges(hidden).find("widths"),
            std::string::npos);
}

TEST(SpecJson, ShippedScenarioFilesParseAndValidate) {
  const std::filesystem::path dir =
      std::filesystem::path(LNC_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const ScenarioSpec spec = scenario::spec_from_json(text.str());
    EXPECT_EQ(scenario::validate(spec), "") << entry.path();
    EXPECT_EQ(spec.name, entry.path().stem().string()) << entry.path();
    // Shipped files mirror registered presets.
    EXPECT_NE(scenario::find_preset(spec.name), nullptr) << entry.path();
  }
  EXPECT_GE(count, 8u);
}

TEST(SpecJson, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(scenario::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(scenario::spec_from_json("{\"nonsense\": 1}"),
               std::runtime_error);
  EXPECT_THROW(scenario::spec_from_json("{\"success\": \"maybe\"}"),
               std::runtime_error);
}

TEST(SpecJson, DeepNestingIsDiagnosedNotRecursed) {
  constexpr int kMax = scenario::Json::kMaxDepth;
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(scenario::Json::parse(nested(kMax)).kind,
            scenario::Json::Kind::kArray);
  std::string objects;
  for (int i = 0; i < 30000; ++i) objects += "{\"a\": ";
  // One level too deep, far past any stack the parser could recurse
  // through (unterminated), and nested objects: each is diagnosed at the
  // container that opens level kMax + 1.
  const struct {
    std::string input;
    std::size_t offset;
  } cases[] = {
      {nested(kMax + 1), kMax},
      {std::string(30000, '['), kMax},
      {objects, 6 * kMax},  // each level is `{"a": ` (6 characters)
  };
  for (const auto& c : cases) {
    try {
      scenario::Json::parse(c.input);
      ADD_FAILURE() << "deep input of " << c.input.size() << " bytes parsed";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("JSON error at offset " + std::to_string(c.offset) +
                               ": nesting deeper than",
                           0),
                0u)
          << what;
    }
  }
}

TEST(SpecJson, DeepSpecFileIsDiagnosedByTheCli) {
  const std::filesystem::path file =
      std::filesystem::path(::testing::TempDir()) / "lnc-deep-spec.json";
  std::ofstream(file) << std::string(30000, '[');
  const std::string command = std::string(LNC_BINARY_DIR) +
                              "/lnc_sweep --spec " + file.string() + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << "lnc_sweep died: " << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;
  EXPECT_NE(output.find("JSON error at offset"), std::string::npos) << output;
}

TEST(Recycling, ScratchReuseAcrossFactoriesStaysCorrect) {
  const local::Instance inst = scenario::build_instance("ring", 32);
  const rand::PhiloxCoins coins(7, rand::Stream::kConstruction);
  const algo::WeakColorMcFactory factory(4);

  local::EngineOptions fresh;
  fresh.coins = &coins;
  const local::EngineResult want = run_engine(inst, factory, fresh);

  local::EngineScratch scratch;
  local::EngineOptions reused;
  reused.coins = &coins;
  reused.scratch = &scratch;
  // Second run recycles the retained programs in place; a factory with a
  // DIFFERENT configuration afterwards must not reuse them.
  const local::EngineResult first = run_engine(inst, factory, reused);
  const local::EngineResult second = run_engine(inst, factory, reused);
  EXPECT_EQ(first.output, want.output);
  EXPECT_EQ(second.output, want.output);

  const algo::WeakColorMcFactory other(2);
  const local::EngineResult shorter = run_engine(inst, other, reused);
  local::EngineOptions fresh_other;
  fresh_other.coins = &coins;
  EXPECT_EQ(shorter.output, run_engine(inst, other, fresh_other).output);
}

}  // namespace
