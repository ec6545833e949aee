// The cold reference of the warm-path identity tests. Each trial of a plan
// runs on its own in a new BatchRunner, on the scalar trial loop, so it
// gets a fresh arena and reads no ball atlas: the runner's atlas cache
// builds one only for a second, different requester. Trial coins are
// functions of the seed and the trial index alone (TrialEnv), so these
// one-trial tallies, merged exactly, must equal any warm run of the same
// range bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "local/batch_runner.h"

namespace lnc {

inline local::ShardTally cold_reference(local::ExperimentPlan plan,
                                        local::TrialRange range) {
  plan.optimization.backend = local::OptimizationConfig::Backend::kBatched;
  std::vector<local::ShardTally> trials;
  trials.reserve(range.count());
  for (std::uint64_t i = range.begin; i < range.end; ++i) {
    local::BatchRunner runner;
    trials.push_back(runner.run_shard(plan, {i, i + 1}));
    EXPECT_EQ(runner.ball_atlases().atlas_count(), 0u)
        << plan.name << " trial " << i << " read an atlas";
  }
  local::ShardTally merged;
  for (const local::ShardTally& trial : trials) {
    merged.successes += trial.successes;
    merged.trials += trial.trials;
    merged.value_sum.merge(trial.value_sum);
    merged.value_sum_sq.merge(trial.value_sum_sq);
  }
  merged.counts = local::merge_count_tallies(trials);
  merged.telemetry = local::merge_telemetries(trials);
  return merged;
}

/// Tallies, exact sums, counter slots and deterministic telemetry (fault
/// counters included) must all agree.
inline void expect_tallies_identical(const local::ShardTally& a,
                                     const local::ShardTally& b,
                                     const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.successes, b.successes) << what;
  EXPECT_TRUE(a.value_sum == b.value_sum)
      << what << ": " << a.value_sum.to_hex() << " vs " << b.value_sum.to_hex();
  EXPECT_TRUE(a.value_sum_sq == b.value_sum_sq) << what;
  EXPECT_EQ(a.counts, b.counts) << what;
  EXPECT_TRUE(a.telemetry.deterministic_equal(b.telemetry))
      << what << ": msgs " << a.telemetry.messages_sent << " vs "
      << b.telemetry.messages_sent << ", words " << a.telemetry.words_sent
      << " vs " << b.telemetry.words_sent << ", rounds "
      << a.telemetry.rounds_executed << " vs " << b.telemetry.rounds_executed
      << ", dropped " << a.telemetry.messages_dropped << " vs "
      << b.telemetry.messages_dropped << ", crashed "
      << a.telemetry.nodes_crashed << " vs " << b.telemetry.nodes_crashed
      << ", churned " << a.telemetry.edges_churned << " vs "
      << b.telemetry.edges_churned;
}

}  // namespace lnc
