// Cross-build golden pins: exact tallies and deterministic telemetry of
// the presets whose coins and fault draws run through the batched paths
// (the ball runner's coin table, the engine's per-round link-draw column
// and the ball path's realized fault subgraph), at shrunk trial counts.
//
// Every other results gate compares runs of ONE build against each other
// (thread counts, shards, backends, representations), so a change that
// re-keyed every draw the same way everywhere would pass all of them.
// These values were recorded from a build that drew every coin serially,
// one draw() call per read; any change to a key, slot or draw order
// moves them. Update them only for a deliberate seed-stream change
// (util::kSeedStreamEpoch).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace {

using namespace lnc;

struct GoldenRow {
  const char* preset;
  std::uint64_t trials;  ///< the shrunk trial count of the whole sweep
  std::uint64_t n;       ///< the grid point's node count
  std::uint64_t successes;
  std::uint64_t messages;
  std::uint64_t words;
  std::uint64_t rounds;
  std::uint64_t ball_expansions;
  std::uint64_t edges_churned;
  std::uint64_t nodes_crashed;
  std::uint64_t messages_dropped;
};

constexpr GoldenRow kGolden[] = {
    {"rand-matching-churn", 100, 64, 3, 116544, 497703, 1821, 0, 11512, 0, 0},
    {"rand-matching-churn", 100, 256, 0, 563968, 2435120, 2203, 0, 56177, 0,
     0},
    {"luby-mis-crash", 100, 64, 51, 34079, 88227, 562, 0, 0, 341, 0},
    {"luby-mis-crash", 100, 256, 21, 166432, 428245, 684, 0, 0, 1270, 0},
    {"ring-amos-drop", 400, 16, 255, 12800, 64000, 800, 12800, 0, 0, 658},
    {"ring-amos-drop", 400, 64, 260, 51200, 256000, 800, 51200, 0, 0, 2548},
    {"ring-mis-implicit", 24, 4096, 16, 1179648, 6881280, 120, 196608, 0, 0,
     0},
};

void expect_golden(const scenario::ScenarioSpec& spec,
                   const std::string& label) {
  const scenario::SweepResult result =
      scenario::run_sweep(scenario::compile(spec));
  std::size_t matched = 0;
  for (const GoldenRow& want : kGolden) {
    if (spec.name != want.preset) continue;
    ASSERT_LT(matched, result.rows.size()) << label;
    const scenario::SweepRow& row = result.rows[matched++];
    const std::string where = label + " n=" + std::to_string(want.n);
    const local::Telemetry& t = row.tally.telemetry;
    EXPECT_EQ(row.actual_n, want.n) << where;
    EXPECT_EQ(row.tally.trials, want.trials) << where;
    EXPECT_EQ(row.tally.successes, want.successes) << where;
    EXPECT_EQ(t.messages_sent, want.messages) << where;
    EXPECT_EQ(t.words_sent, want.words) << where;
    EXPECT_EQ(t.rounds_executed, want.rounds) << where;
    EXPECT_EQ(t.ball_expansions, want.ball_expansions) << where;
    EXPECT_EQ(t.edges_churned, want.edges_churned) << where;
    EXPECT_EQ(t.nodes_crashed, want.nodes_crashed) << where;
    EXPECT_EQ(t.messages_dropped, want.messages_dropped) << where;
  }
  EXPECT_EQ(matched, result.rows.size()) << label;
}

scenario::ScenarioSpec shrunk_preset(const char* name) {
  const scenario::ScenarioSpec* preset = scenario::find_preset(name);
  EXPECT_NE(preset, nullptr) << name;
  scenario::ScenarioSpec spec = *preset;
  for (const GoldenRow& row : kGolden) {
    if (spec.name == row.preset) spec.trials = row.trials;
  }
  return spec;
}

TEST(GoldenPins, FaultPresetsMatchTheSerialDrawBuild) {
  // Every backend the engine presets can run on lands on the same pins:
  // the scalar engine (batched) and the SoA lockstep batches (vectorized,
  // which auto picks at these trial counts).
  using Backend = local::OptimizationConfig::Backend;
  for (const Backend backend :
       {Backend::kAuto, Backend::kBatched, Backend::kVectorized}) {
    for (const char* name :
         {"rand-matching-churn", "luby-mis-crash", "ring-amos-drop"}) {
      scenario::ScenarioSpec spec = shrunk_preset(name);
      spec.backend = backend;
      expect_golden(spec, std::string(name) + " backend=" +
                              local::to_string(backend));
    }
  }
}

TEST(GoldenPins, LubyBallMatchesTheSerialDrawBuildOnBothRepresentations) {
  // The materialized run reads the coin table; the implicit run streams
  // and draws per read. Both must land on the same recorded values.
  scenario::ScenarioSpec spec = shrunk_preset("ring-mis-implicit");
  spec.execution = scenario::Execution::kMaterialized;
  expect_golden(spec, "ring-mis-implicit materialized");
  spec.execution = scenario::Execution::kImplicit;
  expect_golden(spec, "ring-mis-implicit implicit");
}

}  // namespace
