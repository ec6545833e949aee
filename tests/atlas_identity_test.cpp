// Warm/cold identity over every shipped preset. A warm sweep reuses each
// worker's arena across trials, serves balls from the runner's atlas from
// the second trial on (censored radius-0 balls included) and may run the
// vectorized backend; the cold reference (tests/cold_reference.h) runs
// each trial alone on a fresh arena that collects every ball. Both, at 1
// and 4 threads, must tally and count bit-identically on every grid point:
// reuse, atlases and lockstep batches are speed choices, never results
// choices.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "cold_reference.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/threadpool.h"

namespace lnc {
namespace {

TEST(AtlasIdentity, EveryPresetWarmAtOneAndFourThreadsMatchesTheColdRun) {
  const stats::ThreadPool pool(4);
  for (scenario::ScenarioSpec spec : scenario::preset_scenarios()) {
    spec.trials = 200;
    ASSERT_EQ(scenario::validate(spec), "") << spec.name;
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    scenario::SweepOptions one_thread;
    scenario::SweepOptions four_threads;
    four_threads.pool = &pool;
    const scenario::SweepResult warm1 =
        scenario::run_sweep(compiled, one_thread);
    const scenario::SweepResult warm4 =
        scenario::run_sweep(compiled, four_threads);
    ASSERT_EQ(warm1.rows.size(), compiled.points().size()) << spec.name;
    ASSERT_EQ(warm4.rows.size(), compiled.points().size()) << spec.name;
    for (std::size_t k = 0; k < compiled.points().size(); ++k) {
      const local::ExperimentPlan& plan = compiled.points()[k].plan;
      const local::ShardTally cold = cold_reference(plan, {0, plan.trials});
      const std::string where = spec.name + " n=" +
                                std::to_string(compiled.points()[k].requested_n);
      expect_tallies_identical(cold, warm1.rows[k].tally, where + " threads=1");
      expect_tallies_identical(cold, warm4.rows[k].tally, where + " threads=4");
    }
  }
}

}  // namespace
}  // namespace lnc
