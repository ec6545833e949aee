// E12 — substrate validation: throughput of the synchronous engine, ball
// collection, and ball views at the scales the E-series experiments use,
// plus batched trial execution against a plain per-trial engine loop
// and the backend ablation. Components resolve from the scenario registry. One trial runs
// on one thread; the pooled rows parallelize across trials.
#include "bench_common.h"

#include <initializer_list>
#include <utility>

#include "algo/weak_color_mc.h"
#include "graph/ball.h"
#include "local/ball_collector.h"
#include "local/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/threadpool.h"
#include "util/timer.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E12: simulation substrate throughput", "engine ablation",
      "Node-rounds per second for the round engine (one trial, one\n"
      "thread), plus ball-collection cost — the substrate budget behind\n"
      "E2-E8.");

  util::Table table({"n", "engine 1-thread Mnr/s", "collect_balls(r=2) ms"});
  const auto cole_vishkin = scenario::make_construction("cole-vishkin");
  for (graph::NodeId n : {1024u, 8192u, 32768u}) {
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    local::WorkerArena arena;
    local::TrialEnv env;
    env.arena = &arena;
    local::Labeling colors;

    util::Timer t1;
    const auto run = cole_vishkin->run(inst, env, colors);
    const double run_s = t1.elapsed_seconds();
    const double node_rounds =
        static_cast<double>(n) * run.rounds / run_s / 1e6;

    util::Timer t2;
    const auto tables = local::collect_balls(inst, 2);
    const double collect_ms = t2.elapsed_millis();

    table.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(node_rounds, 2)
        .add_cell(collect_ms, 1);
    bench::do_not_optimize(tables);
    bench::do_not_optimize(colors);
  }
  bench::print_table(table);

  // Batched Monte-Carlo ablation: the SAME engine workload (weak-coloring
  // MC, 7 rounds) run as (a) a plain per-trial run_engine loop with fresh
  // allocations per trial, (b) BatchRunner with one warm arena at 1
  // thread (isolates the arena-reuse + program-recycling win), (c)
  // BatchRunner at trial granularity on 8 threads. Success tallies must
  // agree — the batched path is a pure execution change.
  std::cout << "Batched trial execution vs plain per-trial engine loop\n"
               "(weak-coloring MC, n = 512, 600 trials; host has "
            << std::thread::hardware_concurrency()
            << " hardware thread(s) — on a single-core host the 8-thread\n"
               "row collapses to the arena-reuse win alone):\n\n";
  // The telemetry columns are the engine's MEASURED communication volume
  // (local/telemetry.h): the batched rows must agree counter for counter
  // across thread counts — the CI telemetry gate's contract, visible here
  // in a bench table.
  util::Table batched({"path", "trials/s", "speedup", "successes", "msgs",
                       "words", "rounds"});
  {
    const graph::NodeId n = 512;
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    const auto weak = scenario::make_language("weak-coloring", {{"colors", 2}});
    const auto mc =
        scenario::make_construction("weak-color-mc", {{"fixup-rounds", 6}});
    const std::uint64_t trials = 600;
    const std::uint64_t base_seed = 7;

    auto make_plan = [&]() {
      return local::custom_plan(
          "weak-color-batch", trials, base_seed,
          [&](const local::TrialEnv& env) {
            local::Labeling& output = env.arena->labeling();
            mc->run(inst, env, output);
            return weak->contains(inst, output);
          });
    };

    // (a) plain loop: same per-trial seeds, no scratch, no batching.
    util::Timer loop_timer;
    std::uint64_t loop_successes = 0;
    for (std::uint64_t i = 0; i < trials; ++i) {
      const rand::PhiloxCoins coins(
          rand::mix_keys(stats::trial_seed(base_seed, i),
                         local::kConstructionSeedTag),
          rand::Stream::kConstruction);
      const local::EngineResult result =
          algo::run_weak_color_mc(inst, coins, 6);
      if (weak->contains(inst, result.output)) ++loop_successes;
    }
    const double loop_s = loop_timer.elapsed_seconds();

    // (b) batched, 1 worker (arena reuse + program recycling only).
    local::BatchRunner sequential_runner;
    util::Timer seq_timer;
    const stats::Estimate seq_est = sequential_runner.run(make_plan());
    const double batched1_s = seq_timer.elapsed_seconds();

    // (c) batched, 8 workers (arena reuse + trial-granularity parallelism).
    const stats::ThreadPool pool8(8);
    local::BatchRunner parallel_runner(&pool8);
    parallel_runner.run(make_plan());  // warm the arenas
    util::Timer par_timer;
    const stats::Estimate par_est = parallel_runner.run(make_plan());
    const double batched8_s = par_timer.elapsed_seconds();

    const local::Telemetry seq_telemetry = sequential_runner.last_telemetry();
    const local::Telemetry par_telemetry = parallel_runner.last_telemetry();
    const double loop_rate = static_cast<double>(trials) / loop_s;
    batched.new_row()
        .add_cell("plain run_engine loop")
        .add_cell(loop_rate, 0)
        .add_cell(1.0, 2)
        .add_cell(loop_successes)
        .add_cell("-")
        .add_cell("-")
        .add_cell("-");
    batched.new_row()
        .add_cell("BatchRunner 1 thread")
        .add_cell(static_cast<double>(trials) / batched1_s, 0)
        .add_cell(loop_s / batched1_s, 2)
        .add_cell(seq_est.successes)
        .add_cell(seq_telemetry.messages_sent)
        .add_cell(seq_telemetry.words_sent)
        .add_cell(seq_telemetry.rounds_executed);
    batched.new_row()
        .add_cell("BatchRunner 8 threads")
        .add_cell(static_cast<double>(trials) / batched8_s, 0)
        .add_cell(loop_s / batched8_s, 2)
        .add_cell(par_est.successes)
        .add_cell(par_telemetry.messages_sent)
        .add_cell(par_telemetry.words_sent)
        .add_cell(par_telemetry.rounds_executed);
    bench::print_table(batched, &par_telemetry);
  }

  // Value-plan sharded identity: the SAME round-count workload (Luby MIS
  // rounds, the E10 statistic) executed (a) unsharded at 1 thread, (b)
  // unsharded at 8 threads, (c) as a 3-shard merge — the exact-sum
  // mean/stddev must agree BIT FOR BIT across all three (the value-sweep
  // counterpart of the telemetry gate, visible in a bench trajectory).
  std::cout << "Value-plan (mean rounds) thread/shard identity — Luby MIS\n"
               "on a 512-node random-identity ring, 60 trials:\n\n";
  util::Table value_identity(
      {"path", "mean rounds", "stddev", "bit-identical"});
  {
    scenario::ScenarioSpec spec;
    spec.name = "luby-rounds-identity";
    spec.topology = "ring";
    spec.language = "mis";
    spec.construction = "luby-mis";
    spec.workload = local::WorkloadKind::kValue;
    spec.statistic = "rounds";
    spec.params = {{"random-ids", 1}};
    spec.n_grid = {512};
    spec.trials = 60;
    spec.base_seed = 0xE12;
    const scenario::CompiledScenario compiled = scenario::compile(spec);

    const scenario::SweepResult reference = scenario::run_sweep(compiled);
    const stats::ThreadPool pool8(8);
    scenario::SweepOptions pooled;
    pooled.pool = &pool8;
    const scenario::SweepResult threaded =
        scenario::run_sweep(compiled, pooled);
    std::vector<scenario::SweepResult> shards;
    for (unsigned s = 0; s < 3; ++s) {
      scenario::SweepOptions options;
      options.trial_range = local::shard_range(spec.trials, s, 3);
      shards.push_back(scenario::run_sweep(compiled, options));
    }
    const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);

    const stats::MeanEstimate want = scenario::row_mean(reference.rows[0]);
    auto add_row = [&](const char* path, const scenario::SweepResult& run) {
      const stats::MeanEstimate got = scenario::row_mean(run.rows[0]);
      value_identity.new_row()
          .add_cell(path)
          .add_cell(got.mean, 4)
          .add_cell(got.stddev, 4)
          .add_cell(got.mean == want.mean && got.stddev == want.stddev
                        ? "yes"
                        : "NO");
    };
    add_row("unsharded, 1 thread", reference);
    add_row("unsharded, 8 threads", threaded);
    add_row("3-shard merge", merged);
  }
  bench::print_table(value_identity);

  // BallView arena reuse: the direct ball runner's per-node collection
  // with a fresh BallView per node (the pre-arena behavior: five vectors
  // plus an O(n) visited map allocated and zeroed per node) vs one
  // BallWorkspace re-collected in place — what every worker now holds
  // across trials (ROADMAP "BallView arenas"). The collected structures
  // are bit-identical (tests/graph_test.cpp); only allocation differs.
  std::cout << "BallView arena reuse — per-node ball collection on a\n"
               "hard-ring instance, whole-graph sweeps:\n\n";
  util::Table arena_table(
      {"n", "radius", "fresh Mballs/s", "arena Mballs/s", "speedup"});
  for (const auto& [n, radius] :
       std::initializer_list<std::pair<graph::NodeId, int>>{
           {4096, 1}, {4096, 2}, {4096, 4}}) {
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    const int passes = 4;
    std::uint64_t sink = 0;

    util::Timer fresh_timer;
    for (int pass = 0; pass < passes; ++pass) {
      for (graph::NodeId v = 0; v < n; ++v) {
        const graph::BallView ball(inst.g, v, radius);
        sink += ball.size();
      }
    }
    const double fresh_s = fresh_timer.elapsed_seconds();

    graph::BallView reused;
    graph::BallScratch scratch;
    util::Timer arena_timer;
    for (int pass = 0; pass < passes; ++pass) {
      for (graph::NodeId v = 0; v < n; ++v) {
        reused.collect(inst.g, v, radius, scratch);
        sink += reused.size();
      }
    }
    const double arena_s = arena_timer.elapsed_seconds();
    bench::do_not_optimize(sink);

    const double total =
        static_cast<double>(passes) * static_cast<double>(n);
    arena_table.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(std::uint64_t(radius))
        .add_cell(total / fresh_s / 1e6, 2)
        .add_cell(total / arena_s / 1e6, 2)
        .add_cell(fresh_s / arena_s, 2);
  }
  bench::print_table(arena_table);

  // Backend ablation: the SAME vectorizable workloads forced through each
  // trial-execution backend (local/vector_engine.h). The tallies, exact
  // sums, and deterministic telemetry must be bit-identical on every row
  // — the speedup column is the only thing a backend may change. The CI
  // backend identity gate re-asserts the same contract from the CLI
  // (lnc_sweep --backend + tools/check_value_merge.py).
  std::cout << "Trial-execution backend ablation — batched (warm scalar\n"
               "arenas) vs vectorized (SoA lockstep batches), 1 thread,\n"
               "preset-default n:\n\n";
  util::Table backend_table({"workload", "backend", "trials/s",
                             "speedup vs batched", "bit-identical"});
  local::OptimizationConfig vectorized_config;
  {
    using Backend = local::OptimizationConfig::Backend;
    std::vector<scenario::ScenarioSpec> cases;
    {
      // The vectorized backend's showcase: Luby on C_n keeps every halted
      // node paying scalar message costs for the whole O(log n) tail, all
      // of which the SoA skip masks elide (n = 1024 is the middle of the
      // preset's default grid).
      scenario::ScenarioSpec spec =
          *scenario::find_preset("ring-mis-luby-rounds");
      spec.n_grid = {1024};
      spec.trials = 2000;
      cases.push_back(std::move(spec));
    }
    for (const char* preset : {"luby-mis-rounds", "rand-matching-rounds"}) {
      scenario::ScenarioSpec spec = *scenario::find_preset(preset);
      spec.n_grid = {256};
      spec.trials = 400;
      cases.push_back(std::move(spec));
    }
    {
      scenario::ScenarioSpec spec;
      spec.name = "weak-color-mc";
      spec.topology = "hard-ring";
      spec.language = "weak-coloring";
      spec.construction = "weak-color-mc";
      spec.params = {{"colors", 2}, {"fixup-rounds", 6}};
      spec.n_grid = {512};
      spec.trials = 400;
      spec.base_seed = 0xE12;
      cases.push_back(std::move(spec));
    }
    for (scenario::ScenarioSpec& spec : cases) {
      struct Run {
        double seconds = 0;
        local::ShardTally tally;
      };
      auto run_backend = [&](Backend backend) {
        spec.backend = backend;
        const scenario::CompiledScenario compiled = scenario::compile(spec);
        Run run;
        util::Timer timer;
        const scenario::SweepResult result = scenario::run_sweep(compiled);
        run.seconds = timer.elapsed_seconds();
        run.tally = result.rows[0].tally;
        if (backend == Backend::kVectorized) {
          vectorized_config = compiled.points()[0].plan.optimization;
        }
        return run;
      };
      const Run batched = run_backend(Backend::kBatched);
      const Run vectorized = run_backend(Backend::kVectorized);
      auto add_row = [&](const char* backend, const Run& run) {
        const bool identical =
            run.tally.successes == batched.tally.successes &&
            run.tally.value_sum == batched.tally.value_sum &&
            run.tally.value_sum_sq == batched.tally.value_sum_sq &&
            run.tally.telemetry.deterministic_equal(batched.tally.telemetry);
        backend_table.new_row()
            .add_cell(spec.name)
            .add_cell(backend)
            .add_cell(static_cast<double>(spec.trials) / run.seconds, 0)
            .add_cell(batched.seconds / run.seconds, 2)
            .add_cell(identical ? "yes" : "NO");
      };
      add_row("batched", batched);
      add_row("vectorized", vectorized);
    }
  }
  bench::print_table(backend_table, nullptr, &vectorized_config);

  // Observability overhead: the obs layer (src/obs) promises near-zero
  // cost while disabled and a strictly timing-only effect when enabled.
  // The SAME workload runs with the trace recorder + metrics off, then
  // on (spans and latency histograms recorded, the trace then
  // discarded); the bit-identical column re-asserts the timing-only
  // contract from inside the bench harness, and the relative column is
  // the price of --trace.
  std::cout << "Observability overhead — trace recorder + metrics off vs\n"
               "on (Luby MIS rounds, n = 256, 400 trials, 1 thread):\n\n";
  util::Table obs_table(
      {"observability", "trials/s", "relative", "bit-identical"});
  {
    scenario::ScenarioSpec spec = *scenario::find_preset("luby-mis-rounds");
    spec.n_grid = {256};
    spec.trials = 400;
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    scenario::run_sweep(compiled);  // warm-up: allocations out of the timing

    struct Run {
      double seconds = 0;
      local::ShardTally tally;
    };
    auto timed_run = [&](bool enabled) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      if (enabled) {
        recorder.enable();
        obs::set_metrics_enabled(true);
      }
      Run run;
      util::Timer timer;
      const scenario::SweepResult result = scenario::run_sweep(compiled);
      run.seconds = timer.elapsed_seconds();
      run.tally = result.rows[0].tally;
      recorder.disable();
      obs::set_metrics_enabled(false);
      recorder.clear();
      return run;
    };
    const Run off = timed_run(false);
    const Run on = timed_run(true);
    auto add_row = [&](const char* label, const Run& run) {
      const bool identical =
          run.tally.successes == off.tally.successes &&
          run.tally.value_sum == off.tally.value_sum &&
          run.tally.value_sum_sq == off.tally.value_sum_sq &&
          run.tally.telemetry.deterministic_equal(off.tally.telemetry);
      obs_table.new_row()
          .add_cell(label)
          .add_cell(static_cast<double>(spec.trials) / run.seconds, 0)
          .add_cell(off.seconds / run.seconds, 2)
          .add_cell(identical ? "yes" : "NO");
    };
    add_row("off", off);
    add_row("trace + metrics on", on);
  }
  bench::print_table(obs_table);
}

}  // namespace

int main() { print_tables(); }
