// The traced run's layer probes. Each probe calls one layer's public
// functions from outside, inside spans recorded through the public
// obs::TraceRecorder; the Chrome trace is written out, read back and
// reduced to per-name totals and per-layer self time, and every per-layer
// metric is computed from that reduction.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algo/luby_mis.h"
#include "decide/evaluate.h"
#include "graph/ball.h"
#include "graph/implicit.h"
#include "local/batch_runner.h"
#include "local/engine.h"
#include "obs/trace.h"
#include "rand/coins.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/spec_json.h"
#include "serve/cache_key.h"
#include "serve/daemon.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "serve_mix.h"
#include "stats/threadpool.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace scenario = lnc::scenario;
using lnc::obs::TraceRecorder;

/// Fresh-seed compiles of the whole preset catalogue per traced run.
constexpr int kCompileReps = 3;
/// Ring size of the timed implicit (streaming) sweep.
constexpr std::uint64_t kImplicitRingN = 1u << 18;

/// Span names must outlive the recorder's buffers (they are kept by
/// pointer); per-preset names are made once and never freed.
const char* preset_span_name(const std::string& preset) {
  static std::set<std::string>* names = new std::set<std::string>;
  return names->insert("preset." + preset).first->c_str();
}

/// Runs `body` inside one span named `name`. The span's args record how
/// many layer calls it covers, the units of work `body` returns, and the
/// thread CPU time it took, for the reduction to divide by.
template <typename Body>
void span(const char* name, std::uint64_t calls, Body&& body) {
  const std::uint64_t start = lnc::obs::now_micros();
  const double cpu = thread_cpu_seconds();
  const double units = body();
  const double cpu_us = 1e6 * (thread_cpu_seconds() - cpu);
  const std::uint64_t end = lnc::obs::now_micros();
  std::ostringstream args;
  args.precision(17);
  args << "\"calls\": " << calls << ", \"units\": " << units
       << ", \"cpu_us\": " << cpu_us;
  TraceRecorder::instance().record(name, start, end - start, args.str());
}

/// Per span name, summed over the trace.
struct Totals {
  std::uint64_t count = 0;
  double dur_us = 0.0;
  double self_us = 0.0;
  double calls = 0.0;
  double units = 0.0;
  double cpu_us = 0.0;
};

/// Reads a Chrome trace back and reduces it: per name, the summed
/// duration, self time (duration minus the direct children recorded on
/// the same thread) and the probe args.
std::map<std::string, Totals> reduce_trace(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const scenario::Json root = scenario::Json::parse(text.str());
  struct Open {
    double end = 0.0;
    std::string name;
  };
  std::map<std::uint64_t, std::vector<Open>> stacks;  // per thread
  std::map<std::string, Totals> totals;
  for (const scenario::Json& event : root.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    const double ts = event.at("ts").as_number();
    const double dur = event.at("dur").as_number();
    std::vector<Open>& stack = stacks[event.at("tid").as_uint64()];
    while (!stack.empty() && stack.back().end <= ts) stack.pop_back();
    if (!stack.empty()) totals[stack.back().name].self_us -= dur;
    stack.push_back({ts + dur, name});
    Totals& t = totals[name];
    ++t.count;
    t.dur_us += dur;
    t.self_us += dur;
    if (event.has("args")) {
      const scenario::Json& args = event.at("args");
      if (args.has("calls")) t.calls += args.at("calls").as_number();
      if (args.has("units")) t.units += args.at("units").as_number();
      if (args.has("cpu_us")) t.cpu_us += args.at("cpu_us").as_number();
    }
  }
  return totals;
}

/// Writes per-name totals and per-layer self time (the layer is the
/// span name up to its first dot) beside the trace.
void write_summary(const std::string& path,
                   const std::map<std::string, Totals>& totals) {
  std::map<std::string, double> layer_self_ms;
  std::ofstream out(path);
  out.precision(17);
  out << "{\"spans\": {";
  bool first = true;
  for (const auto& [name, t] : totals) {
    layer_self_ms[name.substr(0, name.find('.'))] += t.self_us / 1e3;
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << t.count
        << ", \"total_ms\": " << t.dur_us / 1e3
        << ", \"self_ms\": " << t.self_us / 1e3 << "}";
    first = false;
  }
  out << "}, \"layer_self_ms\": {";
  first = true;
  for (const auto& [layer, ms] : layer_self_ms) {
    out << (first ? "" : ", ") << "\"" << layer << "\": " << ms;
    first = false;
    std::cerr << "perfbench: layer " << layer << " self " << ms << " ms\n";
  }
  out << "}}\n";
}

// ------------------------------------------------------------------ probes --

struct Probes {
  Probes(const Options& opts, Report& rep) : options(opts), report(rep) {
    for (const scenario::ScenarioSpec& preset : scenario::preset_scenarios()) {
      specs.push_back(seeded(preset, 0));
    }
  }

  const Options& options;
  Report& report;
  lnc::stats::ThreadPool pool{4};
  std::vector<scenario::ScenarioSpec> specs;  ///< presets, seeds mixed

  scenario::ScenarioSpec seeded(const scenario::ScenarioSpec& preset,
                                std::uint64_t salt) const {
    scenario::ScenarioSpec spec = preset;
    spec.base_seed = mix(preset.base_seed, mix(options.seed, salt));
    if (options.tiny) {
      spec.trials = std::max<std::uint64_t>(1, spec.trials / 50);
    }
    return spec;
  }

  /// scenario + graph: compile, validate, build_instance.
  void compile_and_build() {
    for (int rep = 0; rep < kCompileReps; ++rep) {
      for (const scenario::ScenarioSpec& preset :
           scenario::preset_scenarios()) {
        const scenario::ScenarioSpec spec = seeded(preset, 100 + rep);
        span("scenario.compile", 1, [&] {
          scenario::compile(spec);
          return 1.0;
        });
        for (const std::uint64_t n : spec.n_grid) {
          span("graph.build_instance", 1, [&] {
            return static_cast<double>(
                scenario::build_instance(spec.topology, n, spec.params,
                                         mix(spec.base_seed, n))
                    .node_count());
          });
        }
      }
    }
    const int calls = options.tiny ? 10 : 200;
    for (const scenario::ScenarioSpec& spec : specs) {
      span("scenario.validate", calls, [&] {
        bool ok = true;
        for (int i = 0; i < calls; ++i) {
          ok = ok && scenario::validate(spec).empty();
        }
        report.check(ok, "validate " + spec.name);
        return 0.0;
      });
    }
  }

  /// Every preset swept at one thread (per-preset CPU, telemetry counts)
  /// and at four; merge_trial_ranges on one split result.
  void sweeps(lnc::local::Telemetry& telemetry) {
    std::vector<scenario::SweepResult> single;
    for (const scenario::ScenarioSpec& spec : specs) {
      const scenario::CompiledScenario compiled = scenario::compile(spec);
      span(preset_span_name(spec.name), 1, [&] {
        single.push_back(scenario::run_sweep(compiled));
        return static_cast<double>(result_trials(single.back()));
      });
      telemetry.merge(scenario::result_telemetry(single.back()));
      scenario::SweepOptions threaded;
      threaded.pool = &pool;
      span("scenario.sweep_4t", 1, [&] {
        const scenario::SweepResult result =
            scenario::run_sweep(compiled, threaded);
        std::string why;
        report.check(same_result(result, single.back(), &why),
                     "4-thread sweep: " + why);
        return static_cast<double>(result_trials(result));
      });
    }

    const scenario::ScenarioSpec spec =
        seeded(*scenario::find_preset("ring-amos-yes"), 200);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    std::vector<scenario::SweepResult> parts;
    for (const auto& range :
         {lnc::local::TrialRange{0, spec.trials / 2},
          lnc::local::TrialRange{spec.trials / 2, spec.trials}}) {
      scenario::SweepOptions sweep_options;
      sweep_options.trial_range = range;
      parts.push_back(scenario::run_sweep(compiled, sweep_options));
    }
    scenario::SweepResult merged;
    const int calls = options.tiny ? 10 : 200;
    span("scenario.merge_trial_ranges", calls, [&] {
      for (int i = 0; i < calls; ++i) {
        merged = scenario::merge_trial_ranges(parts);
      }
      return 0.0;
    });
    std::string why;
    report.check(same_result(merged, scenario::run_sweep(compiled), &why),
                 "merged trial ranges: " + why);

    // local, implicit path: ring-mis-implicit streamed (construct, then
    // decide, with no materialized graph) at a larger n than the preset's,
    // where the preset itself materializes. It must reproduce the
    // materialized ring bit for bit.
    scenario::ScenarioSpec ring =
        seeded(*scenario::find_preset("ring-mis-implicit"), 300);
    ring.n_grid = {options.tiny ? 4096u : kImplicitRingN};
    ring.trials = 4;
    scenario::SweepOptions threaded;
    threaded.pool = &pool;
    ring.execution = scenario::Execution::kImplicit;
    const scenario::CompiledScenario streamed = scenario::compile(ring);
    scenario::SweepResult implicit;
    span("local.implicit", 1, [&] {
      implicit = scenario::run_sweep(streamed, threaded);
      return static_cast<double>(ring.n_grid[0] * result_trials(implicit));
    });
    ring.execution = scenario::Execution::kMaterialized;
    scenario::SweepResult materialized =
        scenario::run_sweep(scenario::compile(ring), threaded);
    if (options.corrupt_reference) corrupt(materialized);
    report.check(same_result(implicit, materialized, &why),
                 "implicit vs materialized ring: " + why);
  }

  /// local: BatchRunner::run_shard with each backend forced, and
  /// run_engine on a ring.
  void local_engine() {
    using Backend = lnc::local::OptimizationConfig::Backend;
    for (const scenario::ScenarioSpec& preset : specs) {
      scenario::ScenarioSpec batched = preset;
      batched.backend = Backend::kBatched;
      scenario::ScenarioSpec vectorized = preset;
      vectorized.backend = Backend::kVectorized;
      const scenario::CompiledScenario a = scenario::compile(batched);
      const scenario::CompiledScenario b = scenario::compile(vectorized);
      bool engine_backed = false;
      for (const auto& point : a.points()) {
        engine_backed = engine_backed || point.plan.vector.factory != nullptr;
      }
      if (!engine_backed) continue;
      for (std::size_t i = 0; i < a.points().size(); ++i) {
        const auto& plan_a = a.points()[i].plan;
        const auto& plan_b = b.points()[i].plan;
        lnc::local::ShardTally tally_a;
        lnc::local::ShardTally tally_b;
        span("local.batched", 1, [&] {
          lnc::local::BatchRunner runner;
          tally_a = runner.run_shard(plan_a, {0, plan_a.trials});
          return static_cast<double>(plan_a.trials);
        });
        span("local.vectorized", 1, [&] {
          lnc::local::BatchRunner runner;
          tally_b = runner.run_shard(plan_b, {0, plan_b.trials});
          return static_cast<double>(plan_b.trials);
        });
        report.check(same_tally(tally_a, tally_b),
                     "batched vs vectorized run_shard: " + preset.name);
      }
    }

    const std::uint64_t n = options.tiny ? 256 : 4096;
    const lnc::local::Instance ring =
        scenario::build_instance("ring", n, {}, options.seed);
    const lnc::algo::LubyMisFactory factory;
    lnc::local::EngineScratch scratch;
    lnc::local::Labeling output;
    const int runs = options.tiny ? 2 : 40;
    span("local.run_engine", runs, [&] {
      double node_rounds = 0.0;
      for (int i = 0; i < runs; ++i) {
        const lnc::rand::PhiloxCoins coins(mix(options.seed, i),
                                           lnc::rand::Stream::kConstruction);
        lnc::local::EngineOptions engine;
        engine.coins = &coins;
        engine.scratch = &scratch;
        lnc::local::EngineResult result =
            lnc::local::run_engine(ring, factory, engine);
        report.check(result.completed, "run_engine completed");
        node_rounds += static_cast<double>(n) * result.rounds;
        output = std::move(result.output);
      }
      return node_rounds;
    });

    // decide: the lcl decider over the last MIS.
    const auto language = scenario::make_language("mis");
    const auto decider = scenario::make_decider("lcl", language.get());
    const lnc::rand::PhiloxCoins coins(options.seed,
                                       lnc::rand::Stream::kDecision);
    span("decide.evaluate", runs, [&] {
      bool accepted = true;
      for (int i = 0; i < runs; ++i) {
        accepted =
            accepted &&
            lnc::decide::evaluate(ring, output, *decider, coins).accepted;
      }
      report.check(accepted, "lcl decider accepts Luby's MIS");
      return 0.0;
    });
  }

  /// graph: radius-4 balls collected on the implicit ring at n = 10^6.
  void ball_collect() {
    const auto ring = lnc::graph::implicit_cycle(1'000'000);
    const std::uint64_t centers = options.tiny ? 1000 : 200'000;
    lnc::graph::BallView view;
    lnc::graph::BallScratch scratch;
    std::uint64_t members = 0;
    span("graph.ball_collect", centers, [&] {
      for (std::uint64_t c = 0; c < centers; ++c) {
        const auto center =
            static_cast<lnc::graph::NodeId>(c * 4999 % 1'000'000);
        view.collect(*ring, center, 4, scratch);
        members += view.size();
      }
      return static_cast<double>(centers);
    });
    report.check(members == 9 * centers, "radius-4 ring balls hold 9 nodes");
  }

  /// serve: a short serve-mix closed loop, then its layers called
  /// directly on the store it left behind.
  /// Adds the mix's own metrics to the report; returns its median hit
  /// round trip in ms.
  double serve() {
    Options mix_options = options;
    mix_options.work_dir = options.work_dir + "/probe";
    ServeMix mix_run(mix_options);
    Timing timing;
    mix_run.setup(0, timing);
    const int rounds = options.tiny ? 1 : 8;
    for (int r = 0; r < rounds; ++r) {
      span("serve.round", 1, [&] { return mix_run.round(timing); });
    }
    const ServeCounts counts = mix_run.round_counts();
    mix_run.check(report);

    using Kind = ServeMix::Kind;
    report.add("serve.hits", static_cast<double>(counts.hits), "count");
    report.add("serve.topups", static_cast<double>(counts.topups), "count");
    report.add("serve.misses", static_cast<double>(counts.misses), "count");
    report.add("serve.reuse_ratio",
               static_cast<double>(counts.trials_reused) /
                   static_cast<double>(counts.trials_reused +
                                       counts.trials_computed),
               "ratio");
    report.add("serve.response_bytes", median(mix_run.hit_response_bytes()),
               "bytes");
    const double hit_p50_ms = median(mix_run.latencies(Kind::kHit));
    report.add("serve.hit_p50_ms", hit_p50_ms, "ms");
    report.add("serve.hit_p95_ms",
               quantile(mix_run.latencies(Kind::kHit), 0.95), "ms");
    report.add("serve.topup_p50_ms", median(mix_run.latencies(Kind::kTopUp)),
               "ms");
    report.add("serve.miss_p50_ms", median(mix_run.latencies(Kind::kMiss)),
               "ms");

    // The same hit, answered in-process without a socket; and the
    // layers under it.
    const int calls = options.tiny ? 5 : 200;
    const std::string line = mix_run.warm_hit_line();
    lnc::serve::SweepService service(mix_run.store_dir(), {1});
    span("serve.handle_request", calls, [&] {
      bool hit = true;
      for (int i = 0; i < calls; ++i) {
        hit = hit && lnc::serve::handle_request_line(service, line).find(
                         "\"outcome\": \"hit\"") != std::string::npos;
      }
      report.check(hit, "in-process hit");
      return 0.0;
    });
    const scenario::Json request = scenario::Json::parse(line);
    scenario::ScenarioSpec spec =
        *scenario::find_preset(request.at("scenario").as_string());
    spec.trials = request.at("trials").as_uint64();
    spec.base_seed = request.at("seed").as_uint64();
    spec.n_grid.clear();
    for (const scenario::Json& n : request.at("n").as_array()) {
      spec.n_grid.push_back(n.as_uint64());
    }
    lnc::serve::CacheKey key;
    span("serve.cache_key", calls * 10, [&] {
      for (int i = 0; i < calls * 10; ++i) key = lnc::serve::cache_key(spec);
      return 0.0;
    });
    const lnc::serve::ResultStore store(mix_run.store_dir());
    std::optional<lnc::serve::CacheEntry> entry;
    span("serve.lookup", calls, [&] {
      for (int i = 0; i < calls; ++i) entry = store.lookup(key);
      return 0.0;
    });
    report.check(entry.has_value(), "store lookup of a warm key");
    if (!entry) return hit_p50_ms;
    std::ifstream file(store.path_for(key));
    std::stringstream text;
    text << file.rdbuf();
    span("serve.entry_parse", calls, [&] {
      for (int i = 0; i < calls; ++i) lnc::serve::entry_from_json(text.str());
      return 0.0;
    });
    const lnc::serve::ResultStore scratch_store(mix_options.work_dir +
                                                "/store-probe");
    span("serve.store", calls / 4, [&] {
      bool stored = true;
      for (int i = 0; i < calls / 4; ++i) {
        stored = stored && scratch_store.store(*entry).empty();
      }
      report.check(stored, "store write");
      return 0.0;
    });
    mix_run.teardown();
    std::filesystem::remove_all(mix_options.work_dir);
    return hit_p50_ms;
  }
};

}  // namespace

void run_layer_probes(const Options& options, Report& report) {
  // The trace keeps the workload's traced rounds too, so the summary's
  // per-layer self time covers the workload as well as the probes.
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.enable();
  Probes probes(options, report);
  lnc::local::Telemetry telemetry;
  probes.compile_and_build();
  probes.sweeps(telemetry);
  probes.local_engine();
  probes.ball_collect();
  const double hit_p50_ms = probes.serve();
  recorder.disable();

  const std::string trace_path = options.work_dir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
  std::string error;
  if (!recorder.write_file(trace_path, &error)) {
    throw std::runtime_error("cannot write trace: " + error);
  }
  const std::map<std::string, Totals> totals = reduce_trace(trace_path);
  write_summary(trace_path.substr(0, trace_path.size() - 5) + ".summary.json",
                totals);

  const auto at = [&](const std::string& name) -> const Totals& {
    static const Totals none;
    const auto it = totals.find(name);
    report.check(it != totals.end() && it->second.count > 0,
                 "trace holds span " + name);
    return it == totals.end() ? none : it->second;
  };
  const auto per_call = [&](const std::string& name, double scale) {
    const Totals& t = at(name);
    return scale * t.dur_us / std::max(1.0, t.calls);
  };
  const auto rate = [&](const std::string& name) {
    const Totals& t = at(name);
    return t.units / std::max(1e-9, t.dur_us * 1e-6);
  };
  report.add("scenario.compile_ms",
             at("scenario.compile").dur_us / 1e3 / kCompileReps, "ms");
  report.add("scenario.validate_us", per_call("scenario.validate", 1.0), "us");
  report.add("scenario.merge_trial_ranges_ms",
             per_call("scenario.merge_trial_ranges", 1e-3), "ms");
  Totals single_thread;  // the per-preset spans are the 1-thread sweeps
  for (const scenario::ScenarioSpec& preset : scenario::preset_scenarios()) {
    const Totals& t = at(preset_span_name(preset.name));
    single_thread.units += t.units;
    single_thread.dur_us += t.dur_us;
  }
  report.add("scenario.sweep_1t.trials_per_s",
             single_thread.units / std::max(1e-9, single_thread.dur_us * 1e-6),
             "1/s");
  report.add("scenario.sweep_4t.trials_per_s", rate("scenario.sweep_4t"),
             "1/s");
  for (const scenario::ScenarioSpec& preset : scenario::preset_scenarios()) {
    report.add("preset." + preset.name + ".cpu_s",
               at(preset_span_name(preset.name)).cpu_us * 1e-6, "s");
  }
  report.add("graph.build_instance_ms",
             at("graph.build_instance").dur_us / 1e3 / kCompileReps, "ms");
  report.add("graph.ball_collect.nodes_per_s", rate("graph.ball_collect"),
             "1/s");
  report.add("local.batched.trials_per_s", rate("local.batched"), "1/s");
  report.add("local.vectorized.trials_per_s", rate("local.vectorized"), "1/s");
  report.add("local.run_engine.node_rounds_per_s", rate("local.run_engine"),
             "1/s");
  report.add("local.implicit.nodes_per_s", rate("local.implicit"), "1/s");
  const auto count = [&](const char* name, std::uint64_t value) {
    report.add(name, static_cast<double>(value), "count");
  };
  count("local.messages", telemetry.messages_sent);
  count("local.words", telemetry.words_sent);
  count("local.rounds", telemetry.rounds_executed);
  count("local.ball_expansions", telemetry.ball_expansions);
  report.add("decide.evaluate_us", per_call("decide.evaluate", 1.0), "us");
  report.add("serve.cache_key_us", per_call("serve.cache_key", 1.0), "us");
  report.add("serve.lookup_ms", per_call("serve.lookup", 1e-3), "ms");
  report.add("serve.entry_parse_ms", per_call("serve.entry_parse", 1e-3), "ms");
  const double handle_ms = per_call("serve.handle_request", 1e-3);
  report.add("serve.handle_request_ms", handle_ms, "ms");
  report.add("serve.transport_ms", hit_p50_ms - handle_ms, "ms");
  report.add("serve.store_ms", per_call("serve.store", 1e-3), "ms");
}

}  // namespace perfbench
