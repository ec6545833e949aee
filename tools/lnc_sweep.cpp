// lnc_sweep — the declarative experiment driver over the scenario
// registries (src/scenario). Any registered topology x language x
// construction x decider combination runs from flags or a JSON spec; trial
// ranges shard across processes and merge bit-identically.
//
//   lnc_sweep --list
//       Catalogue: registered components (with parameter schemas) and the
//       preset scenarios.
//   lnc_sweep [spec flags]
//       Run one spec: a preset (--scenario), a spec file (--spec), or an
//       ad hoc spec assembled from component flags, with overrides. The
//       spec flags are shared with lnc_launch and lnc_serve --query
//       (scenario/spec_flags.h; README "Spec flags").
//   lnc_sweep --all [overrides]
//       Run every preset (CI trajectory mode).
//   lnc_sweep --merge SHARD.json...
//       Merge shard result files into the full estimate.
//
// Run flags:
//   --shard i/k      run only trial slice i of k: shard_range(trials, i, k)
//   --trial-range B:E  run only trials [B, E) (emits a mergeable tally)
//   --threads N      worker threads (0 = hardware concurrency; default 1)
//   --cache DIR      answer from / write back to the result store
//   --out FILE       also write the result as JSON (shard or complete)
//   --telemetry      communication-volume columns and a timing line
//   --trace FILE     write a Chrome trace-event JSON span profile
//   --progress       live heartbeat lines (throughput / ETA) on stderr
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_flags.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/service.h"
#include "stats/threadpool.h"
#include "util/build_info.h"
#include "util/string_util.h"

namespace {

using namespace lnc;

int usage(std::ostream& os, int code) {
  os << "usage: lnc_sweep --list\n"
        "       lnc_sweep [spec flags] [run flags]\n"
        "       lnc_sweep --all [spec overrides] [run flags]\n"
        "       lnc_sweep --merge SHARD.json...\n"
     << scenario::spec_flags_usage()
     << "run flags: --shard i/k | --threads N | --out FILE | --telemetry\n"
        "           --trial-range B:E | --cache DIR | --trace FILE\n"
        "           --progress | --help | --version\n"
        "value/counter workloads measure a registered statistic of the\n"
        "construction's output (mean/stddev via exact sums, or exact\n"
        "integer totals) instead of a success probability; sharded value\n"
        "runs --merge back to the unsharded mean bit for bit.\n"
        "--telemetry adds communication-volume columns (msgs/words/rounds/\n"
        "balls; deterministic across thread counts and shardings) plus a\n"
        "timing line (wall time, arena peak; machine-dependent).\n"
        "--backend picks how trials execute (auto tunes per grid point;\n"
        "all backends produce bit-identical tallies, so forcing one is a\n"
        "performance choice, never a results choice).\n"
        "--execution picks the graph representation: materialized builds\n"
        "the CSR graph, implicit synthesizes neighborhoods on demand\n"
        "(ball-bounded memory — rings at n = 10^8 and beyond), auto\n"
        "materializes small grids and goes implicit past the cap. Both\n"
        "paths are bit-identical and share one cache key.\n"
        "--cache DIR reads/writes the content-addressed result store\n"
        "(src/serve): a repeated query is answered from cache, a raised\n"
        "--trials runs only the missing trial range and merges exactly.\n"
        "--trial-range B:E runs only trials [B, E); --shard i/k names\n"
        "the i-th of k near-equal ranges. Ranges --merge in any order.\n"
        "--trace FILE records hierarchical spans (sweep/row/batch/\n"
        "node-range) as Chrome trace-event JSON — open in Perfetto or\n"
        "chrome://tracing — and adds a `metrics` block (latency\n"
        "histograms) to --out JSON. --progress prints rate-limited\n"
        "heartbeats (trials or nodes done, throughput, ETA) to stderr.\n"
        "Both are timing-only: results are bit-identical with or without\n"
        "them (CI's observability gate enforces this).\n"
        "--fault picks a fault model from the faults registry (see --list):\n"
        "lossy links (drop), crash-stop nodes (crash), per-round edge\n"
        "churn (churn). Faulty runs draw every fault from a dedicated\n"
        "per-trial coin stream, so they stay bit-identical across thread\n"
        "counts, shards, and trial ranges like fault-free runs do.\n"
        "build identity: " << lnc::util::build_identity() << "\n";
  return code;
}

void print_schema(const scenario::ParamSchema& schema) {
  for (const scenario::ParamSpec& spec : schema) {
    std::cout << "      " << spec.name << " = " << spec.default_value;
    if (std::isfinite(spec.min_value) || std::isfinite(spec.max_value)) {
      std::cout << " in [" << spec.min_value << ", " << spec.max_value
                << "]";
    }
    std::cout << "  (" << spec.doc << ")\n";
  }
}

void list_catalogue() {
  std::cout << "topologies ([implicit] = giga-scale on-demand capable):\n";
  for (const auto* entry : scenario::topologies().all()) {
    std::cout << "  " << entry->name
              << (entry->build_implicit ? " [implicit]" : "") << " — "
              << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nlanguages:\n";
  for (const auto* entry : scenario::languages().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nconstructions:\n";
  for (const auto* entry : scenario::constructions().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\ndeciders:\n";
  for (const auto* entry : scenario::deciders().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nstatistics (value/counter workloads):\n";
  for (const auto* entry : scenario::statistics().all()) {
    std::cout << "  " << entry->name
              << (entry->integer_valued ? "" : " (value-only)") << " — "
              << entry->doc << "\n";
  }
  std::cout << "\nfaults (--fault / --fault-param):\n";
  for (const auto* entry : scenario::faults().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nscenarios:\n";
  for (const scenario::ScenarioSpec& spec : scenario::preset_scenarios()) {
    std::cout << "  " << spec.name << " — " << spec.topology << " / "
              << spec.language << " / " << spec.construction << " / "
              << spec.decider;
    if (spec.workload != local::WorkloadKind::kSuccess) {
      std::cout << " [" << local::to_string(spec.workload) << ":"
                << spec.statistic << "]";
    }
    std::cout << "\n      " << spec.doc << "\n";
  }
}

struct Options {
  bool list = false;
  bool all = false;
  bool help = false;
  bool version = false;
  scenario::SpecFlags spec;
  std::vector<std::string> merge_files;

  /// --shard i/k as given; each spec resolves it to a trial range.
  std::optional<std::pair<unsigned, unsigned>> shard;
  std::optional<local::TrialRange> trial_range;
  std::optional<std::string> cache_dir;
  unsigned threads = 1;
  bool telemetry = false;
  std::optional<std::string> out_file;
  std::optional<std::string> trace_file;
  bool progress = false;
};

/// Throws std::runtime_error on a usage error.
Options parse_args(int argc, char** argv) {
  Options options;
  scenario::ArgCursor args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (options.spec.parse(args)) continue;
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--merge") {
      while (const std::optional<std::string> file = args.operand()) {
        options.merge_files.push_back(*file);
      }
      if (options.merge_files.empty()) {
        throw std::runtime_error("--merge needs at least one shard file");
      }
    } else if (arg == "--shard") {
      const std::string text = args.value();
      const std::size_t slash = text.find('/');
      // Strict parses: std::stoul would wrap "-1" to ULONG_MAX instead
      // of rejecting it.
      const std::optional<std::uint64_t> index =
          util::parse_uint(text.substr(0, slash));
      const std::optional<std::uint64_t> count =
          slash == std::string::npos ? std::nullopt
                                     : util::parse_uint(text.substr(slash + 1));
      if (!index || !count || *index > 1000000 || *count > 1000000) {
        throw std::runtime_error(
            "--shard expects non-negative integers i/k, got '" + text + "'");
      }
      // Diagnose precisely — "out of range" alone buries which bound
      // was violated.
      if (*count == 0) {
        throw std::runtime_error("--shard " + text +
                                 " is invalid: the shard count k must be "
                                 "at least 1");
      }
      if (*index >= *count) {
        throw std::runtime_error(
            "--shard " + text + " is invalid: the shard index i must "
            "satisfy i < k (indices are 0-based, so the last shard of k=" +
            std::to_string(*count) + " is " + std::to_string(*count - 1) +
            ")");
      }
      options.shard = {static_cast<unsigned>(*index),
                       static_cast<unsigned>(*count)};
    } else if (arg == "--trial-range") {
      const std::string text = args.value();
      const std::size_t colon = text.find(':');
      const std::optional<std::uint64_t> begin =
          util::parse_uint(text.substr(0, colon));
      const std::optional<std::uint64_t> end =
          colon == std::string::npos ? std::nullopt
                                     : util::parse_uint(text.substr(colon + 1));
      if (!begin || !end) {
        throw std::runtime_error(
            "--trial-range expects non-negative integers B:E, got '" + text +
            "'");
      }
      if (*begin >= *end) {
        throw std::runtime_error("--trial-range " + text +
                                 " is empty: B must be strictly below E");
      }
      options.trial_range = local::TrialRange{*begin, *end};
    } else if (arg == "--cache") {
      options.cache_dir = args.value();
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(args.uint_value(4096));
    } else if (arg == "--telemetry") {
      options.telemetry = true;
    } else if (arg == "--out") {
      options.out_file = args.value();
    } else if (arg == "--trace") {
      options.trace_file = args.value();
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--help") {
      options.help = true;
    } else if (arg == "--version") {
      options.version = true;
    } else {
      throw std::runtime_error("unknown flag '" + arg + "'");
    }
  }
  if (options.all && !options.spec.source_flag.empty()) {
    throw std::runtime_error("--all and " + options.spec.source_flag +
                             " both name the spec source; give one");
  }
  if (options.trial_range && options.shard) {
    throw std::runtime_error("--trial-range and --shard are mutually "
                             "exclusive (a shard IS a trial range)");
  }
  if (options.cache_dir &&
      (options.shard || options.trial_range ||
       !options.merge_files.empty())) {
    throw std::runtime_error("--cache serves complete results only — it "
                             "cannot be combined with --shard, "
                             "--trial-range, or --merge");
  }
  return options;
}

/// The --out path for one scenario: unchanged for a single run, suffixed
/// with the scenario name for multi-scenario runs (--all), so later runs
/// do not overwrite earlier ones.
std::string out_path_for(const std::string& out_file, const std::string& name,
                         bool multiple) {
  if (!multiple) return out_file;
  const std::size_t dot = out_file.rfind('.');
  if (dot == std::string::npos || out_file.find('/', dot) != std::string::npos) {
    return out_file + "-" + name;
  }
  return out_file.substr(0, dot) + "-" + name + out_file.substr(dot);
}

/// Writes the result JSON to `path` atomically (scenario::write_json_file)
/// and reports failures on stderr. A failed --out MUST exit nonzero with
/// no file left at `path`: the launch supervisor (tools/lnc_launch.cpp)
/// keys off the exit code, and a partial file would poison the merge.
bool write_result_file(const std::string& path,
                       const scenario::SweepResult& result) {
  const std::string error = scenario::write_json_file(path, result);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return false;
  }
  return true;
}

/// Two summary lines per result: the deterministic counters on one (CI
/// greps and diffs this line across thread counts and shardings), the
/// machine-dependent timing on the other.
void print_telemetry_summary(std::ostream& os,
                             const scenario::SweepResult& result) {
  const local::Telemetry total = scenario::result_telemetry(result);
  os << "telemetry[" << result.scenario
     << "]: messages=" << total.messages_sent
     << " words=" << total.words_sent << " rounds=" << total.rounds_executed
     << " ball_expansions=" << total.ball_expansions
     << " messages_dropped=" << total.messages_dropped
     << " nodes_crashed=" << total.nodes_crashed
     << " edges_churned=" << total.edges_churned << "\n";
  // cpu-trial-secs is the SUM of per-trial wall time across workers
  // (telemetry.wall_seconds) — on an 8-thread run it reads ~8x the true
  // elapsed time; wall-secs is the real elapsed wall-clock summed over
  // the rows' single per-grid-point measurements.
  double elapsed = 0.0;
  for (const scenario::SweepRow& row : result.rows) {
    elapsed += row.elapsed_seconds;
  }
  std::ostringstream timing;
  timing.precision(3);
  timing << std::fixed << "timing[" << result.scenario
         << "]: cpu-trial-secs=" << total.wall_seconds
         << " wall-secs=" << elapsed
         << " arena_peak_bytes=" << total.arena_peak_bytes;
  os << timing.str() << "\n\n";
}

/// Owns the global node-granularity heartbeat for one run and guarantees
/// uninstall-before-destroy on every exit path.
struct NodeProgressGuard {
  std::optional<obs::Progress> heartbeat;
  ~NodeProgressGuard() {
    if (heartbeat) {
      obs::install_node_progress(nullptr);
      heartbeat->finish();
    }
  }
};

int run_one(const scenario::ScenarioSpec& spec, const Options& options,
            bool multiple_specs, const stats::ThreadPool* pool,
            serve::SweepService* service, std::ostream& os) {
  const std::string error = scenario::validate(spec);
  if (!error.empty()) {
    std::cerr << "invalid scenario '" << spec.name << "': " << error << "\n";
    return 1;
  }
  // Node-granularity heartbeat (implicit streaming loops tick it through
  // the global channel); trial-granularity progress is wired through
  // SweepOptions below. Both print to stderr — stdout owns the tables.
  NodeProgressGuard node_progress;
  if (options.progress) {
    node_progress.heartbeat.emplace("nodes:" + spec.name, 0, "nodes",
                                    &std::cerr);
    obs::install_node_progress(&*node_progress.heartbeat);
  }
  // From here on a shard is only the trial range it names for this spec.
  const std::optional<local::TrialRange> range =
      options.shard ? local::shard_range(spec.trials, options.shard->first,
                                         options.shard->second)
                    : options.trial_range;
  if (range && range->end > spec.trials) {
    std::cerr << "--trial-range [" << range->begin << ", " << range->end
              << ") exceeds the spec's " << spec.trials << " trials\n";
    return 1;
  }
  scenario::SweepResult result;
  if (service != nullptr) {
    // Read-through/write-back against the content-addressed store: a
    // repeated run is a hit, a raised --trials computes only the delta.
    serve::QueryOutcome outcome;
    try {
      outcome = service->query(spec);
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 1;
    }
    for (const std::string& note : outcome.notes) {
      std::cerr << "note: " << note << "\n";
    }
    // Grep-stable (CI's cache gate keys off this line).
    os << serve::cache_line(spec.name, outcome.outcome,
                            outcome.trials_reused, outcome.trials_computed,
                            outcome.key)
       << "\n";
    result = std::move(outcome.result);
  } else {
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    scenario::SweepOptions sweep_options;
    sweep_options.trial_range = range;
    sweep_options.pool = pool;
    std::optional<obs::Progress> trial_progress;
    if (options.progress) {
      trial_progress.emplace(
          "sweep:" + spec.name,
          (range ? range->count() : spec.trials) * compiled.points().size(),
          "trials", &std::cerr);
      sweep_options.progress = &*trial_progress;
    }
    result = scenario::run_sweep(compiled, sweep_options);
    if (trial_progress) trial_progress->finish();
  }

  os << "=== " << spec.name << " — " << spec.topology << " / "
     << spec.language << " / " << spec.construction << " / " << spec.decider;
  if (spec.workload == local::WorkloadKind::kSuccess) {
    os << " (success = " << (spec.success_on_accept ? "accept" : "reject");
  } else {
    os << " (" << local::to_string(spec.workload) << " of "
       << spec.statistic;
  }
  os << ", seed = " << spec.base_seed;
  if (range) os << ", trials [" << range->begin << ", " << range->end << ")";
  os << ") ===\n";
  if (!spec.doc.empty()) os << spec.doc << "\n";
  scenario::to_table(result, options.telemetry).print(os);
  for (const std::string& line : scenario::summary_lines(result)) {
    os << line << "\n";
  }
  os << "\n";
  if (options.telemetry) print_telemetry_summary(os, result);

  if (options.out_file) {
    const std::string path =
        out_path_for(*options.out_file, spec.name, multiple_specs);
    if (!write_result_file(path, result)) return 1;
  }
  return 0;
}

int merge_mode(const Options& options) {
  scenario::SweepResult merged;
  std::vector<std::string> warnings;
  try {
    // The same gather step the distributed launcher runs
    // (scenario::merge_sweep_files — src/orchestrate reuses it).
    merged = scenario::merge_sweep_files(options.merge_files, &warnings);
  } catch (const std::exception& ex) {
    for (const std::string& warning : warnings) {
      std::cerr << "warning: " << warning << "\n";
    }
    std::cerr << ex.what() << "\n";
    return 1;
  }
  for (const std::string& warning : warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  std::cout << "=== " << merged.scenario << " (merged from "
            << options.merge_files.size() << " shard files) ===\n";
  scenario::to_table(merged, options.telemetry).print(std::cout);
  for (const std::string& line : scenario::summary_lines(merged)) {
    std::cout << line << "\n";
  }
  if (options.telemetry) {
    std::cout << "\n";
    print_telemetry_summary(std::cout, merged);
  }
  if (options.out_file) {
    if (!write_result_file(*options.out_file, merged)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_args(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    return usage(std::cerr, 2);
  }
  if (options.help) return usage(std::cout, 0);
  if (options.version) {
    std::cout << "lnc_sweep (" << lnc::util::build_identity() << ")\n";
    return 0;
  }
  if (options.list) {
    list_catalogue();
    return 0;
  }
  if (!options.merge_files.empty()) return merge_mode(options);
  if (!options.all && !options.spec.given()) return usage(std::cerr, 2);

  std::vector<scenario::ScenarioSpec> specs;
  try {
    if (options.all) {
      specs = scenario::preset_scenarios();
    } else {
      specs.push_back(options.spec.base());
    }
    for (scenario::ScenarioSpec& spec : specs) {
      scenario::apply_spec_fields(options.spec.overrides, spec);
    }
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    return 1;
  }

  if (options.trace_file) {
    // --trace turns on both pillars that cost anything: span recording
    // and the metrics registries (which then land as the result JSON's
    // `metrics` block). Results stay bit-identical either way — the CI
    // observability gate holds lnc_sweep to that.
    obs::TraceRecorder::instance().enable();
    obs::set_metrics_enabled(true);
  }

  std::optional<stats::ThreadPool> pool;
  if (options.threads != 1) pool.emplace(options.threads);

  std::optional<serve::SweepService> service;
  if (options.cache_dir) {
    try {
      service.emplace(*options.cache_dir,
                      serve::ServiceOptions{options.threads});
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 1;
    }
  }

  int rc = 0;
  for (const scenario::ScenarioSpec& spec : specs) {
    rc |= run_one(spec, options, specs.size() > 1, pool ? &*pool : nullptr,
                  service ? &*service : nullptr, std::cout);
  }

  if (options.trace_file) {
    // Workers are idle by now (the pool outlives every sweep), so the
    // buffers are quiescent and the write is race-free.
    const obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    std::string trace_error;
    if (!recorder.write_file(*options.trace_file, &trace_error)) {
      std::cerr << "cannot write trace: " << trace_error << "\n";
      rc |= 1;
    } else {
      std::cerr << "trace: wrote " << *options.trace_file << " ("
                << recorder.event_count() << " spans";
      if (recorder.dropped_count() > 0) {
        std::cerr << ", " << recorder.dropped_count() << " dropped";
      }
      std::cerr << ")\n";
    }
  }
  return rc;
}
