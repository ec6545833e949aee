// lnc_launch — the distributed sweep orchestrator (src/orchestrate).
//
// Turns any scenario into a fleet of `lnc_sweep --shard i/k` jobs, runs
// them over a pluggable transport with per-job timeouts and
// retry-with-backoff, records every state transition in a persistent run
// manifest, and gathers the shard results into the EXACT unsharded
// SweepResult (estimates, exact-sum value accumulators, counter slots,
// and deterministic telemetry counters are bit-identical — the same
// merge contract `lnc_sweep --merge` obeys).
//
//   lnc_launch [spec flags] --shards K [options]
//       Plan a fresh run directory for the spec (a preset, a spec file,
//       or an ad hoc spec — the spec flags lnc_sweep and lnc_serve
//       --query share, scenario/spec_flags.h) and execute it.
//   lnc_launch --resume DIR [options]
//       Re-run only the missing/failed shards of an interrupted run,
//       then merge. The spec is frozen in DIR: no spec flag applies.
//
// Options:
//   --run-dir DIR        run directory (default lnc-run-<scenario>)
//   --transport local|ssh   (default local: fork/exec lnc_sweep)
//   --ssh-template TMPL  ssh/srun command template; {cmd} expands to the
//                        lnc_sweep invocation (bare shell-safe words —
//                        pick run-dir/binary paths without spaces),
//                        {shard} to the shard index, e.g.
//                        'ssh worker{shard} {cmd}'. The run directory
//                        must be on a filesystem the remote command can
//                        reach.
//   --remote-sweep CMD   lnc_sweep spelling on the executor (ssh only)
//   --sweep-bin PATH     local lnc_sweep binary (default: next to this)
//   --sweep-threads N    lnc_sweep --threads per shard (default 1)
//   --jobs J             concurrent shard jobs (default min(K, cores))
//   --timeout SEC        per-attempt deadline; stragglers are killed and
//                        re-dispatched (default: none)
//   --retries N          attempts per shard per run (default 3)
//   --backoff-ms MS      first retry delay, doubling per retry (def 100)
//   --out FILE           also write the merged result JSON
//   --trace FILE         write a Chrome trace-event JSON of the fleet:
//                        one "shard-attempt" span per dispatch attempt
//                        (tagged shard/attempt/outcome), a "merge" span,
//                        and the enclosing "fleet" span. Load in
//                        Perfetto (ui.perfetto.dev). Timing-only: the
//                        merged result is bit-identical with or without.
//   --progress           live fleet heartbeat on stderr (shards done,
//                        throughput, ETA) between the per-transition
//                        launch[...] lines
//   --cache DIR          content-addressed result store (serve/): a
//                        cached result at >= the requested trials is
//                        served without launching any shard; a cached
//                        PREFIX turns the fleet into a top-up run that
//                        computes only the missing trial range and merges
//                        bit-identically; misses run the classic fleet.
//                        Merged results are written back to the store
//                        (also on --resume, by re-reading the frozen
//                        spec).
//   --inject-fail S[:T]  TEST HOOK: fail shard S's first T attempts
//                        (default 1) before reaching the transport — CI
//                        exercises the retry path with this.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "orchestrate/launch.h"
#include "orchestrate/manifest.h"
#include "orchestrate/supervisor.h"
#include "orchestrate/transport.h"
#include "scenario/scenario.h"
#include "scenario/spec_flags.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "util/build_info.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace {

using namespace lnc;

int usage(std::ostream& os, int code) {
  os << "usage: lnc_launch [spec flags] --shards K [options]\n"
        "       lnc_launch --resume DIR [options]\n"
        "options: --run-dir DIR | --transport local|ssh\n"
        "         --ssh-template 'ssh worker{shard} {cmd}'\n"
        "         --remote-sweep CMD | --sweep-bin PATH\n"
        "         --sweep-threads N | --jobs J | --timeout SEC\n"
        "         --retries N | --backoff-ms MS | --out FILE\n"
        "         --trace FILE  (Chrome trace of the fleet — shard\n"
        "                        lifecycle + merge spans; Perfetto-ready)\n"
        "         --progress    (live fleet heartbeat on stderr)\n"
        "         --cache DIR   (result store: hit skips the fleet,\n"
        "                        a cached prefix tops up only the missing\n"
        "                        trials; merged results are written back)\n"
        "         --inject-fail SHARD[:TIMES]   (test hook)\n"
     << scenario::spec_flags_usage()
     << "The merged result is bit-identical to the unsharded lnc_sweep\n"
        "run; failed shards never reach the merge (faulty runs included:\n"
        "fault draws are keyed per trial, never per process).\n"
        "build identity: " << util::build_identity() << "\n";
  return code;
}

struct Options {
  scenario::SpecFlags spec;
  std::optional<std::string> resume_dir;

  unsigned shards = 0;
  std::optional<std::string> run_dir;
  std::string transport = "local";
  std::optional<std::string> ssh_template;
  std::string remote_sweep = "lnc_sweep";
  std::optional<std::string> sweep_bin;
  unsigned sweep_threads = 1;
  orchestrate::SupervisorOptions supervisor;
  std::optional<std::string> out_file;
  std::optional<std::string> trace_file;
  std::optional<std::string> cache_dir;
  std::optional<std::pair<unsigned, unsigned>> inject_fail;  // shard, times
  bool help = false;
  bool version = false;
};

/// Strict flag parses (util::parse_uint / parse_nonnegative_double) —
/// a typo'd `--shards -1` must be a usage error, not a 4-billion-shard
/// manifest, and `--timeout 5m` must not silently become 5 seconds.
unsigned parse_unsigned(const std::string& text, const std::string& flag) {
  const std::optional<std::uint64_t> value = util::parse_uint(text);
  if (!value || *value > 1000000) {
    throw std::runtime_error(flag + " expects a non-negative integer "
                             "(<= 1000000), got '" + text + "'");
  }
  return static_cast<unsigned>(*value);
}

double seconds_value(scenario::ArgCursor& args) {
  const std::string text = args.value();
  const std::optional<double> value = util::parse_nonnegative_double(text);
  if (!value) {
    throw std::runtime_error(args.flag() + " expects a non-negative number, "
                             "got '" + text + "'");
  }
  return *value;
}

/// Throws std::runtime_error on a usage error.
Options parse_args(int argc, char** argv) {
  Options options;
  scenario::ArgCursor args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (options.spec.parse(args)) continue;
    if (arg == "--resume") {
      options.resume_dir = args.value();
    } else if (arg == "--shards") {
      options.shards = parse_unsigned(args.value(), arg);
      if (options.shards == 0) {
        throw std::runtime_error("--shards needs a positive shard count");
      }
    } else if (arg == "--run-dir") {
      options.run_dir = args.value();
    } else if (arg == "--transport") {
      options.transport = args.value();
      if (options.transport != "local" && options.transport != "ssh") {
        throw std::runtime_error("--transport expects local|ssh");
      }
    } else if (arg == "--ssh-template") {
      options.ssh_template = args.value();
    } else if (arg == "--remote-sweep") {
      options.remote_sweep = args.value();
    } else if (arg == "--sweep-bin") {
      options.sweep_bin = args.value();
    } else if (arg == "--sweep-threads") {
      options.sweep_threads = parse_unsigned(args.value(), arg);
    } else if (arg == "--jobs") {
      options.supervisor.max_parallel = parse_unsigned(args.value(), arg);
    } else if (arg == "--timeout") {
      options.supervisor.timeout_seconds = seconds_value(args);
    } else if (arg == "--retries") {
      options.supervisor.max_attempts = parse_unsigned(args.value(), arg);
      if (options.supervisor.max_attempts == 0) {
        throw std::runtime_error("--retries needs at least one attempt");
      }
    } else if (arg == "--backoff-ms") {
      options.supervisor.backoff_ms = seconds_value(args);
    } else if (arg == "--out") {
      options.out_file = args.value();
    } else if (arg == "--trace") {
      options.trace_file = args.value();
    } else if (arg == "--progress") {
      options.supervisor.progress = true;
    } else if (arg == "--cache") {
      options.cache_dir = args.value();
    } else if (arg == "--help") {
      options.help = true;
    } else if (arg == "--version") {
      options.version = true;
    } else if (arg == "--inject-fail") {
      const std::string text = args.value();
      const std::size_t colon = text.find(':');
      const unsigned shard = parse_unsigned(text.substr(0, colon), arg);
      const unsigned times =
          colon == std::string::npos
              ? 1
              : parse_unsigned(text.substr(colon + 1), arg);
      options.inject_fail = {shard, times};
    } else {
      throw std::runtime_error("unknown flag '" + arg + "'");
    }
  }
  if (options.resume_dir) {
    // The spec is frozen in the run directory; accepting spec flags here
    // would silently run different parameters than reported.
    const std::string conflict =
        options.spec.given() ? options.spec.first_flag
        : options.shards != 0 ? "--shards"
        : options.run_dir     ? "--run-dir"
                              : "";
    if (!conflict.empty()) {
      throw std::runtime_error(
          "--resume and " + conflict + " cannot be combined: --resume "
          "re-runs the FROZEN spec in its existing directory — plan a new "
          "run directory instead");
    }
  } else if (!options.spec.given() && !options.help && !options.version) {
    throw std::runtime_error("give a spec (--scenario, --spec, or ad hoc "
                             "component flags) or --resume DIR");
  }
  return options;
}

/// The lnc_sweep next to this binary — shards run the same build by
/// default, which is what the bit-identity guarantee assumes.
std::string default_sweep_binary(const char* argv0) {
  std::error_code ec;
  std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) self = argv0;
  const std::filesystem::path dir = self.parent_path();
  if (dir.empty()) return "lnc_sweep";  // bare argv0: rely on PATH
  return (dir / "lnc_sweep").string();
}

std::unique_ptr<orchestrate::Transport> make_transport(
    const Options& options, const char* argv0, std::string& error) {
  if (options.transport == "ssh") {
    if (!options.ssh_template) {
      error = "--transport ssh needs --ssh-template";
      return nullptr;
    }
    return std::make_unique<orchestrate::SshTransport>(
        *options.ssh_template, options.remote_sweep);
  }
  const std::string binary = options.sweep_bin
                                 ? *options.sweep_bin
                                 : default_sweep_binary(argv0);
  return std::make_unique<orchestrate::LocalProcessTransport>(binary);
}

int report_outcome(const orchestrate::RunManifest& manifest,
                   const orchestrate::LaunchOutcome& outcome,
                   const Options& options) {
  for (const std::string& warning : outcome.warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  if (!outcome.ok) {
    std::cerr << "launch failed: " << outcome.error << "\n";
    for (const unsigned shard : outcome.failed_shards) {
      const orchestrate::ShardRecord& record = manifest.shards[shard];
      std::cerr << "  shard " << shard << ": " << to_string(record.state)
                << " after " << record.attempts << " attempt(s)";
      if (!record.error.empty()) std::cerr << " — " << record.error;
      std::cerr << " (log: " << manifest.log_path(shard) << ")\n";
    }
    std::cerr << "resume with: lnc_launch --resume " << manifest.run_dir
              << "\n";
    return 1;
  }

  std::cout << "=== " << outcome.merged.scenario << " (merged from "
            << manifest.shard_count << " shards, run dir "
            << manifest.run_dir << ") ===\n";
  scenario::to_table(outcome.merged).print(std::cout);
  for (const std::string& line : scenario::summary_lines(outcome.merged)) {
    std::cout << line << "\n";
  }
  if (options.out_file) {
    // Same contract as lnc_sweep --out: atomic, no silent partial files.
    const std::string write_error =
        scenario::write_json_file(*options.out_file, outcome.merged);
    if (!write_error.empty()) {
      std::cerr << write_error << "\n";
      return 1;
    }
  }
  return 0;
}

/// Serves a cache hit: same report shape as a merged run, but no fleet
/// ever launches and no run directory is created.
int report_cached(const serve::CacheEntry& entry, const Options& options) {
  std::cout << "=== " << entry.result.scenario << " (served from cache, "
            << entry.spec.trials << " trials, key "
            << entry.key.substr(0, 16) << ") ===\n";
  scenario::to_table(entry.result).print(std::cout);
  for (const std::string& line : scenario::summary_lines(entry.result)) {
    std::cout << line << "\n";
  }
  if (options.out_file) {
    const std::string write_error =
        scenario::write_json_file(*options.out_file, entry.result);
    if (!write_error.empty()) {
      std::cerr << write_error << "\n";
      return 1;
    }
  }
  return 0;
}

/// Stores a freshly merged result under its spec's key — unless the
/// store already covers at least as many trials (a concurrent writer or
/// the resume of a superseded run); fewer-trial entries are replaced.
/// Write-back failure is a warning, never a run failure: the result
/// itself is already merged and reported.
void write_back(const serve::ResultStore& store,
                const scenario::ScenarioSpec& spec,
                const scenario::SweepResult& merged) {
  const serve::CacheKey key = serve::cache_key(spec);
  const std::optional<serve::CacheEntry> existing = store.lookup(key);
  if (existing && existing->spec.trials >= spec.trials) return;
  serve::CacheEntry entry;
  entry.key = key;
  entry.spec = spec;
  entry.result = merged;
  const std::string error = store.store(std::move(entry));
  if (!error.empty()) {
    std::cerr << "warning: cache write-back failed: " << error << "\n";
  } else {
    std::cerr << "cache[" << merged.scenario << "]: stored "
              << spec.trials << " trial(s) under key " << key.substr(0, 16)
              << "\n";
  }
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
    std::cout << "lnc_launch (" << util::build_identity() << ")\n";
    return 0;
  }

  std::string error;
  std::unique_ptr<orchestrate::Transport> transport =
      make_transport(options, argv[0], error);
  if (transport == nullptr) {
    std::cerr << error << "\n";
    return usage(std::cerr, 2);
  }
  orchestrate::Transport* effective = transport.get();
  std::unique_ptr<orchestrate::FaultInjectingTransport> injector;
  if (options.inject_fail) {
    injector = std::make_unique<orchestrate::FaultInjectingTransport>(
        *effective, options.inject_fail->first,
        options.inject_fail->second);
    effective = injector.get();
  }

  orchestrate::SupervisorOptions supervisor = options.supervisor;
  supervisor.status = &std::cerr;
  // Tracing captures the fleet's control plane (dispatch / retry / kill /
  // merge); the per-trial work lives in the shard processes, which trace
  // separately via lnc_sweep --trace. Timing-only either way.
  if (options.trace_file) obs::TraceRecorder::instance().enable();

  try {
    std::optional<serve::ResultStore> store;
    if (options.cache_dir) store.emplace(*options.cache_dir);
    // The spec whose key the merged result is stored under; for resumes
    // it is re-read from the run directory's frozen spec.json.
    std::optional<scenario::ScenarioSpec> cache_spec;

    orchestrate::RunManifest manifest;
    if (options.resume_dir) {
      manifest = orchestrate::load_manifest(
          std::filesystem::absolute(*options.resume_dir).string());
      std::cerr << "resuming '" << manifest.scenario << "' in "
                << manifest.run_dir << " (" << manifest.shard_count
                << " shards)\n";
      if (store) {
        std::string text;
        const std::string read_error =
            util::read_file(manifest.spec_path(), text);
        if (!read_error.empty()) {
          throw std::runtime_error(
              "--cache write-back needs the frozen spec: " + read_error);
        }
        cache_spec = scenario::spec_from_json(text);
      }
    } else {
      const scenario::ScenarioSpec spec = options.spec.resolve();
      if (options.shards == 0) {
        std::cerr << "--shards is required for a new run\n";
        return usage(std::cerr, 2);
      }
      const std::string invalid = scenario::validate(spec);
      if (!invalid.empty()) {
        std::cerr << "invalid scenario '" << spec.name << "': " << invalid
                  << "\n";
        return 1;
      }
      // Absolute, so the ShardJob paths handed to transports really are
      // absolute as documented — an ssh shard must not resolve a
      // relative run dir against its remote login cwd.
      const std::string run_dir =
          std::filesystem::absolute(
              options.run_dir ? *options.run_dir : "lnc-run-" + spec.name)
              .string();
      if (options.transport == "ssh") {
        // Template transports require shell-safe paths
        // (orchestrate::render_template throws on others) — surface that
        // BEFORE plan_run puts anything on disk.
        orchestrate::ShardJob probe;
        probe.shard = 0;
        probe.shard_count = options.shards;
        probe.spec_path = run_dir + "/spec.json";
        probe.output_path = run_dir + "/shard-0.json";
        orchestrate::render_template(*options.ssh_template,
                                     options.remote_sweep, probe);
      }
      serve::CacheDecision decision;
      if (store) {
        const serve::CacheKey key = serve::cache_key(spec);
        decision = serve::decide_query(*store, spec, key);
        std::cout << serve::cache_line(spec.name, decision.outcome,
                                       decision.trials_reused,
                                       decision.trials_computed, key)
                  << "\n";
        for (const std::string& note : decision.notes) {
          std::cerr << "note: " << note << "\n";
        }
        cache_spec = decision.run_spec;
      }
      if (decision.outcome == serve::CacheOutcome::kHit) {
        // The store already covers the request — serve it, no fleet.
        return report_cached(*decision.entry, options);
      }
      if (decision.outcome == serve::CacheOutcome::kTopUp) {
        // The fleet computes only the missing range of the entry's spec
        // and the merge folds the cached prefix in front — bit-identical
        // to a cold fleet run.
        unsigned shards = options.shards;
        if (shards > decision.trials_computed) {
          shards = static_cast<unsigned>(decision.trials_computed);
          std::cerr << "note: only " << shards << " trial(s) to top up — "
                    << "using " << shards << " shard(s) instead of "
                    << options.shards << "\n";
        }
        manifest = orchestrate::plan_topup_run(
            decision.run_spec, run_dir, shards, decision.entry->result);
        std::cerr << "planned " << shards << " top-up shard(s) of '"
                  << spec.name << "' (trials [" << manifest.trial_begin
                  << ", " << manifest.trial_end << ")) in " << run_dir
                  << "\n";
      } else {
        manifest = orchestrate::plan_run(spec, run_dir, options.shards);
        std::cerr << "planned " << options.shards << " shard(s) of '"
                  << spec.name << "' in " << run_dir << "\n";
      }
    }

    orchestrate::LaunchOutcome outcome;
    {
      const obs::Span fleet_span(
          "fleet", obs::span_args("shards", static_cast<std::uint64_t>(
                                                manifest.shard_count)));
      outcome = orchestrate::execute_run(manifest, *effective, supervisor,
                                         options.sweep_threads);
    }
    if (outcome.ok && store && cache_spec) {
      write_back(*store, *cache_spec, outcome.merged);
    }
    int rc = report_outcome(manifest, outcome, options);
    if (options.trace_file) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
      std::string trace_error;
      if (recorder.write_file(*options.trace_file, &trace_error)) {
        std::cerr << "trace: wrote " << *options.trace_file << " ("
                  << recorder.event_count() << " spans";
        if (recorder.dropped_count() > 0) {
          std::cerr << ", " << recorder.dropped_count() << " dropped";
        }
        std::cerr << ")\n";
      } else {
        std::cerr << "trace: " << trace_error << "\n";
        rc |= 1;
      }
    }
    return rc;
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    return 1;
  }
}
