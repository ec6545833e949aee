// Whole-run orchestration: spec in, bit-identical merged SweepResult out.
//
//   plan_run    — freeze a validated spec into a fresh run directory
//                 (spec.json + manifest.json, every shard pending);
//   execute_run — supervise the manifest's jobs over a Transport
//                 (orchestrate/supervisor.h), then gather;
//   merge_run   — read the shard result files of a fully-done manifest
//                 and merge them (scenario::merge_sweep_files), exactly
//                 what `lnc_sweep --merge` of the same files would
//                 produce — bit-identical to the unsharded run.
//
// lnc_launch drives these; tests/orchestrate_test.cpp asserts the
// end-to-end identity and the resume semantics.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "orchestrate/manifest.h"
#include "orchestrate/supervisor.h"
#include "orchestrate/transport.h"
#include "scenario/sweep.h"

namespace lnc::orchestrate {

/// Creates the run directory (parents included), writes the frozen spec
/// and a fresh all-pending manifest over trials [0, spec.trials), and
/// returns it. Throws when the spec does not validate, when shard_count
/// is 0 or exceeds the trial count (checked before anything touches
/// disk), when the directory already holds a manifest (resume instead —
/// silently restarting would discard completed shards), or on I/O
/// failure.
RunManifest plan_run(const scenario::ScenarioSpec& spec,
                     const std::string& run_dir, unsigned shard_count);

/// Plans a TOP-UP run: the fleet computes only trials
/// [baseline_trials, spec.trials) of `spec`, split into shard_count
/// contiguous ranges, and the merge reads the cached `baseline` result
/// (frozen as baseline.json in the run directory) as one more range
/// part — bit-identical to a cold full-width fleet run. `baseline` must
/// be a complete result covering [0, baseline_trials) with
/// baseline_trials < spec.trials, and `spec` must be the baseline's own
/// spec at the raised trial count (same seed — the cache key's canonical
/// one). Same directory rules as plan_run;
/// resume works unchanged (baseline.json rides in the run directory).
RunManifest plan_topup_run(const scenario::ScenarioSpec& spec,
                           const std::string& run_dir, unsigned shard_count,
                           const scenario::SweepResult& baseline);

struct LaunchOutcome {
  bool ok = false;  ///< every shard done and the merge succeeded
  scenario::SweepResult merged;            ///< meaningful when ok
  std::vector<std::string> warnings;       ///< shard-file parse warnings
  std::vector<unsigned> failed_shards;     ///< permanently failed shards
  std::string error;  ///< merge-stage failure description (empty when ok)
};

/// Supervises every unfinished shard, then merges. `sweep_threads` is the
/// per-shard `lnc_sweep --threads` value (thread counts cannot change the
/// numbers — the merge is exact either way).
LaunchOutcome execute_run(RunManifest& manifest, Transport& transport,
                          const SupervisorOptions& options,
                          unsigned sweep_threads = 1);

/// Gather-only: merges the output files of an already-done manifest.
LaunchOutcome merge_run(const RunManifest& manifest);

}  // namespace lnc::orchestrate
