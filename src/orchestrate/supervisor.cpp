#include "orchestrate/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "local/batch_runner.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace lnc::orchestrate {
namespace {

/// Mutex-guarded view of the shared run state: the manifest (persisted on
/// every transition) and the status stream. Transport runs happen OUTSIDE
/// the lock; only bookkeeping takes it.
class Coordinator {
 public:
  Coordinator(RunManifest& manifest, const SupervisorOptions& options,
              obs::Progress* fleet_progress)
      : manifest_(&manifest),
        options_(&options),
        fleet_progress_(fleet_progress) {}

  /// Claims the next shard needing work; false when none remain (or a
  /// worker hit a coordinator-side error and the run is winding down).
  bool claim(unsigned& shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_.empty()) return false;
    for (ShardRecord& record : manifest_->shards) {
      if (claimed_[record.shard]) continue;
      if (record.state == ShardState::kDone) continue;
      claimed_[record.shard] = true;
      shard = record.shard;
      return true;
    }
    return false;
  }

  /// Records a coordinator-side failure (e.g. the manifest became
  /// unwritable mid-run). Letting the exception escape the worker thread
  /// would std::terminate the whole coordinator; instead the first error
  /// stops further claims and is rethrown after the workers drain.
  void fail(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_.empty()) error_ = what;
  }

  std::string error() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

  void init_claim_map() {
    claimed_.assign(manifest_->shards.size(), false);
    attempt_start_us_.assign(manifest_->shards.size(), 0);
  }

  void mark_running(unsigned shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ShardRecord& record = manifest_->shards[shard];
    record.state = ShardState::kRunning;
    ++record.attempts;
    record.error.clear();
    attempt_start_us_[shard] = obs::now_micros();
    save_manifest(*manifest_);
    log(shard, record.attempts, "started");
  }

  void mark_done(unsigned shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ShardRecord& record = manifest_->shards[shard];
    record.state = ShardState::kDone;
    record.exit_code = 0;
    record.error.clear();
    save_manifest(*manifest_);
    log(shard, record.attempts, "done");
    record_attempt_span(shard, record.attempts, "done");
    if (fleet_progress_ != nullptr) fleet_progress_->tick(1);
  }

  void mark_failure(unsigned shard, const TransportResult& result,
                    bool permanent, double retry_ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ShardRecord& record = manifest_->shards[shard];
    record.state = permanent ? ShardState::kFailed : ShardState::kPending;
    record.exit_code = result.exit_code;
    record.error = result.error;
    save_manifest(*manifest_);
    if (permanent) {
      log(shard, record.attempts, "FAILED permanently (" + result.error +
                                      ")");
    } else {
      log(shard, record.attempts,
          "failed (" + result.error + "); retrying in " +
              std::to_string(static_cast<std::uint64_t>(retry_ms)) + " ms");
    }
    record_attempt_span(shard, record.attempts,
                        permanent ? "failed" : "retrying");
  }

 private:
  /// One grep-stable line per transition:
  ///   launch[scenario]: shard 1/3 attempt 2 done
  void log(unsigned shard, unsigned attempt, const std::string& what) {
    if (options_->status == nullptr) return;
    *options_->status << "launch[" << manifest_->scenario << "]: shard "
                      << shard << "/" << manifest_->shard_count
                      << " attempt " << attempt << " " << what << "\n";
    options_->status->flush();
  }

  /// One "shard-attempt" trace span per dispatch attempt, spanning
  /// mark_running → terminal transition, tagged with the outcome. No-op
  /// unless the process-wide recorder is enabled (lnc_launch --trace).
  void record_attempt_span(unsigned shard, unsigned attempt,
                           const char* outcome) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
    if (!recorder.enabled()) return;
    const std::uint64_t start = attempt_start_us_[shard];
    const std::uint64_t end = obs::now_micros();
    recorder.record("shard-attempt", start, end > start ? end - start : 0,
                    obs::span_args("shard", static_cast<std::uint64_t>(shard)) +
                        ", " +
                        obs::span_args("attempt",
                                       static_cast<std::uint64_t>(attempt)) +
                        ", \"outcome\": \"" + outcome + "\"");
  }

  std::mutex mutex_;
  RunManifest* manifest_;
  const SupervisorOptions* options_;
  std::vector<char> claimed_;
  std::vector<std::uint64_t> attempt_start_us_;
  obs::Progress* fleet_progress_;
  std::string error_;
};

}  // namespace

JobSupervisor::JobSupervisor(Transport& transport, SupervisorOptions options)
    : transport_(&transport), options_(std::move(options)) {}

bool JobSupervisor::run(RunManifest& manifest, unsigned sweep_threads) {
  // A coordinator killed mid-attempt leaves shards marked running — their
  // processes are gone (or orphaned and will be overwritten by the
  // re-run's --out); treat them as pending. Done shards whose output file
  // vanished are demoted too: the merge needs the file, not the label.
  for (ShardRecord& record : manifest.shards) {
    if (record.state == ShardState::kRunning) {
      record.state = ShardState::kPending;
    }
    if (record.state == ShardState::kDone &&
        !std::filesystem::exists(manifest.output_path(record.shard))) {
      record.state = ShardState::kPending;
      record.error = "recorded done but output file is missing";
    }
  }
  save_manifest(manifest);

  // Fleet heartbeat: one tick per shard landed. Constructed before the
  // coordinator so every mark_done can tick it; finished after the
  // workers drain so the final line reflects the whole run.
  std::optional<obs::Progress> fleet_progress;
  if (options_.progress && options_.status != nullptr) {
    fleet_progress.emplace("launch:" + manifest.scenario,
                           manifest.shards.size(), "shards", options_.status);
  }

  Coordinator coordinator(manifest, options_,
                          fleet_progress ? &*fleet_progress : nullptr);
  coordinator.init_claim_map();

  unsigned parallel = options_.max_parallel;
  if (parallel == 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    parallel = std::max(1u, std::min(manifest.shard_count,
                                     hardware == 0 ? 1u : hardware));
  }
  const unsigned max_attempts = std::max(1u, options_.max_attempts);

  auto run_claimed_jobs = [&]() {
    unsigned shard = 0;
    while (coordinator.claim(shard)) {
      ShardJob job;
      job.shard = shard;
      // Split the manifest's [trial_begin, trial_end) into near-equal
      // contiguous slices: shard_range over the width, shifted by the
      // base. Merging by explicit range reassembles them exactly.
      const local::TrialRange slice = local::shard_range(
          manifest.trial_end - manifest.trial_begin, shard,
          manifest.shard_count);
      job.trial_begin = manifest.trial_begin + slice.begin;
      job.trial_end = manifest.trial_begin + slice.end;
      job.spec_path = manifest.spec_path();
      job.output_path = manifest.output_path(shard);
      job.log_path = manifest.log_path(shard);
      job.threads = sweep_threads;

      double backoff_ms = std::min(options_.backoff_ms, 60'000.0);
      for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        coordinator.mark_running(shard);
        TransportResult result = transport_->run(job, options_.timeout_seconds);
        if (result.ok() &&
            !std::filesystem::exists(job.output_path)) {
          // A zero exit without the result file is still a failure —
          // the merge would come up short otherwise.
          result.exit_code = -1;
          result.error = "exited cleanly but produced no output file";
        }
        if (result.ok()) {
          coordinator.mark_done(shard);
          break;
        }
        // Exit 127 (binary/command not found) and exit 2 (lnc_sweep
        // usage error) cannot be fixed by retrying — fail fast with the
        // right diagnosis instead of burning the backoff budget.
        const bool non_retryable =
            result.launched && !result.timed_out &&
            (result.exit_code == 127 || result.exit_code == 2);
        const bool permanent = attempt == max_attempts || non_retryable;
        coordinator.mark_failure(shard, result, permanent,
                                 permanent ? 0 : backoff_ms);
        if (permanent) break;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff_ms));
        // Capped doubling: a large --retries must poll slowly, not sleep
        // for 2^attempts milliseconds (which overflows to forever).
        backoff_ms = std::min(backoff_ms * 2, 60'000.0);
      }
    }
  };
  // An exception escaping a std::thread entry function would
  // std::terminate the coordinator — convert coordinator-side failures
  // (say, the manifest became unwritable mid-run) into a recorded error
  // that stops further claims and is rethrown once the workers drain.
  auto worker = [&]() {
    try {
      run_claimed_jobs();
    } catch (const std::exception& ex) {
      coordinator.fail(ex.what());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(parallel);
  for (unsigned i = 0; i < parallel; ++i) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();

  if (fleet_progress) fleet_progress->finish();

  const std::string error = coordinator.error();
  if (!error.empty()) {
    throw std::runtime_error("launch coordinator failed: " + error);
  }
  return manifest.all_done();
}

}  // namespace lnc::orchestrate
