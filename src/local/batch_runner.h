// The unified batched experiment executor.
//
// Every probabilistic quantity in the paper — the construction success
// probability r, the decider guarantee p, the Claim-2 beta, the Claim-3
// boosted acceptance — is an average over millions of independent trials.
// The seed routed those trials through four disjoint entry points that each
// re-allocated programs, message buffers, and RNGs per trial. This header
// is the single replacement:
//
//   ExperimentPlan  — what one trial does (a {0,1} success test, a
//                     real-valued statistic, or a counter update), how many
//                     trials, and the base seed;
//   BatchRunner     — executes a plan with trial-granularity parallelism
//                     over stats::ThreadPool, one reusable WorkerArena per
//                     worker, and per-trial Philox streams derived as
//                     stats::trial_seed(base_seed, index), so results are
//                     bit-for-bit identical across thread counts.
//
// Plan factories for the common workload shapes live in local/experiment.h
// (construction algorithms) and decide/experiment_plans.h (deciders).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/ball_atlas.h"
#include "local/ball_collector.h"
#include "local/engine.h"
#include "local/runner.h"
#include "local/vector_engine.h"
#include "obs/metrics.h"
#include "rand/coins.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"
#include "util/string_util.h"

namespace lnc::obs {
class Progress;
}  // namespace lnc::obs

namespace lnc::local {

/// A sampled input-output configuration — the storage unit of plans that
/// draw a fresh (instance, output) per trial (decide/guarantee.h samplers).
/// Samplers whose topology is fixed across trials set `shared_instance` to
/// an interned instance (scenario/registry.h) and only refill `output`;
/// consumers read the instance through inst().
struct SampledConfiguration {
  Instance instance;  ///< owned storage (used when shared_instance is null)
  Labeling output;
  std::shared_ptr<const Instance> shared_instance;

  const Instance& inst() const noexcept {
    return shared_instance != nullptr ? *shared_instance : instance;
  }
};

/// Per-worker reusable scratch: engine arenas, a labeling buffer, and
/// knowledge tables survive from one trial to the next, so the steady-state
/// trial allocates (almost) nothing. Not thread-safe; the runner hands each
/// worker its own arena.
class WorkerArena {
 public:
  EngineScratch& engine() noexcept { return engine_; }
  Labeling& labeling() noexcept { return labeling_; }
  std::vector<Knowledge>& knowledge() noexcept { return knowledge_; }

  /// This worker's reusable ball-collection slot: the direct ball runner
  /// keeps view and visited-map capacity warm across trials instead of
  /// allocating five vectors per node per trial. BatchRunner attaches its
  /// ball-atlas cache here before each trial on a warm arena.
  BallWorkspace& ball_workspace() noexcept { return ball_; }

  /// Second reusable ball slot for trial bodies that hold two balls at
  /// once: the streaming implicit path (decide/experiment_plans.cpp)
  /// re-expands each decision-ball member's construction ball while the
  /// decision ball stays live.
  BallWorkspace& member_ball_workspace() noexcept { return member_ball_; }

  /// Ball-local output buffer for the streaming implicit path — sized by
  /// the current ball, never by n.
  Labeling& ball_outputs() noexcept { return ball_outputs_; }

  /// This worker's telemetry accumulator (lives in the engine scratch so
  /// engine runs on this arena count into it automatically; ball-mode and
  /// decider paths charge it explicitly). BatchRunner resets it per batch
  /// and merges the per-worker blocks into the batch result.
  Telemetry& telemetry() noexcept { return engine_.telemetry(); }
  const Telemetry& telemetry() const noexcept { return engine_.telemetry(); }

  /// This worker's observability metrics (timing histograms and the
  /// like). Populated only while obs::metrics_enabled(); reset and
  /// merged by BatchRunner exactly like telemetry(), but NEVER part of
  /// the deterministic contract — metrics carry wall-clock measurements.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// This worker's reusable trial-vectorized batch storage (SoA arrays,
  /// the vector program, and the per-batch coin-key buffer stay warm
  /// across batches, mirroring what engine() does for the scalar path).
  VectorScratch& vector_scratch() noexcept { return vector_; }

  /// Per-worker sampled-configuration cache. Sampling plans keep their
  /// sample in this slot so instance/output capacity persists across
  /// trials, and an exact (owner, seed) repeat skips resampling entirely.
  /// `owner` disambiguates plans sharing a runner — use a token minted
  /// uniquely per plan (see guarantee_side_plan), NOT the address of a
  /// sampler or other short-lived object: a freed address can be reused
  /// by a different plan, which would replay a stale configuration.
  SampledConfiguration& sample_slot() noexcept { return sample_; }
  bool sample_matches(const void* owner, std::uint64_t seed) const noexcept {
    return sample_valid_ && sample_owner_ == owner && sample_seed_ == seed;
  }
  void note_sample(const void* owner, std::uint64_t seed) noexcept {
    sample_valid_ = true;
    sample_owner_ = owner;
    sample_seed_ = seed;
  }

 private:
  EngineScratch engine_;
  Labeling labeling_;
  std::vector<Knowledge> knowledge_;
  BallWorkspace ball_;
  BallWorkspace member_ball_;
  Labeling ball_outputs_;
  VectorScratch vector_;
  obs::MetricsRegistry metrics_;
  SampledConfiguration sample_;
  const void* sample_owner_ = nullptr;
  std::uint64_t sample_seed_ = 0;
  bool sample_valid_ = false;
};

/// Standard per-trial seed-derivation tags. Keeping them in one place is
/// what makes the construction and decision streams of every experiment
/// independent yet reproducible.
inline constexpr std::uint64_t kConstructionSeedTag = 0xC0;
inline constexpr std::uint64_t kDecisionSeedTag = 0xD0;
inline constexpr std::uint64_t kSampleSeedTag = 0x15;
inline constexpr std::uint64_t kFaultSeedTag = 0xFA;

/// Everything a trial body receives: its index, its private seed
/// (stats::trial_seed(base_seed, index) — a pure function of the index, so
/// the trial-to-worker assignment cannot influence results), and the
/// executing worker's arena. BatchRunner ALWAYS populates `arena`; trial
/// bodies may dereference it unconditionally.
struct TrialEnv {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  WorkerArena* arena = nullptr;

  /// Derives a sub-seed for an auxiliary purpose within the trial.
  std::uint64_t derive(std::uint64_t tag) const noexcept {
    return rand::mix_keys(seed, tag);
  }
  /// The trial's construction coins (the paper's sigma in Rand(C)).
  rand::PhiloxCoins construction_coins() const noexcept {
    return {derive(kConstructionSeedTag), rand::Stream::kConstruction};
  }
  /// The trial's decision coins (the paper's sigma' in Rand(D)).
  rand::PhiloxCoins decision_coins() const noexcept {
    return {derive(kDecisionSeedTag), rand::Stream::kDecision};
  }
  /// The trial's adversity coins — the fault model's private stream,
  /// disjoint from both algorithms' randomness by construction.
  rand::PhiloxCoins fault_coins() const noexcept {
    return {derive(kFaultSeedTag), rand::Stream::kFault};
  }
  /// Seed for per-trial instance/configuration sampling.
  std::uint64_t sample_seed() const noexcept {
    return derive(kSampleSeedTag);
  }
};

/// Opt-in trial-vectorized execution of a plan. When `factory` (whose
/// create_vector() must be non-null) and `instance` are set, the runner
/// may advance whole batches of trials in lockstep on the SoA backend
/// (local/vector_engine.h) instead of calling the scalar per-trial
/// callback; per trial, the workload-matching finish hook then turns the
/// construction's output into the tallied quantity. The scalar callbacks
/// stay populated regardless — they are the naive/batched path and the
/// bit-identity reference.
struct VectorExec {
  const Instance* instance = nullptr;
  const NodeProgramFactory* factory = nullptr;
  /// The fault model the scalar trials run under, bound to `instance`
  /// (null: fault-free); the runner hands each batch its trials'
  /// TrialEnv::fault_coins() keys.
  const fault::InstanceFaults* fault = nullptr;

  /// Finish hooks (exactly the one matching the plan's workload is set):
  /// each receives the trial env, the vector run's output labeling (valid
  /// only during the call), the executed round count, and the trial's
  /// deterministic telemetry delta — everything the scalar trial body
  /// would have derived from its own construction run.
  std::function<bool(const TrialEnv&, const Labeling&, int, const Telemetry&)>
      success_finish;
  std::function<double(const TrialEnv&, const Labeling&, int,
                       const Telemetry&)>
      value_finish;
  std::function<void(const TrialEnv&, const Labeling&, int, const Telemetry&,
                     std::span<std::uint64_t>)>
      count_finish;

  bool engaged() const noexcept {
    return instance != nullptr && factory != nullptr;
  }
};

/// A declarative batch of independent trials. Exactly one of the trial
/// callbacks is set; the others stay null.
struct ExperimentPlan {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t base_seed = 0;

  /// {0,1}-valued trial: BatchRunner::run reports the success proportion.
  std::function<bool(const TrialEnv&)> success_trial;

  /// Real-valued trial: BatchRunner::run_mean reports mean and stddev.
  std::function<double(const TrialEnv&)> value_trial;

  /// Counter trial: adds into `counters` accumulator slots; slots are
  /// summed across workers (order-free, hence reproducible).
  std::function<void(const TrialEnv&, std::span<std::uint64_t>)> count_trial;
  std::size_t counters = 0;

  /// Optional vectorized execution of the same trials (see VectorExec).
  VectorExec vector;

  /// Backend selection and vector-backend tuning. kAuto resolves to
  /// kBatched here (scenario compilation resolves kAuto through
  /// OptimizationConfig::automatic before the plan reaches the runner);
  /// kVectorized transparently falls back to kBatched when `vector` is
  /// not engaged.
  OptimizationConfig optimization;
};

/// The three trial shapes a plan (and a scenario) can declare. Success
/// plans tally {0,1} outcomes into a Wilson estimate; value plans
/// average a real statistic; counter plans sum integer slots.
enum class WorkloadKind { kSuccess, kValue, kCounter };

inline constexpr util::EnumNames<WorkloadKind, 3> kWorkloadNames{{{
    {WorkloadKind::kSuccess, "success"},
    {WorkloadKind::kValue, "value"},
    {WorkloadKind::kCounter, "counter"}}}};

const char* to_string(WorkloadKind kind) noexcept;

/// Inverse of to_string — the one parser behind spec files, shard files,
/// and the CLI flag. Nullopt on an unknown tag (callers own the error
/// message).
std::optional<WorkloadKind> workload_from_string(
    std::string_view text) noexcept;

/// The workload of a plan, read off which trial callback is set
/// (asserts that exactly the corresponding callback is present).
WorkloadKind workload_kind(const ExperimentPlan& plan);

/// Fully custom plans for trial shapes the factories don't cover. The
/// callback must derive all randomness from the TrialEnv.
ExperimentPlan custom_plan(std::string name, std::uint64_t trials,
                           std::uint64_t base_seed,
                           std::function<bool(const TrialEnv&)> trial);
ExperimentPlan custom_value_plan(std::string name, std::uint64_t trials,
                                 std::uint64_t base_seed,
                                 std::function<double(const TrialEnv&)> trial);
ExperimentPlan custom_count_plan(
    std::string name, std::uint64_t trials, std::uint64_t base_seed,
    std::size_t counters,
    std::function<void(const TrialEnv&, std::span<std::uint64_t>)> trial);

/// A contiguous trial-index subrange [begin, end) of a plan — the unit of
/// cross-process sharding. Per-trial seeds are pure functions of the trial
/// index, so executing a plan as any partition of ranges and summing the
/// tallies is bit-identical to one full run.
struct TrialRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  std::uint64_t count() const noexcept { return end - begin; }
};

/// The range of shard `shard` out of `shard_count` near-equal contiguous
/// shards of [0, trials) (earlier shards take the remainder). Requires
/// shard < shard_count.
TrialRange shard_range(std::uint64_t trials, unsigned shard,
                       unsigned shard_count);

/// Raw tally of one executed trial range. Which block is meaningful
/// depends on the plan's workload: success plans fill `successes`, value
/// plans fill the exact sum/sum-of-squares accumulators, counter plans
/// fill `counts`. All blocks merge order-free, so any shard partition
/// reproduces the unsharded run's numbers bit for bit.
struct ShardTally {
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;  ///< trials executed in this range

  /// Value-workload accumulators: the trial statistics and their squares
  /// summed EXACTLY (stats::ExactSum), which is what makes sharded means
  /// merge to the unsharded mean bit for bit — the floating-point
  /// analogue of the integer success tally.
  stats::ExactSum value_sum;
  stats::ExactSum value_sum_sq;

  /// Counter-workload slot sums (plan.counters entries; empty for other
  /// workloads).
  std::vector<std::uint64_t> counts;

  /// Communication volume accumulated executing this range. The
  /// deterministic counters are per-trial sums, so shard telemetries
  /// merged over a partition of [0, trials) equal the unsharded run's
  /// counters bit for bit.
  Telemetry telemetry;
};

/// Sums shard tallies into a full-plan estimate. Bit-identical to
/// BatchRunner::run on the whole plan whenever the tallies came from a
/// partition of [0, plan.trials).
stats::Estimate merge_tallies(std::span<const ShardTally> tallies);

/// Merges value-workload tallies into the full-plan mean estimate —
/// exact-sum accumulation, so the result equals BatchRunner::run_mean on
/// the whole plan bit for bit for any partition of [0, plan.trials).
stats::MeanEstimate merge_value_tallies(std::span<const ShardTally> tallies);

/// Element-wise sum of counter-workload tallies (empty `counts` entries
/// are treated as all-zero; non-empty entries must agree on width).
std::vector<std::uint64_t> merge_count_tallies(
    std::span<const ShardTally> tallies);

/// Merges the telemetry blocks of shard tallies (the telemetry
/// counterpart of merge_tallies).
Telemetry merge_telemetries(std::span<const ShardTally> tallies);

/// Executes ExperimentPlans. Arenas persist across run() calls, so a
/// runner reused for a sweep keeps its scratch warm. Not thread-safe;
/// use one runner per caller thread.
class BatchRunner {
 public:
  /// null pool => sequential execution with a single arena.
  explicit BatchRunner(const stats::ThreadPool* pool = nullptr);

  unsigned worker_count() const noexcept;

  /// Runs a success_trial plan; Wilson-interval estimate of Pr[success].
  stats::Estimate run(const ExperimentPlan& plan);

  /// Runs only the trials of a plan inside `range` — one shard of a
  /// cross-process run, for any workload kind. Merge with merge_tallies
  /// / merge_value_tallies / merge_count_tallies per the plan's kind.
  ShardTally run_shard(const ExperimentPlan& plan, TrialRange range);

  /// Runs a value_trial plan (run_shard over the full range, finalized
  /// with stats::finalize_mean_exact).
  stats::MeanEstimate run_mean(const ExperimentPlan& plan);

  /// Runs a count_trial plan; returns the `plan.counters` summed slots.
  std::vector<std::uint64_t> run_counts(const ExperimentPlan& plan);

  /// Telemetry of the most recent run/run_shard/run_mean/run_counts:
  /// the per-worker accumulators merged in worker order. Deterministic
  /// counters are bit-identical across thread counts.
  const Telemetry& last_telemetry() const noexcept { return last_telemetry_; }

  /// Observability metrics of the most recent run (per-trial wall-time
  /// and per-batch throughput histograms, merged across workers). Empty
  /// unless obs::metrics_enabled() was set during the run.
  const obs::MetricsRegistry& last_metrics() const noexcept {
    return last_metrics_;
  }

  /// Optional live-progress sink: when set, every completed trial ticks
  /// the heartbeat. Timing-only; never affects results.
  void set_progress(obs::Progress* progress) noexcept {
    progress_ = progress;
  }

  /// The runner's ball atlases (graph/ball_atlas.h), shared read-only by
  /// the warm arenas of every worker and kept for the runner's lifetime.
  /// The naive backend's cold arenas never see them.
  const graph::BallAtlasCache& ball_atlases() const noexcept {
    return atlases_;
  }

 private:
  template <typename Body>
  void for_each_trial(const ExperimentPlan& plan, TrialRange range,
                      bool fresh_arenas, Body&& body);

  /// Vectorized dispatch: cuts `range` into consecutive lockstep batches
  /// of plan.optimization.batch_trials (a pure function of the range, NOT
  /// of the thread count) and runs each through run_vector_batch on the
  /// executing worker's scratch. `body` sees one call per trial.
  template <typename Body>
  void for_each_vector_trial(const ExperimentPlan& plan, TrialRange range,
                             Body&& body);

  /// Clears per-worker accumulators before a batch / merges them after.
  void reset_worker_telemetry();
  Telemetry merged_worker_telemetry();
  void reset_worker_metrics();
  obs::MetricsRegistry merged_worker_metrics();

  const stats::ThreadPool* pool_;
  graph::BallAtlasCache atlases_;
  std::vector<WorkerArena> arenas_;
  Telemetry last_telemetry_;
  obs::MetricsRegistry last_metrics_;
  obs::Progress* progress_ = nullptr;
};

}  // namespace lnc::local
