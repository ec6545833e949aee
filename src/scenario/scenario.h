// Declarative experiment scenarios.
//
// A ScenarioSpec names one component of each kind from the registries
// (scenario/registry.h), a shared parameter map, an n-grid, a trial count,
// and a base seed — a complete experiment description as DATA. compile()
// validates the spec and lowers it into the existing ExperimentPlan
// factories (local/experiment.h, decide/experiment_plans.h, custom plans),
// so local::BatchRunner remains the only trial executor; scenario/sweep.h
// runs the compiled plans (whole or sharded across processes) and formats
// results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "local/experiment.h"
#include "scenario/registry.h"

namespace lnc::scenario {

/// How a grid point's graph is represented at execution time. Purely an
/// execution-resource choice, never a results choice: both paths produce
/// bit-identical tallies, telemetry, and cache keys for the same spec
/// (cache_normal_form strips this field).
///
///   kAuto         — materialize up to kMaterializeCap nodes, go implicit
///                   beyond (requires an implicit-capable scenario there);
///   kMaterialized — always build the CSR graph;
///   kImplicit     — always synthesize neighborhoods on demand (requires
///                   an implicit-capable scenario at every grid point).
enum class Execution { kAuto, kMaterialized, kImplicit };

/// Largest n kAuto will materialize. Above this a CSR graph plus ids
/// costs tens of MB and climbing — the regime implicit execution exists
/// for.
inline constexpr std::uint64_t kMaterializeCap = 4'000'000;

inline constexpr util::EnumNames<Execution, 3> kExecutionNames{{{
    {Execution::kAuto, "auto"},
    {Execution::kMaterialized, "materialized"},
    {Execution::kImplicit, "implicit"}}}};

const char* to_string(Execution execution) noexcept;
std::optional<Execution> execution_from_string(std::string_view text) noexcept;

struct ScenarioSpec {
  std::string name;
  std::string doc;

  std::string topology;
  std::string language;
  std::string construction;
  std::string decider = "exact";

  /// One shared namespace validated against the union of the four
  /// components' schemas (shared keys — e.g. "colors" — intentionally
  /// reach every component that declares them).
  ParamMap params;

  /// Fault model from the faults registry ("none" = perfectly reliable
  /// execution — the default, and byte-compatible with specs predating
  /// the fault axis). Fault parameters live in their own namespace
  /// (`fault_params`), validated against the fault entry's schema only:
  /// fault knobs like p-loss never collide with component parameters.
  std::string fault = "none";
  ParamMap fault_params;

  /// What each trial contributes (local/batch_runner.h):
  ///   kSuccess — a {0,1} outcome through the decider slot (Wilson
  ///              estimate of the success probability);
  ///   kValue   — the named `statistic` of the construction's output,
  ///              averaged with exact-sum mean/stddev;
  ///   kCounter — the same statistic summed exactly into integer slots.
  /// Value/counter workloads measure the construction directly, so they
  /// require the "exact" pseudo-decider and a registered statistic.
  local::WorkloadKind workload = local::WorkloadKind::kSuccess;

  /// The registered statistic a value/counter workload evaluates per
  /// trial (ignored for success workloads).
  std::string statistic;

  std::vector<std::uint64_t> n_grid;
  std::uint64_t trials = 1000;
  std::uint64_t base_seed = 1;

  /// Success notion of a trial: accept (true) or reject (false) — the
  /// reject side measures failure/rejection probabilities (e.g. Claim-2
  /// beta, the no-side of Eq. (1)). Ignored by value/counter workloads.
  bool success_on_accept = true;

  /// Execution mode for ball-based constructions (ignored otherwise).
  local::ExecMode mode = local::ExecMode::kBalls;

  /// Trial-execution backend for engine-backed constructions. kAuto lets
  /// compile() pick per grid point via OptimizationConfig::automatic;
  /// the named backends force the choice (kVectorized silently degrades
  /// to kBatched when the construction is not vectorizable). Recorded in
  /// spec JSON and warned about on sweep-shard merge mismatch.
  local::OptimizationConfig::Backend backend =
      local::OptimizationConfig::Backend::kAuto;

  /// Graph representation at execution time (see Execution above). Like
  /// `backend`, forcing it is a performance/memory choice, never a
  /// results choice.
  Execution execution = Execution::kAuto;
};

/// Resolves the spec against the registries: empty string when the spec is
/// well-formed, else a human-readable description of the first problem
/// (unknown component, parameter no component declares, empty grid, a
/// ring-only construction on a non-ring topology, a decider whose
/// language requirements the spec's language cannot meet, ...).
std::string validate(const ScenarioSpec& spec);

/// A spec compiled against the registries: resolved components plus one
/// ExperimentPlan per grid point. Owns everything the plans capture; keep
/// it alive while running them. Instances are interned process-wide, so
/// recompiling the same spec does not rebuild graphs.
class CompiledScenario {
 public:
  struct GridPoint {
    std::uint64_t requested_n = 0;
    std::shared_ptr<const local::Instance> instance;
    /// The spec's fault model bound to `instance` (null when the model is
    /// trivial): the one link layout per direction that every trial,
    /// engine run and vector batch of `plan` reads.
    std::shared_ptr<const fault::InstanceFaults> faults;
    local::ExperimentPlan plan;
  };

  const ScenarioSpec& spec() const noexcept { return spec_; }
  const std::vector<GridPoint>& points() const noexcept { return points_; }
  const lang::Language& language() const noexcept { return *language_; }
  const Construction& construction() const noexcept { return *construction_; }
  /// Null for the "exact" pseudo-decider.
  const decide::RandomizedDecider* decider() const noexcept {
    return decider_.get();
  }
  /// The spec's fault model (never null; trivial() for fault="none").
  const fault::FaultModel& fault_model() const noexcept {
    return *fault_model_;
  }

 private:
  friend CompiledScenario compile(const ScenarioSpec& spec);

  ScenarioSpec spec_;
  std::unique_ptr<lang::Language> language_;
  std::unique_ptr<Construction> construction_;
  std::unique_ptr<decide::RandomizedDecider> decider_;
  std::shared_ptr<const fault::FaultModel> fault_model_;
  std::vector<GridPoint> points_;
};

/// Compiles a validated spec (asserts validate(spec) is clean).
CompiledScenario compile(const ScenarioSpec& spec);

}  // namespace lnc::scenario
