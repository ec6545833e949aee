// The scenario registries — string-addressable catalogues of the four
// component kinds every experiment in this repo wires together:
//
//   topology      — instance families (graph/generators + identity policy);
//   language      — the distributed language being constructed/decided
//                   (lang/*, including the paper's relaxations);
//   construction  — Monte-Carlo / deterministic construction algorithms
//                   (src/algo), uniformly runnable per trial whether they
//                   are ball algorithms or engine node programs;
//   decider       — randomized local deciders (src/decide), plus the
//                   pseudo-decider "exact" (global membership check).
//
// Each entry self-describes with a name, a parameter schema (numeric
// knobs with defaults and docs), and a doc string, so drivers can list,
// validate, and build components without compiling new binaries. A
// scenario (scenario/scenario.h) references entries by name and compiles
// into ExperimentPlans; `lnc_sweep` exposes the whole catalogue on the
// command line.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decide/decider.h"
#include "fault/fault.h"
#include "lang/language.h"
#include "local/batch_runner.h"
#include "local/instance.h"

namespace lnc::scenario {

/// Numeric parameters keyed by name. Every component knob in the repo is
/// numeric, which keeps specs JSON-friendly; validation fills defaults and
/// rejects keys no component schema declares.
using ParamMap = std::map<std::string, double>;

/// One declared knob of a component. The inclusive [min_value, max_value]
/// range mirrors the component's constructor preconditions, so spec-level
/// validation rejects out-of-range values with a diagnostic instead of
/// letting the build abort on a contract violation.
struct ParamSpec {
  std::string name;
  double default_value = 0.0;
  std::string doc;
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
};
using ParamSchema = std::vector<ParamSpec>;

/// Completes `params` against `schema`: the result holds every schema key
/// (user value if given, default otherwise). Keys outside the schema are
/// IGNORED here — scenarios share one parameter namespace across their
/// four components, so cross-component keys are expected; spec-level
/// validation separately rejects keys unknown to all schemas.
ParamMap merged_params(const ParamSchema& schema, const ParamMap& params);

/// The numeric value of `name` in a merged map (asserts presence).
double param(const ParamMap& merged, const std::string& name);

// ---------------------------------------------------------------------------
// Topologies

struct TopologyEntry {
  std::string name;
  std::string doc;
  ParamSchema schema;
  /// Builds the instance (graph + identities + inputs). `n` is the
  /// REQUESTED size; rigid families (grid, hypercube, petersen) realize
  /// the nearest size they support — read node_count() off the result.
  /// `params` is schema-merged; `seed` drives any sampling, so equal
  /// arguments always produce equal instances.
  std::function<local::Instance(std::uint64_t n, const ParamMap& params,
                                std::uint64_t seed)>
      build;
  /// Implicit counterpart of `build`: synthesizes the SAME topology
  /// (identical size realization, identical edges — the bit-identity
  /// contract tests/topology_test.cpp asserts) as an on-demand
  /// ImplicitTopology, so ball-mode plans run at n beyond what `build`
  /// can materialize. Null when the family cannot be sampled locally;
  /// a non-null hook may still return null for parameter combinations it
  /// cannot honor (e.g. random-ids=1 — implicit instances carry the
  /// computed consecutive assignment).
  std::function<std::shared_ptr<const graph::ImplicitTopology>(
      std::uint64_t n, const ParamMap& params, std::uint64_t seed)>
      build_implicit;
};

// ---------------------------------------------------------------------------
// Languages

/// Implemented by registered relaxation wrappers (f-resilient, eps-slack,
/// poly-resilient) so deciders can reach the LCL core they check balls
/// against. Prefer the free function lcl_core() below, which also handles
/// plain LCL languages and the raw lang/relax.h wrappers.
class RelaxedLanguage : public lang::Language {
 public:
  virtual const lang::LclLanguage& core() const = 0;
};

/// The LCL language underlying `language`: the language itself when it is
/// an LclLanguage, the base of a (registered or raw) relaxation wrapper,
/// null otherwise (e.g. amos).
const lang::LclLanguage* lcl_core(const lang::Language& language);

/// True for the topologies that realize the canonical oriented cycle —
/// the shapes ring_only constructions (Cole-Vishkin) accept.
bool is_canonical_ring(const std::string& topology);

struct LanguageEntry {
  std::string name;
  std::string doc;
  ParamSchema schema;
  std::function<std::unique_ptr<lang::Language>(const ParamMap& params)> build;
};

// ---------------------------------------------------------------------------
// Constructions

/// A construction algorithm resolved from the registry: one uniform way to
/// run one construction per trial, regardless of substrate (ball algorithm
/// vs engine node program). Randomness comes from the trial's construction
/// coins; scratch from the trial's WorkerArena.
class Construction {
 public:
  struct Outcome {
    int rounds = 0;  ///< LOCAL rounds executed (0 for zero-round/ball runs)
  };

  /// Per-run knobs beyond the TrialEnv. An engaged `fault` (bound to the
  /// instance being run) runs the construction under that adversary
  /// (drawing from the trial's fault_coins()); only fault-capable
  /// constructions accept one — scenario validation enforces the flag. A
  /// run is one sequential trial: Monte-Carlo sweeps parallelize across
  /// trials.
  struct RunOptions {
    const fault::InstanceFaults* fault = nullptr;
  };

  virtual ~Construction() = default;
  virtual std::string name() const = 0;

  /// Runs one construction into `output` (resized to inst.node_count()).
  virtual Outcome run(const local::Instance& inst, const local::TrialEnv& env,
                      local::Labeling& output,
                      const RunOptions& options) const = 0;
  Outcome run(const local::Instance& inst, const local::TrialEnv& env,
              local::Labeling& output) const {
    return run(inst, env, output, RunOptions());
  }

  /// The underlying ball algorithm when this construction is ball-based —
  /// non-null lets scenario compilation run it under the spec's exec mode
  /// and route deciders through decide::construct_then_decide_plan.
  virtual const local::RandomizedBallAlgorithm* ball_algorithm() const {
    return nullptr;
  }

  /// The node-program factory when this construction is an engine program
  /// — non-null lets scenario compilation probe the factory's
  /// create_vector() capability and attach a trial-vectorized execution
  /// (local/vector_engine.h) to the compiled plan.
  virtual const local::NodeProgramFactory* engine_factory() const {
    return nullptr;
  }
};

struct ConstructionEntry {
  std::string name;
  std::string doc;
  ParamSchema schema;
  bool randomized = true;
  /// Requires the canonical oriented cycle (graph::cycle) as topology.
  bool ring_only = false;
  /// The language this construction naturally targets (empty when there
  /// is no sensible default) — drivers use it to verify outputs without
  /// being told a language explicitly.
  std::string default_language;
  /// Honors Construction::RunOptions::fault: its run is well-defined when
  /// nodes crash and deliveries vanish (ball algorithms censored by the
  /// fault subgraph, or engine programs hardened against silent ports).
  /// Validation rejects non-trivial faults on entries left at false.
  bool fault_capable = false;
  std::function<std::unique_ptr<Construction>(const ParamMap& params)> build;
};

// ---------------------------------------------------------------------------
// Statistics (value / counter workloads)

/// Everything a per-trial statistic may read: the instance, the
/// construction's output labeling and outcome (executed rounds), the
/// scenario's language, and the trial's telemetry delta — the
/// communication volume this construction run charged (measured for
/// engine runs, simulation-theorem-modeled for ball runs).
struct StatisticContext {
  const local::Instance* instance = nullptr;
  const local::Labeling* output = nullptr;
  Construction::Outcome outcome;
  const lang::Language* language = nullptr;
  local::Telemetry delta;
  /// The trial worker's ball workspace (and through it the runner's ball
  /// atlas) for statistics that inspect balls; null reads none.
  local::BallWorkspace* balls = nullptr;
};

/// One registered per-trial statistic — the quantity a value workload
/// averages (BatchRunner::run_mean) or a counter workload sums exactly.
struct StatisticEntry {
  std::string name;
  std::string doc;
  /// Integer-valued statistics are eligible for counter workloads: their
  /// per-trial values sum exactly into uint64 slots. Opt-in (false by
  /// default) so a forgotten flag on a fractional statistic fails safe —
  /// value workloads always work.
  bool integer_valued = false;
  /// Requires lcl_core(language) != null (bad-ball statistics).
  bool needs_lcl = false;
  /// Reads the trial's telemetry delta; scenario compilation then routes
  /// the plan through the custom path that snapshots telemetry per trial.
  bool needs_telemetry = false;
  std::function<double(const StatisticContext&)> eval;
};

// ---------------------------------------------------------------------------
// Faults

/// One registered fault model (src/fault/): an adversary every scenario
/// may name. `build` receives schema-merged params; the returned model is
/// immutable and shareable across trials (all per-trial state lives in
/// the trial's fault coin stream).
struct FaultEntry {
  std::string name;
  std::string doc;
  ParamSchema schema;
  std::function<std::shared_ptr<const fault::FaultModel>(
      const ParamMap& params)>
      build;
};

// ---------------------------------------------------------------------------
// Deciders

/// Adapts a deterministic decider to the randomized interface (ignores the
/// coins; guarantee 1), so every decider slot in the registry speaks
/// RandomizedDecider.
class AsRandomizedDecider final : public decide::RandomizedDecider {
 public:
  explicit AsRandomizedDecider(std::unique_ptr<decide::Decider> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int radius() const override { return inner_->radius(); }
  double guarantee() const override { return 1.0; }
  bool accept(const decide::DeciderView& view,
              const rand::CoinProvider& /*coins*/) const override {
    return inner_->accept(view);
  }

 private:
  std::unique_ptr<decide::Decider> inner_;
};

struct DeciderEntry {
  std::string name;
  std::string doc;
  ParamSchema schema;
  /// The pseudo-decider "exact": global membership check by the scenario's
  /// language instead of a local decider (measures the construction's raw
  /// success probability r). `build` is unused when set.
  bool global_check = false;
  /// Requires lcl_core(language) != null (bad-ball-based deciders).
  bool needs_lcl = false;
  /// Evaluation must grant knowledge of n (the BPLD#node deciders).
  bool needs_n = false;
  /// `language` may be null for language-independent deciders (amos).
  std::function<std::unique_ptr<decide::RandomizedDecider>(
      const lang::Language* language, const ParamMap& params)>
      build;
};

// ---------------------------------------------------------------------------
// The registries

template <typename Entry>
class Registry {
 public:
  /// Registers an entry (unique names; re-registration asserts).
  void add(Entry entry);

  /// Looks an entry up by name; null when absent.
  const Entry* find(const std::string& name) const;

  /// All entries in name order.
  std::vector<const Entry*> all() const;

 private:
  std::map<std::string, Entry> entries_;
};

/// The process-wide registries. First access registers the built-in
/// components (scenario/builtins.cpp); callers may add their own through
/// the mutable accessors before building scenarios.
Registry<TopologyEntry>& topologies();
Registry<LanguageEntry>& languages();
Registry<ConstructionEntry>& constructions();
Registry<DeciderEntry>& deciders();
Registry<StatisticEntry>& statistics();
Registry<FaultEntry>& faults();

// ---------------------------------------------------------------------------
// Convenience builders (assert on unknown names; scenario/scenario.h
// offers the error-returning validation path)

/// Builds an instance of the named topology at requested size n.
local::Instance build_instance(const std::string& topology, std::uint64_t n,
                               const ParamMap& params = {},
                               std::uint64_t seed = 1);

/// Process-wide interned fixed instances keyed by (topology, n, params,
/// seed): repeated requests — across plans, sweeps, and worker samplers —
/// share one immutable instance instead of rebuilding the graph
/// (ROADMAP "Instance caching"). Thread-safe.
std::shared_ptr<const local::Instance> interned_instance(
    const std::string& topology, std::uint64_t n, const ParamMap& params = {},
    std::uint64_t seed = 1);

/// Same interning for the implicit representation (distinct key space —
/// the two representations of one spec coexist without evicting each
/// other). Asserts the named topology declares build_implicit; returns
/// null when the hook declines the parameter combination.
std::shared_ptr<const local::Instance> interned_implicit_instance(
    const std::string& topology, std::uint64_t n, const ParamMap& params = {},
    std::uint64_t seed = 1);

std::unique_ptr<lang::Language> make_language(const std::string& name,
                                              const ParamMap& params = {});
std::unique_ptr<Construction> make_construction(const std::string& name,
                                                const ParamMap& params = {});
std::unique_ptr<decide::RandomizedDecider> make_decider(
    const std::string& name, const lang::Language* language,
    const ParamMap& params = {});
std::shared_ptr<const fault::FaultModel> make_fault(
    const std::string& name, const ParamMap& params = {});

}  // namespace lnc::scenario
