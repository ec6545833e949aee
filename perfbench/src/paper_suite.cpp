// paper-suite: every shipped preset, compiled once and swept at one
// thread per round — the `lnc_sweep --all` load that reproduces the
// paper's tables. The checks sweep every preset again at four threads.

#include <algorithm>
#include <optional>

#include "scenario/presets.h"
#include "stats/threadpool.h"
#include "workload.h"

namespace perfbench {
namespace {

using lnc::scenario::CompiledScenario;
using lnc::scenario::ScenarioSpec;
using lnc::scenario::SweepResult;

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(const Options& options)
      : options_(options), pool_(4) {}

  void setup(unsigned rep, Timing& timing) override {
    compiled_.clear();
    results_.clear();
    for (const ScenarioSpec& preset : lnc::scenario::preset_scenarios()) {
      const ScenarioSpec spec = spec_for(preset, rep);
      timing.segment(spec.name, [&] {
        compiled_.push_back(lnc::scenario::compile(spec));
      });
    }
  }

  /// Every round of a slice repeats the same sweeps of the same compiled
  /// presets.
  Reduce round_reduce() const override { return Reduce::kMin; }

  double round(Timing& timing) override {
    double trials = 0.0;
    for (std::size_t i = 0; i < compiled_.size(); ++i) {
      SweepResult result;
      timing.segment(compiled_[i].spec().name, [&] {
        result = lnc::scenario::run_sweep(compiled_[i], {});
      });
      trials += static_cast<double>(result_trials(result));
      results_.push_back({i, std::move(result)});
    }
    return trials;
  }

  void check(Report& report) override {
    // Reference per preset: its first sweep. Every other sweep of the
    // preset must equal it.
    std::vector<std::optional<SweepResult>> reference(compiled_.size());
    for (const Run& run : results_) {
      if (!reference[run.preset]) {
        reference[run.preset] = run.result;
        if (options_.corrupt_reference) corrupt(*reference[run.preset]);
      }
    }
    for (const Run& run : results_) {
      std::string why;
      report.check(reference[run.preset] &&
                       same_result(run.result, *reference[run.preset], &why),
                   "sweep vs reference: " + why);
    }

    // The same sweep at four threads, and for engine-backed presets with
    // a vectorized program with either backend forced, must reproduce
    // the same bits.
    using Backend = lnc::local::OptimizationConfig::Backend;
    lnc::scenario::SweepOptions sweep_options;
    sweep_options.pool = &pool_;
    for (std::size_t i = 0; i < compiled_.size(); ++i) {
      std::string why;
      report.check(
          reference[i] &&
              same_result(lnc::scenario::run_sweep(compiled_[i], sweep_options),
                          *reference[i], &why),
          "4-thread sweep vs reference: " + why);
      if (!vectorizable(compiled_[i])) continue;
      for (const Backend backend : {Backend::kBatched, Backend::kVectorized}) {
        ScenarioSpec spec = compiled_[i].spec();
        spec.backend = backend;
        const SweepResult forced = lnc::scenario::run_sweep(
            lnc::scenario::compile(spec), sweep_options);
        const char* name =
            backend == Backend::kBatched ? "batched" : "vectorized";
        report.check(reference[i] && same_result(forced, *reference[i], &why),
                     std::string("forced ") + name +
                         " backend vs reference: " + why);
      }
    }
  }

 private:
  struct Run {
    std::size_t preset = 0;
    SweepResult result;
  };

  static bool vectorizable(const CompiledScenario& compiled) {
    for (const auto& point : compiled.points()) {
      if (point.plan.vector.factory != nullptr) return true;
    }
    return false;
  }

  ScenarioSpec spec_for(const ScenarioSpec& preset, unsigned rep) const {
    ScenarioSpec spec = preset;
    spec.base_seed = mix(preset.base_seed, mix(options_.seed, rep));
    if (options_.tiny) {
      spec.trials = std::max<std::uint64_t>(1, spec.trials / 50);
    }
    return spec;
  }

  Options options_;
  lnc::stats::ThreadPool pool_;
  std::vector<CompiledScenario> compiled_;
  std::vector<Run> results_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(const Options& options) {
  return std::make_unique<PaperSuite>(options);
}

}  // namespace perfbench
