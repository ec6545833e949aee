#include "serve/service.h"

#include <stdexcept>
#include <utility>

#include "serve/cache_key.h"
#include "util/assert.h"
#include "util/build_info.h"
#include "util/timer.h"

namespace lnc::serve {

const char* to_string(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kTopUp: return "topup";
  }
  return "?";
}

SweepService::SweepService(std::string cache_dir, ServiceOptions options)
    : store_(std::move(cache_dir)), options_(options) {
  if (options_.threads != 1) pool_.emplace(options_.threads);
}

std::mutex& SweepService::key_mutex(const CacheKey& key) {
  // The global lock guards only the map — held for a find/emplace, never
  // across a computation, so distinct keys run concurrently.
  std::lock_guard<std::mutex> guard(key_mutexes_guard_);
  std::unique_ptr<std::mutex>& slot = key_mutexes_[key];
  if (slot == nullptr) slot = std::make_unique<std::mutex>();
  return *slot;
}

SweepService::Stats SweepService::stats() const {
  std::lock_guard<std::mutex> guard(stats_guard_);
  return stats_;
}

obs::MetricsRegistry SweepService::metrics_snapshot() const {
  std::lock_guard<std::mutex> guard(stats_guard_);
  return metrics_;
}

CacheDecision decide_query(const ResultStore& store,
                           const scenario::ScenarioSpec& spec,
                           const CacheKey& key) {
  CacheDecision out;
  std::string diagnostic;
  out.entry = store.lookup(key, &diagnostic);
  if (!out.entry) {
    if (diagnostic != "no entry") out.notes.push_back("cache: " + diagnostic);
    out.run_spec = spec;
    out.trials_computed = spec.trials;
    return out;
  }
  const std::uint64_t cached = out.entry->spec.trials;
  out.run_spec = out.entry->spec;
  out.trials_reused = cached;
  if (cached >= spec.trials) {
    // Hit — possibly a superset of what was asked; aggregates cannot
    // surrender a prefix, and more trials only tighten the estimate.
    out.outcome = CacheOutcome::kHit;
    if (cached > spec.trials) {
      out.notes.push_back("serving the cached " + std::to_string(cached) +
                          "-trial result, a superset of the requested " +
                          std::to_string(spec.trials) +
                          " (aggregates cannot be narrowed)");
    }
  } else {
    // Top-up: per-trial streams depend only on the trial index, so
    // [T', T) under the entry's spec merged behind the cached prefix
    // equals a cold run at T bit for bit.
    out.outcome = CacheOutcome::kTopUp;
    out.run_spec.trials = spec.trials;
    out.trials_computed = spec.trials - cached;
  }
  if (out.run_spec.base_seed != spec.base_seed) {
    out.notes.push_back(
        "served from the entry's canonical seed " +
        std::to_string(out.run_spec.base_seed) + " (query asked for seed " +
        std::to_string(spec.base_seed) +
        "; the cache key deliberately excludes the seed)");
  }
  return out;
}

std::string cache_line(const std::string& scenario, CacheOutcome outcome,
                       std::uint64_t trials_reused,
                       std::uint64_t trials_computed, const CacheKey& key) {
  return "cache[" + scenario + "]: outcome=" + to_string(outcome) +
         " trials_reused=" + std::to_string(trials_reused) +
         " trials_computed=" + std::to_string(trials_computed) +
         " key=" + key.substr(0, 16) +
         " epoch=" + std::to_string(util::seed_stream_epoch());
}

QueryOutcome SweepService::query(const scenario::ScenarioSpec& spec) {
  const std::string invalid = scenario::validate(spec);
  if (!invalid.empty()) {
    throw std::runtime_error("invalid spec: " + invalid);
  }
  QueryOutcome out;
  out.key = cache_key(spec);
  const util::Timer query_timer;

  // In-flight deduplication: identical concurrent queries serialize
  // here, so the loser of a miss race re-reads the winner's entry and
  // becomes a hit instead of repeating the computation.
  std::lock_guard<std::mutex> key_guard(key_mutex(out.key));

  const util::Timer lookup_timer;
  CacheDecision decision = decide_query(store_, spec, out.key);
  const double lookup_seconds = lookup_timer.elapsed_seconds();
  out.outcome = decision.outcome;
  out.trials_reused = decision.trials_reused;
  out.trials_computed = decision.trials_computed;
  out.served_seed = decision.run_spec.base_seed;
  out.seed_differs = out.served_seed != spec.base_seed;
  out.notes = std::move(decision.notes);

  if (decision.outcome == CacheOutcome::kHit) {
    out.result = std::move(decision.entry->result);
  } else {
    scenario::SweepOptions sweep_options;
    sweep_options.pool = pool_ ? &*pool_ : nullptr;
    if (decision.entry) {
      sweep_options.trial_range =
          local::TrialRange{decision.trials_reused, decision.run_spec.trials};
    }
    out.result = scenario::run_sweep(scenario::compile(decision.run_spec),
                                     sweep_options);
    if (decision.entry) {
      const scenario::SweepResult parts[] = {std::move(decision.entry->result),
                                             std::move(out.result)};
      out.result = scenario::merge_trial_ranges(parts);
    }
    const std::string store_error =
        store_.store({out.key, 0, {}, decision.run_spec, out.result});
    if (!store_error.empty()) {
      out.notes.push_back("cache write-back failed: " + store_error);
    }
  }

  {
    std::lock_guard<std::mutex> guard(stats_guard_);
    ++stats_.queries;
    if (out.outcome == CacheOutcome::kHit) ++stats_.hits;
    if (out.outcome == CacheOutcome::kTopUp) ++stats_.topups;
    if (out.outcome == CacheOutcome::kMiss) ++stats_.misses;
    stats_.trials_computed += out.trials_computed;
    stats_.trials_reused += out.trials_reused;
    metrics_.observe("cache_lookup_seconds", lookup_seconds);
    metrics_.observe("query_seconds", query_timer.elapsed_seconds());
  }
  return out;
}

}  // namespace lnc::serve
