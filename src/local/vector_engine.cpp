#include "local/vector_engine.h"

#include <algorithm>
#include <numeric>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "rand/coins.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::local {
namespace {

/// Same runaway guard as EngineOptions::max_rounds (fault-free runs).
constexpr int kMaxRounds = 1 << 20;

}  // namespace

OptimizationConfig OptimizationConfig::automatic(std::uint64_t n,
                                                 std::uint64_t trials,
                                                 double mean_degree) {
  OptimizationConfig config;
  if (trials <= 2) {
    // Too few trials for arena reuse (let alone lockstep) to pay for
    // itself; fresh scalar arenas also keep one-shot debugging runs simple.
    config.backend = Backend::kNaive;
    return config;
  }
  if (trials < 8) {
    config.backend = Backend::kBatched;
    return config;
  }
  config.backend = Backend::kVectorized;
  // Size the lockstep batch so one batch's SoA state stays cache-resident:
  // roughly 64 bytes per (trial, node) of RNG + flags + program state,
  // plus the port-indexed arrays of degree-proportional programs. Clamp to
  // [4, 64] trials — below 4 the batch overhead dominates, above 64 the
  // marginal amortization is gone.
  const double per_trial_bytes =
      static_cast<double>(n) * (64.0 + 16.0 * std::max(mean_degree, 1.0));
  const double budget = 4.0 * 1024.0 * 1024.0;
  std::uint64_t batch =
      static_cast<std::uint64_t>(std::max(budget / std::max(per_trial_bytes, 1.0), 1.0));
  batch = std::clamp<std::uint64_t>(batch, 4, 64);
  config.batch_trials = std::min<std::uint64_t>(batch, trials);
  return config;
}

const char* to_string(OptimizationConfig::Backend backend) noexcept {
  return kBackendNames.name(backend);
}

std::optional<OptimizationConfig::Backend> backend_from_string(
    std::string_view text) noexcept {
  return kBackendNames.parse(text);
}

std::size_t VectorBatch::footprint_bytes() const noexcept {
  return rngs_.capacity() * sizeof(VecRng) + halted_.capacity() +
         live_nodes_.capacity() * sizeof(std::uint32_t) +
         rounds_.capacity() * sizeof(int) +
         (messages_.capacity() + words_.capacity()) * sizeof(std::uint64_t) +
         (live_trials_.capacity() + active_nodes_.capacity() +
          active_counts_.capacity() + dead_counts_.capacity()) *
             sizeof(std::uint32_t) +
         (draw_hi_.capacity() + draw_lo_.capacity() + fault_keys_.capacity() +
          crash_rounds_.capacity() + link_draws_.capacity() +
          dropped_.capacity() + churned_.capacity()) *
             sizeof(std::uint64_t) +
         dead_.capacity() + silent_.capacity() +
         crashes_.capacity() * sizeof(Crash) +
         (crash_next_.capacity() + crash_end_.capacity()) *
             sizeof(std::size_t);
}

void VectorBatch::draw_next(std::uint32_t trial,
                            std::span<const std::uint32_t> nodes,
                            std::vector<std::uint64_t>& out) {
  out.resize(nodes.size());
  if (nodes.empty()) return;
  draw_hi_.resize(nodes.size());
  draw_lo_.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    VecRng& stream = rng(trial, nodes[i]);
    draw_hi_[i] = stream.identity;
    draw_lo_[i] = stream.counter++;
  }
  rand::philox_u64_batch(rng(trial, nodes[0]).key, draw_hi_.data(),
                         draw_lo_.data(), out.data(), nodes.size());
}

void VectorBatch::compact_active(std::uint32_t trial) noexcept {
  std::uint32_t* list = active_nodes_.data() + at(trial, 0);
  const std::uint32_t count = active_counts_[trial];
  std::uint32_t kept = 0;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t v = list[k];
    if (halted_[at(trial, v)] == 0) list[kept++] = v;
  }
  active_counts_[trial] = kept;
}

void VectorBatch::reset_faults(const fault::InstanceFaults* fault,
                               std::span<const std::uint64_t> fault_keys) {
  fault_ = fault::engaged(fault) ? &fault->model() : nullptr;
  if (fault_ == nullptr) return;
  LNC_EXPECTS(fault_keys.size() == trials_ &&
              "non-trivial fault model requires every trial's fault key");
  LNC_EXPECTS(&fault->graph() == &inst_->g &&
              "fault binding belongs to another instance");
  // Resolve the adversary once per batch: every trial's crash schedule.
  // The link keys are pure functions of the identities, shared by all
  // trials and batches: the binding's layout, the same one run_engine
  // draws its columns over.
  const graph::Graph& g = inst_->g;
  churn_ = fault_->link().kind == fault::LinkFault::kChurn;
  ports_ = g.port_count();
  fault_keys_.assign(fault_keys.begin(), fault_keys.end());
  dead_.assign(static_cast<std::size_t>(trials_) * n_, 0);
  dead_counts_.assign(trials_, 0);
  silent_.assign(trials_ * ports_, 0);
  dropped_.assign(trials_, 0);
  churned_.assign(trials_, 0);
  crashes_.clear();
  crash_next_.resize(trials_);
  crash_end_.resize(trials_);
  for (std::uint32_t t = 0; t < trials_; ++t) {
    fault_->crash_rounds(rand::PhiloxCoins::from_key(fault_keys[t]),
                         fault->identities(), crash_rounds_);
    crash_next_[t] = crashes_.size();
    for (std::uint32_t v = 0; v < n_; ++v) {
      if (crash_rounds_[v] != fault::kNeverCrashes) {
        crashes_.push_back({crash_rounds_[v], v});
      }
    }
    crash_end_[t] = crashes_.size();
    // Same-round crashes are applied together, so only rounds order them.
    std::sort(crashes_.begin() + static_cast<std::ptrdiff_t>(crash_next_[t]),
              crashes_.end(),
              [](const Crash& a, const Crash& b) { return a.round < b.round; });
  }
  links_ = nullptr;
  if (fault_->has_link_faults()) {
    links_ = &fault->links(/*directed=*/!churn_);
    link_draws_.resize(links_->keys.size());
  }
}

void VectorBatch::silence_ports_facing(std::uint32_t trial,
                                       std::uint32_t node) noexcept {
  const graph::Graph& g = inst_->g;
  char* silent = silent_.data() + static_cast<std::size_t>(trial) * ports_;
  for (const graph::NodeId u : g.neighbors(node)) {
    silent[g.port_offset(u) + g.port_of(u, node)] = 1;
  }
}

void VectorBatch::realize_faults(std::uint32_t t, int round) {
  const graph::Graph& g = inst_->g;
  const auto r = static_cast<std::uint64_t>(round);
  char* dead = dead_.data() + at(t, 0);
  char* silent = silent_.data() + static_cast<std::size_t>(t) * ports_;

  // Crash-stop resolution: a node whose crash round has arrived falls
  // silent before sending, halted relays included. Its neighbours' ports
  // facing it stay silent from now on.
  bool crashed = false;
  for (; crash_next_[t] < crash_end_[t] && crashes_[crash_next_[t]].round <= r;
       ++crash_next_[t]) {
    const std::uint32_t v = crashes_[crash_next_[t]].node;
    dead[v] = 1;
    ++dead_counts_[t];
    set_halted(t, v);
    silence_ports_facing(t, v);
    crashed = true;
  }
  if (crashed) compact_active(t);
  if (!fault_->has_link_faults()) return;

  // Link-fault pass: this round's column in one bulk draw, then the
  // silence bits and run_engine's tallies — a churned edge counts once
  // (churn draws one key per edge); a drop counts only when there was a
  // delivery to lose (a live sender and a receiver still running; drop
  // draws one key per port, in port order).
  rand::PhiloxCoins::from_key(fault_keys_[t])
      .draw_column(links_->keys, r, link_draws_);
  if (churn_) {
    std::uint64_t hits = 0;
    for (std::uint64_t& draw : link_draws_) {
      draw = fault_->link_hit(draw) ? 1 : 0;
      hits += draw;
    }
    churned_[t] += hits;
    for (std::size_t port = 0; port < ports_; ++port) {
      silent[port] = static_cast<char>(link_draws_[links_->port_slot[port]]);
    }
    if (dead_counts_[t] == 0) return;
    for (graph::NodeId v = 0; v < n_; ++v) {
      if (dead[v] != 0) silence_ports_facing(t, v);
    }
    return;
  }
  const char* halted = halted_.data() + at(t, 0);
  for (graph::NodeId v = 0; v < n_; ++v) {
    const auto nbrs = g.neighbors(v);
    const std::size_t base = g.port_offset(v);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const bool hit = fault_->link_hit(link_draws_[base + p]);
      const bool sender_dead = dead[nbrs[p]] != 0;
      silent[base + p] = static_cast<char>(hit || sender_dead);
      dropped_[t] += hit && halted[v] == 0 && !sender_dead ? 1 : 0;
    }
  }
}

void run_vector_batch(const Instance& inst, const NodeProgramFactory& factory,
                      std::span<const std::uint64_t> coin_keys,
                      const fault::InstanceFaults* fault,
                      std::span<const std::uint64_t> fault_keys,
                      VectorScratch& scratch, Telemetry* accumulate,
                      const VectorFinish& finish) {
  const auto trials = static_cast<std::uint32_t>(coin_keys.size());
  if (trials == 0) return;
  const auto n = static_cast<std::uint32_t>(inst.node_count());

  const bool may_recycle = scratch.program_ != nullptr &&
                           scratch.last_factory_ == &factory &&
                           scratch.last_factory_name_ == factory.name();
  if (!may_recycle) {
    scratch.program_ = factory.create_vector();
    LNC_EXPECTS(scratch.program_ != nullptr);
    scratch.last_factory_ = &factory;
    scratch.last_factory_name_ = factory.name();
  }
  VectorProgram& program = *scratch.program_;

  VectorBatch& batch = scratch.batch_;
  batch.inst_ = &inst;
  batch.n_ = n;
  batch.trials_ = trials;
  const std::size_t total = static_cast<std::size_t>(trials) * n;
  batch.rngs_.resize(total);
  batch.halted_.assign(total, 0);
  batch.live_nodes_.assign(trials, n);
  batch.rounds_.assign(trials, 0);
  batch.messages_.assign(trials, 0);
  batch.words_.assign(trials, 0);
  for (std::uint32_t t = 0; t < trials; ++t) {
    const std::uint64_t key = coin_keys[t];
    VecRng* row = batch.rngs_.data() + batch.at(t, 0);
    for (std::uint32_t v = 0; v < n; ++v) row[v] = VecRng{key, inst.ids[v], 0};
  }
  batch.live_trials_.resize(trials);
  std::iota(batch.live_trials_.begin(), batch.live_trials_.end(), 0u);
  batch.active_nodes_.resize(total);
  batch.active_counts_.assign(trials, n);
  for (std::uint32_t t = 0; t < trials; ++t) {
    std::uint32_t* list = batch.active_nodes_.data() + batch.at(t, 0);
    std::iota(list, list + n, 0u);
  }

  batch.reset_faults(fault, fault_keys);

  program.init(batch);

  // Re-filters a live trial's active-node list after halts, and retires
  // trials whose last node halted (recording the terminating round).
  const auto settle = [&](int round) {
    const auto settle_trial = [&](std::uint32_t t) {
      if (batch.live_nodes_[t] == 0) {
        batch.rounds_[t] = round;
        return true;
      }
      batch.compact_active(t);
      return false;
    };
    auto& live = batch.live_trials_;
    live.erase(std::remove_if(live.begin(), live.end(), settle_trial),
               live.end());
  };

  // Observability-only kernel timing and footprint: recorded into the
  // worker's metrics registry when one is installed (a null TLS read
  // otherwise). The lockstep round loop is the batch's hot kernel.
  obs::MetricsRegistry* obs_metrics = obs::worker_metrics();
  const util::Timer kernel_timer;
  settle(0);
  const bool faulty = batch.fault_ != nullptr;
  const int max_rounds = faulty ? kFaultMaxRounds : kMaxRounds;
  int round = 0;
  while (!batch.live_trials_.empty()) {
    if (round >= max_rounds) {
      // Only a faulty run may stall; it keeps its current outputs.
      LNC_ASSERT(faulty);
      for (const std::uint32_t t : batch.live_trials_) batch.rounds_[t] = round;
      break;
    }
    ++round;
    if (faulty) {
      batch.for_each_live_trial(
          [&](std::uint32_t t) { batch.realize_faults(t, round); });
    }
    program.round(batch, round);
    settle(round);
  }
  if (obs_metrics != nullptr) {
    obs_metrics->observe("vector_kernel_seconds",
                         kernel_timer.elapsed_seconds());
    obs_metrics->observe("vector_batch_footprint_bytes",
                         static_cast<double>(batch.footprint_bytes() +
                                             program.footprint_bytes()));
  }

  if (accumulate != nullptr) {
    accumulate->arena_peak_bytes =
        std::max(accumulate->arena_peak_bytes,
                 static_cast<std::uint64_t>(batch.footprint_bytes() +
                                            program.footprint_bytes()));
  }
  for (std::uint32_t t = 0; t < trials; ++t) {
    Telemetry delta;
    delta.messages_sent = batch.messages_[t];
    delta.words_sent = batch.words_[t];
    delta.rounds_executed = static_cast<std::uint64_t>(batch.rounds_[t]);
    program.output(batch, t, scratch.output_);
    if (faulty) {
      delta.messages_dropped = batch.dropped_[t];
      delta.nodes_crashed = batch.dead_counts_[t];
      delta.edges_churned = batch.churned_[t];
      // A crashed node produced no output: label 0 is its tombstone.
      const char* dead = batch.dead_.data() + batch.at(t, 0);
      for (std::uint32_t v = 0; v < n; ++v) {
        if (dead[v] != 0) scratch.output_[v] = 0;
      }
    }
    if (accumulate != nullptr) accumulate->merge(delta);
    finish(t, scratch.output_, batch.rounds_[t], delta);
  }
}

}  // namespace lnc::local
