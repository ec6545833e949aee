#include "local/engine.h"

#include <algorithm>

#include "fault/fault.h"
#include "local/vector_engine.h"
#include "obs/metrics.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::local {

std::unique_ptr<VectorProgram> NodeProgramFactory::create_vector() const {
  return nullptr;
}

namespace {

/// Port of (v+1) mod n in v's sorted neighbor list, for the canonical cycle
/// produced by graph::cycle(). Returns nullopt when g is not that cycle.
std::optional<std::vector<std::uint32_t>> ring_successor_ports(
    const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  if (n < 3) return std::nullopt;
  std::vector<std::uint32_t> ports(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (g.degree(v) != 2) return std::nullopt;
    const graph::NodeId succ = (v + 1) % n;
    const auto nbrs = g.neighbors(v);
    if (nbrs[0] == succ) {
      ports[v] = 0;
    } else if (nbrs[1] == succ) {
      ports[v] = 1;
    } else {
      return std::nullopt;
    }
  }
  return ports;
}

}  // namespace

EngineResult run_engine(const Instance& inst,
                        const NodeProgramFactory& factory,
                        const EngineOptions& options) {
  inst.validate();
  const graph::NodeId n = inst.node_count();

  // Observability-only run timing: lands in the worker's metrics
  // registry when one is installed (obs::WorkerMetricsScope), otherwise
  // a single TLS load. Never touches the deterministic telemetry.
  obs::MetricsRegistry* obs_metrics = obs::worker_metrics();
  const util::Timer run_timer;

  std::optional<std::vector<std::uint32_t>> succ_ports;
  if (options.grant_ring_orientation) {
    succ_ports = ring_successor_ports(inst.g);
    LNC_EXPECTS(succ_ports.has_value() &&
                "grant_ring_orientation requires the canonical cycle");
  }

  EngineScratch local_scratch;
  EngineScratch& s =
      options.scratch != nullptr ? *options.scratch : local_scratch;

  // Program recycling: retained programs from a previous run on this
  // scratch may be reset in place when the SAME factory runs again and
  // opts in via recreate() — the per-trial hot path then allocates no
  // programs at all.
  const bool may_recycle = s.last_factory_ == &factory &&
                           s.last_factory_name_ == factory.name();
  s.programs_.resize(n);
  s.halted_.assign(n, 0);
  s.rngs_.clear();
  if (options.coins != nullptr) {
    // reserve() keeps &rngs_[v] stable while programs hold the pointer for
    // the whole run.
    s.rngs_.reserve(n);
  }

  for (graph::NodeId v = 0; v < n; ++v) {
    const bool recycled = may_recycle && s.programs_[v] != nullptr &&
                          factory.recreate(*s.programs_[v]);
    if (!recycled) s.programs_[v] = factory.create();
    NodeEnv env;
    env.id = inst.ids[v];
    env.input = inst.input_of(v);
    env.degree = inst.g.degree(v);
    if (succ_ports) env.succ_port = (*succ_ports)[v];
    if (options.grant_n) env.n_nodes = n;
    if (options.coins != nullptr) {
      s.rngs_.emplace_back(*options.coins, inst.ids[v]);
      env.rng = &s.rngs_.back();
    }
    s.halted_[v] = s.programs_[v]->init(env) ? 1 : 0;
  }
  s.last_factory_ = &factory;
  s.last_factory_name_ = factory.name();

  // Resolve the adversary once per run: crash rounds are pure per-node
  // draws. The link draws' keys depend only on the identities, so the
  // binding laid them out once for every run over this instance — one
  // per undirected edge for churn, one per port (directed delivery) for
  // drop. Each round then fills all of its link draws with one batched
  // column (slot = the round).
  const bool fault_active = fault::engaged(options.fault);
  const fault::FaultModel* model =
      fault_active ? &options.fault->model() : nullptr;
  const bool link_faults = fault_active && model->has_link_faults();
  const bool churn =
      link_faults && model->link().kind == fault::LinkFault::kChurn;
  const fault::LinkLayout* links = nullptr;
  if (fault_active) {
    LNC_EXPECTS(options.fault_coins != nullptr &&
                "non-trivial fault model requires its coin stream");
    LNC_EXPECTS(&options.fault->graph() == &inst.g &&
                "fault binding belongs to another instance");
    model->crash_rounds(*options.fault_coins, options.fault->identities(),
                        s.crash_rounds_);
    s.dead_.assign(n, 0);
  }
  if (link_faults) {
    links = &options.fault->links(/*directed=*/!churn);
    s.link_draws_.resize(links->keys.size());
    s.suppressed_.assign(inst.g.port_count(), 0);
  }

  auto all_halted = [&]() {
    return std::all_of(s.halted_.begin(), s.halted_.end(),
                       [](char h) { return h != 0; });
  };

  s.store_.reset(n);

  // Measured telemetry for THIS run; merged into the scratch accumulator
  // at the end (BatchRunner reads per-worker totals from there).
  Telemetry run_telemetry;

  auto finish = [&](int rounds, bool completed) {
    EngineResult result;
    result.completed = completed;
    result.rounds = rounds;
    result.output.resize(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      // A crashed node produced no output; label 0 is its tombstone (the
      // deciders treat crashed nodes separately — see decide/evaluate.cpp).
      result.output[v] = fault_active && s.dead_[v] != 0
                             ? Label{0}
                             : s.programs_[v]->output();
    }
    run_telemetry.rounds_executed = static_cast<std::uint64_t>(rounds);
    run_telemetry.arena_peak_bytes =
        s.store_.footprint_bytes() +
        s.programs_.capacity() * sizeof(s.programs_[0]) +
        s.rngs_.capacity() * sizeof(rand::NodeRng) + s.halted_.capacity();
    result.telemetry = run_telemetry;
    s.telemetry_.merge(run_telemetry);
    if (obs_metrics != nullptr) {
      obs_metrics->observe("engine_run_seconds", run_timer.elapsed_seconds());
    }
    if (options.retain_programs) result.programs = std::move(s.programs_);
    return result;
  };

  int round = 0;
  while (!all_halted()) {
    if (round >= options.max_rounds) return finish(round, false);
    ++round;

    // Crash-stop resolution: a node whose crash round has arrived falls
    // silent BEFORE sending (it is dead for this and all later rounds).
    // Only crashes realized within the executed window are counted — the
    // tally is still a pure function of the trial, not of the schedule.
    if (fault_active) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (s.dead_[v] == 0 &&
            s.crash_rounds_[v] <= static_cast<std::uint64_t>(round)) {
          s.dead_[v] = 1;
          s.halted_[v] = 1;
          ++run_telemetry.nodes_crashed;
        }
      }
    }

    s.store_.begin_round();
    for (graph::NodeId v = 0; v < n; ++v) {
      MessageWriter out = s.store_.writer(v);
      if (!fault_active || s.dead_[v] == 0) s.programs_[v]->send(round, out);
      s.store_.end_write(v);
    }
    // Count after the send barrier. Empty messages are silence.
    for (graph::NodeId v = 0; v < n; ++v) {
      const std::size_t words = s.store_.message(v).size();
      if (words > 0) {
        ++run_telemetry.messages_sent;
        run_telemetry.words_sent += words;
      }
    }
    // Link-fault pass (after the send barrier): draw this round's column
    // in bulk, then fill the per-port suppression bitmap and tally what
    // was realized. Every draw is keyed by (identities, round), so the
    // bitmap — and the counters — are independent of thread count.
    if (link_faults) {
      options.fault_coins->draw_column(
          links->keys, static_cast<std::uint64_t>(round), s.link_draws_);
      for (graph::NodeId v = 0; v < n; ++v) {
        const auto nbrs = inst.g.neighbors(v);
        for (std::size_t p = 0; p < nbrs.size(); ++p) {
          const graph::NodeId u = nbrs[p];
          const std::size_t port = inst.g.port_offset(v) + p;
          char& slot = s.suppressed_[port];
          slot = 0;
          if (churn) {
            if (model->link_hit(s.link_draws_[links->port_slot[port]])) {
              slot = 1;
              // One (edge, round) deactivation == one churn event; count
              // it at the lower endpoint so each unordered pair counts
              // once.
              if (v < u) ++run_telemetry.edges_churned;
            }
            continue;
          }
          // A drop is only an event when there was a delivery to lose: a
          // non-silent, non-crashed sender and a receiver still running.
          if (s.halted_[v] != 0 || s.dead_[u] != 0 ||
              s.store_.message(u).empty()) {
            continue;
          }
          if (model->link_hit(s.link_draws_[links->port_slot[port]])) {
            slot = 1;
            ++run_telemetry.messages_dropped;
          }
        }
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (s.halted_[v] != 0) continue;
      const Inbox inbox(s.store_, inst.g.neighbors(v),
                        link_faults
                            ? s.suppressed_.data() + inst.g.port_offset(v)
                            : nullptr);
      if (s.programs_[v]->receive(round, inbox)) s.halted_[v] = 1;
    }
  }

  return finish(round, true);
}

}  // namespace lnc::local
