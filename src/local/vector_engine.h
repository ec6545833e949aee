// Trial-vectorized execution backend (ROADMAP "Trial vectorization").
//
// Every Monte-Carlo estimate in the paper is thousands of independent
// trials of the SAME (instance, program) pair. The scalar round engine
// (local/engine.h) advances one trial at a time through per-node heap
// program objects — pointer-chasing and virtual dispatch per node per
// round. This backend advances a BATCH of B trials in lockstep instead:
//
//   * per-node program state lives in contiguous structure-of-arrays
//     storage indexed [trial * n + node] (no program objects at all);
//   * coin flips are drawn batch-at-a-time per round from the per-trial
//     Philox streams — VecRng replays the exact (key, identity, counter)
//     draw sequence of rand::NodeRng, and VectorBatch::draw_next fills a
//     whole gathered node list through the bulk kernel, so every number
//     is bit-identical to the scalar engine's;
//   * message rounds are flat passes over the batch against the shared
//     CSR adjacency (messages are never materialized: a "received"
//     message is a read of the sender's round-start state);
//   * compact per-round lists skip trials that already terminated and
//     nodes that are halted, and the SoA arrays and vector program stay
//     warm across batches.
//
// Fault models (src/fault/) run here with the scalar engine's semantics.
// At each round start, before the program's pass, the driver resolves
// that round's crashes (dead nodes halt and output the 0 tombstone),
// fills the round's link-draw column for every live trial with one bulk
// call (the link keys depend only on identities, so they are laid out
// once per batch), and keeps a per-(trial, port) silence bit: a port is
// silent when its neighbour is dead or the link fault hit it this round.
// Programs test VectorBatch::hearing() wherever their scalar twin skips an
// empty message, and charge traffic only to the senders still alive. The
// fault counters follow run_engine's rules exactly.
//
// A program opts in by overriding NodeProgramFactory::create_vector()
// (local/engine.h); everything else transparently falls back to the
// scalar engine. OptimizationConfig selects the backend and batch width
// per plan — by hand or through OptimizationConfig::automatic(n, trials,
// degree).
//
// The contract, gated by tests/vector_engine_test.cpp and CI: tallies,
// exact sums, and deterministic telemetry (fault counters included) are
// bit-identical across backends x thread counts x shard partitions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "local/engine.h"
#include "rand/philox.h"
#include "util/string_util.h"

namespace lnc::fault {
class FaultModel;
class InstanceFaults;
struct LinkLayout;
}  // namespace lnc::fault

namespace lnc::local {

/// Which trial-execution strategy a plan runs under, and the vectorized
/// backend's batch width. All settings produce bit-identical tallies,
/// exact sums, and deterministic telemetry by contract.
struct OptimizationConfig {
  enum class Backend {
    kAuto,        ///< resolve per plan (automatic() or the runner default)
    kNaive,       ///< scalar engine, fresh arenas per trial (no reuse)
    kBatched,     ///< scalar engine, warm per-worker arenas (the PR-1 path)
    kVectorized,  ///< SoA lockstep batches (falls back when not vectorizable)
  };

  Backend backend = Backend::kAuto;

  /// Trials advanced in lockstep per batch (vectorized backend only).
  std::uint64_t batch_trials = 32;

  /// The auto-tuning entry point: picks naive for degenerate trial counts,
  /// batched for workloads too small (or too large per trial) to win from
  /// lockstep batches, and vectorized with a cache-sized batch_trials
  /// otherwise. `mean_degree` is the instance's average degree (the SoA
  /// state per trial scales with n * degree for port-indexed programs).
  static OptimizationConfig automatic(std::uint64_t n, std::uint64_t trials,
                                      double mean_degree);
};

inline constexpr util::EnumNames<OptimizationConfig::Backend, 4>
    kBackendNames{{{{OptimizationConfig::Backend::kAuto, "auto"},
                    {OptimizationConfig::Backend::kNaive, "naive"},
                    {OptimizationConfig::Backend::kBatched, "batched"},
                    {OptimizationConfig::Backend::kVectorized, "vectorized"}}}};

const char* to_string(OptimizationConfig::Backend backend) noexcept;

/// Inverse of to_string — the parser behind spec files and --backend.
/// Nullopt on an unknown tag (callers own the error message).
std::optional<OptimizationConfig::Backend> backend_from_string(
    std::string_view text) noexcept;

/// Per-(trial, node) Philox stream — the allocation-free mirror of
/// rand::NodeRng over a raw PhiloxCoins key. Draw k of this struct equals
/// rand::NodeRng(PhiloxCoins-with-this-key, identity) draw k bit for bit;
/// that equivalence (asserted in tests/vector_engine_test.cpp) is what
/// makes the vector backend's coin flips identical to the scalar engine's.
struct VecRng {
  std::uint64_t key = 0;
  std::uint64_t identity = 0;
  std::uint64_t counter = 0;

  std::uint64_t next_u64() noexcept {
    return rand::philox_u64(key, identity, counter++);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p): true with probability p.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Uniform integer in [0, bound); bound must be positive. Same
  /// rejection loop as NodeRng::next_below, draw for draw.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (true) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }
};

class VectorScratch;

/// Per-trial result hook of run_vector_batch: the local trial index, the
/// output labeling (valid only during the call), the executed round
/// count, and the trial's deterministic telemetry delta.
using VectorFinish = std::function<void(std::uint32_t, const Labeling&, int,
                                        const Telemetry&)>;

/// Shared driver-owned state of one lockstep batch: the instance, the
/// per-(trial, node) RNG and halt arrays, the realized faults, per-trial
/// round/traffic accounting, and the live-trial and active-node lists.
/// VectorPrograms read and update it from their flat round passes.
class VectorBatch {
 public:
  const Instance& instance() const noexcept { return *inst_; }
  std::uint32_t nodes() const noexcept { return n_; }
  std::uint32_t trials() const noexcept { return trials_; }

  /// Flat index of (trial, node) into the [trial * n + node] arrays.
  std::size_t at(std::uint32_t trial, std::uint32_t node) const noexcept {
    return static_cast<std::size_t>(trial) * n_ + node;
  }

  VecRng& rng(std::uint32_t trial, std::uint32_t node) noexcept {
    return rngs_[at(trial, node)];
  }

  /// out[i] = rng(trial, nodes[i]).next_u64() for every i, in order,
  /// filled through one bulk philox call: the draw pass of a round.
  void draw_next(std::uint32_t trial, std::span<const std::uint32_t> nodes,
                 std::vector<std::uint64_t>& out);

  bool halted(std::uint32_t trial, std::uint32_t node) const noexcept {
    return halted_[at(trial, node)] != 0;
  }

  /// Marks (trial, node) halted — the vector analogue of receive()
  /// returning true. Idempotent.
  void set_halted(std::uint32_t trial, std::uint32_t node) noexcept {
    char& flag = halted_[at(trial, node)];
    if (flag == 0) {
      flag = 1;
      --live_nodes_[trial];
    }
  }

  /// Which ports of one trial hear their neighbour this round: the
  /// neighbour has not crashed and no link fault silenced the delivery.
  /// Always true without a fault model. Programs consult it wherever the
  /// scalar program skips an empty (silent) message, indexed by the
  /// global port (g.port_offset(node) + p).
  struct Hearing {
    const char* silent = nullptr;  ///< the trial's row; null: fault-free
    bool operator()(std::size_t port) const noexcept {
      return silent == nullptr || silent[port] == 0;
    }
  };
  /// Taken once per trial pass: a local copy cannot be aliased by the
  /// pass's byte stores, so the fault-free test stays a register compare
  /// instead of a reload of the batch's fault pointer per port.
  Hearing hearing(std::uint32_t trial) const noexcept {
    return {fault_ == nullptr
                ? nullptr
                : silent_.data() + static_cast<std::size_t>(trial) * ports_};
  }

  /// Crashed nodes of `trial` so far. They send nothing: a round's
  /// traffic is charged to the nodes() - dead_count(trial) survivors.
  std::uint32_t dead_count(std::uint32_t trial) const noexcept {
    return fault_ != nullptr ? dead_counts_[trial] : 0;
  }
  bool dead(std::uint32_t trial, std::uint32_t node) const noexcept {
    return fault_ != nullptr && dead_[at(trial, node)] != 0;
  }

  /// Charges `messages` non-silent messages totalling `words` words to
  /// the trial's deterministic telemetry counters. Programs must charge
  /// exactly what the scalar engine would measure for the round.
  void add_traffic(std::uint32_t trial, std::uint64_t messages,
                   std::uint64_t words) noexcept {
    messages_[trial] += messages;
    words_[trial] += words;
  }

  /// Every trial still running (finished trials cost nothing per round).
  template <typename Body>
  void for_each_live_trial(Body&& body) const {
    for (const std::uint32_t t : live_trials_) body(t);
  }

  /// Every non-halted node of a live trial, from its compact active list
  /// (halted nodes cost nothing). Nodes halted DURING the pass stay in the
  /// list until run_vector_batch compacts it at the end of the round.
  template <typename Body>
  void for_each_active_node(std::uint32_t trial, Body&& body) const {
    const std::uint32_t* list =
        active_nodes_.data() + static_cast<std::size_t>(trial) * n_;
    const std::uint32_t count = active_counts_[trial];
    for (std::uint32_t k = 0; k < count; ++k) body(list[k]);
  }

 private:
  friend void run_vector_batch(const Instance& inst,
                               const NodeProgramFactory& factory,
                               std::span<const std::uint64_t> coin_keys,
                               const fault::InstanceFaults* fault,
                               std::span<const std::uint64_t> fault_keys,
                               VectorScratch& scratch, Telemetry* accumulate,
                               const VectorFinish& finish);

  /// A crash realized at `round` (1-based) of one trial.
  struct Crash {
    std::uint64_t round = 0;
    std::uint32_t node = 0;
  };

  std::size_t footprint_bytes() const noexcept;
  /// Drops the halted nodes from a trial's active list.
  void compact_active(std::uint32_t trial) noexcept;
  /// Arms the batch for `fault` (not engaged: fault-free).
  void reset_faults(const fault::InstanceFaults* fault,
                    std::span<const std::uint64_t> fault_keys);
  /// The fault pass of `round` for one live trial (see the file comment).
  void realize_faults(std::uint32_t trial, int round);
  /// Silences every neighbour's port that faces a crashed node.
  void silence_ports_facing(std::uint32_t trial, std::uint32_t node) noexcept;

  const Instance* inst_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint32_t trials_ = 0;

  std::vector<VecRng> rngs_;             // [trial * n + node]
  std::vector<char> halted_;             // [trial * n + node]
  std::vector<std::uint32_t> live_nodes_;  // per trial: non-halted count
  std::vector<int> rounds_;              // per trial: rounds executed
  std::vector<std::uint64_t> messages_;  // per trial: messages sent
  std::vector<std::uint64_t> words_;     // per trial: words sent

  std::vector<std::uint32_t> live_trials_;   // unfinished trials
  std::vector<std::uint32_t> active_nodes_;  // [trial * n]: non-halted
  std::vector<std::uint32_t> active_counts_;  // per trial

  std::vector<std::uint64_t> draw_hi_;  // draw_next gather: identities...
  std::vector<std::uint64_t> draw_lo_;  // ...and draw indices

  // Fault state, sized only under a non-trivial model (fault_ set).
  const fault::FaultModel* fault_ = nullptr;
  bool churn_ = false;  // link draws are per edge (churn), not per port
  std::size_t ports_ = 0;
  std::vector<std::uint64_t> fault_keys_;  // per trial: fault-coin key
  std::vector<char> dead_;                 // [trial * n + node]
  std::vector<std::uint32_t> dead_counts_;  // per trial: nodes_crashed
  std::vector<char> silent_;               // [trial * ports + port]
  std::vector<Crash> crashes_;      // per trial, in round order
  std::vector<std::size_t> crash_next_;  // per trial: next in crashes_
  std::vector<std::size_t> crash_end_;   // per trial: end in crashes_
  std::vector<std::uint64_t> crash_rounds_;  // one trial's crash draws
  const fault::LinkLayout* links_ = nullptr;  // the binding's, read-only
  std::vector<std::uint64_t> link_draws_;    // one trial's round column
  std::vector<std::uint64_t> dropped_;  // per trial: messages_dropped
  std::vector<std::uint64_t> churned_;  // per trial: edges_churned
};

/// A trial-vectorized node program: the SoA counterpart of one
/// NodeProgram, advancing EVERY (trial, node) of a batch per call.
/// Implementations own their state arrays (sized in init, capacity kept
/// across batches when the scratch is reused) and must replicate the
/// scalar program exactly: per-node draw sequences, halting rounds, and
/// per-round message/word counts. Under a fault model that means reading
/// a neighbour only where VectorBatch::hearing() allows it and charging
/// traffic to the dead_count()-reduced senders; the driver owns crashes,
/// the silence bits, the fault counters and the crashed nodes' outputs.
/// A program whose nodes could stay silent while alive would need more
/// than this: the driver assumes every live node sends each round.
class VectorProgram {
 public:
  virtual ~VectorProgram() = default;

  virtual std::string name() const = 0;

  /// Sizes/resets state for batch.trials() lockstep trials on
  /// batch.instance(); marks nodes that halt at wake-up via set_halted
  /// (the analogue of init() returning true).
  virtual void init(VectorBatch& batch) = 0;

  /// One synchronous round (numbering starts at 1) over every live
  /// trial: the send pass, the traffic charge, then the receive pass,
  /// exactly mirroring the scalar engine's send barrier.
  virtual void round(VectorBatch& batch, int round) = 0;

  /// Trial `trial`'s output labeling, resized to batch.nodes().
  virtual void output(const VectorBatch& batch, std::uint32_t trial,
                      Labeling& out) const = 0;

  /// Retained state-array capacity, for the arena high-water telemetry
  /// (reported, never gated).
  virtual std::size_t footprint_bytes() const noexcept { return 0; }
};

/// Reusable per-worker storage for the vector backend: the batch arrays
/// and the (recyclable) vector program survive across batches, so a warm
/// batch allocates nothing. Not thread-safe: one scratch per worker.
class VectorScratch {
 public:
  VectorScratch() = default;
  VectorScratch(const VectorScratch&) = delete;
  VectorScratch& operator=(const VectorScratch&) = delete;
  VectorScratch(VectorScratch&&) = default;
  VectorScratch& operator=(VectorScratch&&) = default;

  /// Reusable per-batch key buffers for callers assembling key spans.
  std::vector<std::uint64_t>& coin_key_buffer() noexcept { return coin_keys_; }
  std::vector<std::uint64_t>& fault_key_buffer() noexcept {
    return fault_keys_;
  }

 private:
  friend void run_vector_batch(const Instance& inst,
                               const NodeProgramFactory& factory,
                               std::span<const std::uint64_t> coin_keys,
                               const fault::InstanceFaults* fault,
                               std::span<const std::uint64_t> fault_keys,
                               VectorScratch& scratch, Telemetry* accumulate,
                               const VectorFinish& finish);

  std::unique_ptr<VectorProgram> program_;
  const NodeProgramFactory* last_factory_ = nullptr;
  std::string last_factory_name_;
  VectorBatch batch_;
  Labeling output_;
  std::vector<std::uint64_t> coin_keys_;   // BatchRunner's reusable buffers
  std::vector<std::uint64_t> fault_keys_;
};

/// Runs one lockstep batch of coin_keys.size() trials of the factory's
/// vector program (factory.create_vector() must be non-null) on `inst`.
/// coin_keys[t] is trial t's construction-coin Philox key — the exact
/// PhiloxCoins key the scalar engine would have been handed, so draws
/// match bit for bit. With an engaged `fault` (fault::engaged, bound to
/// `inst`), the batch runs under that model: fault_keys[t] is trial t's
/// fault-coin key (TrialEnv::fault_coins().key()), and a trial still
/// running after kFaultMaxRounds rounds stops there with its current
/// outputs, as the scalar engine construction does. Otherwise
/// `fault_keys` is ignored. `finish` receives each trial's result
/// (VectorFinish). The deltas (plus the batch arena high-water mark) are
/// merged into `accumulate` when non-null — the per-worker accumulator
/// the batch runner reads, exactly like EngineScratch::telemetry().
void run_vector_batch(const Instance& inst, const NodeProgramFactory& factory,
                      std::span<const std::uint64_t> coin_keys,
                      const fault::InstanceFaults* fault,
                      std::span<const std::uint64_t> fault_keys,
                      VectorScratch& scratch, Telemetry* accumulate,
                      const VectorFinish& finish);

}  // namespace lnc::local
