// The synchronous LOCAL round engine (paper, section 2.1.1).
//
// Each round, every node (1) sends a message to its neighbors, (2) receives
// its neighbors' messages, (3) computes. Message size and local computation
// are unbounded — the model's only resource is the number of rounds, which
// the engine counts and reports (that count *is* the measurement in
// experiments E3 and E10).
//
// Programs are per-node state machines created by a factory per execution.
// One trial is one sequential send/receive/compute loop: parallelism lives
// ACROSS trials (local/batch_runner.h), never inside one.
//
// Nodes write through MessageWriter into one flat per-run word arena and
// read neighbors' messages through zero-copy Inbox views. An EngineScratch
// can be passed in to reuse the arena, program table, and RNG storage
// across runs — the batched Monte-Carlo path (local/batch_runner.h) keeps
// one scratch per worker.
//
// This file is the SCALAR engine: one trial at a time, one heap program
// object per node. Programs whose factory overrides create_vector() can
// additionally run on the trial-vectorized SoA backend in
// local/vector_engine.h, which advances whole batches of trials in
// lockstep with bit-identical coin flips, outputs, and telemetry; the
// batch runner picks between the two per plan via local::OptimizationConfig.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "local/instance.h"
#include "local/telemetry.h"
#include "rand/coins.h"

namespace lnc::fault {
class InstanceFaults;
}

namespace lnc::local {

class MessageStore;

/// Append-only writer for one node's outgoing message this round. An empty
/// message (no words pushed) == silence.
class MessageWriter {
 public:
  void push(std::uint64_t word) { words_->push_back(word); }
  void append(std::span<const std::uint64_t> words) {
    words_->insert(words_->end(), words.begin(), words.end());
  }

 private:
  friend class MessageStore;
  explicit MessageWriter(std::vector<std::uint64_t>* words) noexcept
      : words_(words) {}
  std::vector<std::uint64_t>* words_;
};

/// Storage for one round's outgoing messages: all messages live back to
/// back in one flat word vector addressed by per-node offsets, so a warm
/// arena allocates nothing per message. The send phase must visit nodes in
/// ascending order.
class MessageStore {
 public:
  /// Prepares storage for n nodes.
  void reset(graph::NodeId n) {
    flat_.clear();
    offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  }

  void begin_round() { flat_.clear(); }

  /// Writer for node v's message. Writers must be obtained in ascending
  /// node order and closed with end_write(v) before the next is opened.
  MessageWriter writer(graph::NodeId v) {
    offsets_[v] = flat_.size();
    return MessageWriter(&flat_);
  }

  /// Closes node v's message.
  void end_write(graph::NodeId v) { offsets_[v + 1] = flat_.size(); }

  /// The message node v sent this round. Valid until the next begin_round.
  std::span<const std::uint64_t> message(graph::NodeId v) const noexcept {
    return {flat_.data() + offsets_[v], flat_.data() + offsets_[v + 1]};
  }

  /// Retained capacity of the message arena, in bytes (telemetry's
  /// arena high-water mark).
  std::size_t footprint_bytes() const noexcept {
    return flat_.capacity() * sizeof(std::uint64_t) +
           offsets_.capacity() * sizeof(std::size_t);
  }

 private:
  std::vector<std::uint64_t> flat_;   // every message's words, in node order
  std::vector<std::size_t> offsets_;  // size n + 1
};

/// Zero-copy view of the messages on a node's ports this round: inbox[p]
/// is the message from the neighbor on port p (empty span == silence).
/// A non-null `suppressed` row (one char per port, set by the engine's
/// fault pass) turns the flagged ports into silence — a dropped delivery
/// is indistinguishable from a silent neighbor, exactly the lossy-link
/// semantics.
class Inbox {
 public:
  Inbox(const MessageStore& store, std::span<const graph::NodeId> neighbors,
        const char* suppressed = nullptr) noexcept
      : store_(&store), neighbors_(neighbors), suppressed_(suppressed) {}

  std::size_t size() const noexcept { return neighbors_.size(); }
  std::span<const std::uint64_t> operator[](std::size_t port) const noexcept {
    if (suppressed_ != nullptr && suppressed_[port] != 0) return {};
    return store_->message(neighbors_[port]);
  }

 private:
  const MessageStore* store_;
  std::span<const graph::NodeId> neighbors_;
  const char* suppressed_;
};

/// What a node knows at wake-up. Ports are indices into the neighbor list
/// (neighbor port p of v is g.neighbors(v)[p]); `succ_port`, when present,
/// gives a consistent sense of direction on a ring (the Linial lower bound
/// holds even with this extra power, so granting it only strengthens the
/// reproduced separations).
struct NodeEnv {
  ident::Identity id = 0;
  Label input = 0;
  std::uint32_t degree = 0;
  std::optional<std::uint32_t> succ_port;  // ring orientation, if granted
  std::optional<std::uint64_t> n_nodes;    // knowledge of n, if granted
  rand::NodeRng* rng = nullptr;            // null for deterministic programs
};

/// A per-node program. The engine calls send() then receive() each round
/// until every node has halted (receive returned true) or max_rounds hits.
/// Nodes that halted keep participating as message relays: send() is still
/// invoked (a halted node may broadcast its final state), receive() is not.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Returns true when the node halts immediately (a zero-round program:
  /// the output is fixed before any communication).
  virtual bool init(const NodeEnv& env) = 0;

  /// Writes the broadcast message for this round (round numbering starts
  /// at 1) into `out`; writing nothing means silence.
  virtual void send(int round, MessageWriter& out) = 0;

  /// inbox[p] is the message from the neighbor on port p. Returns true when
  /// the node halts with its output fixed.
  virtual bool receive(int round, const Inbox& inbox) = 0;

  virtual Label output() const = 0;
};

class VectorProgram;  // local/vector_engine.h

class NodeProgramFactory {
 public:
  virtual ~NodeProgramFactory() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<NodeProgram> create() const = 0;

  /// Opt-in program recycling: reset `program` — an instance this factory
  /// created earlier — back to its pre-init() state and return true, or
  /// return false when it cannot be recycled (wrong type/configuration),
  /// in which case the engine falls back to create(). init() runs
  /// afterwards either way. Implementing this lets the batched Monte-Carlo
  /// path skip n heap allocations per trial.
  virtual bool recreate(NodeProgram& program) const {
    (void)program;
    return false;
  }

  /// Opt-in trial vectorization: a structure-of-arrays program advancing
  /// many trials in lockstep (local/vector_engine.h), required to be
  /// bit-identical to create()'s program — same per-node draw sequences,
  /// halting rounds, outputs, and message/word counts. Null (the default)
  /// means the plan transparently falls back to the scalar engine.
  virtual std::unique_ptr<VectorProgram> create_vector() const;
};

struct EngineOptions;
struct EngineResult;

/// Reusable cross-run engine storage: the program table, contiguous
/// per-node RNGs, halted flags, and the message arena. Passing one scratch
/// to consecutive run_engine calls (same or different instances) reuses all
/// capacity — the per-trial hot path of the batch runner. Not thread-safe:
/// use one scratch per worker.
class EngineScratch {
 public:
  EngineScratch() = default;
  EngineScratch(const EngineScratch&) = delete;
  EngineScratch& operator=(const EngineScratch&) = delete;
  EngineScratch(EngineScratch&&) = default;
  EngineScratch& operator=(EngineScratch&&) = default;

  /// Telemetry accumulated across every run executed on this scratch
  /// since the last reset(). Lock-free by construction: one scratch per
  /// worker. BatchRunner resets per-worker accumulators at the start of
  /// each batch and merges them into the batch result.
  Telemetry& telemetry() noexcept { return telemetry_; }
  const Telemetry& telemetry() const noexcept { return telemetry_; }

 private:
  friend EngineResult run_engine(const Instance& inst,
                                 const NodeProgramFactory& factory,
                                 const EngineOptions& options);
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<rand::NodeRng> rngs_;  // contiguous; reserve() keeps ptrs stable
  std::vector<char> halted_;
  MessageStore store_;
  // Fault-pass storage (sized/filled only when a non-trivial fault model
  // is active): per-node crash rounds and dead flags; with link faults,
  // one round's draws (over the binding's shared link layout) and the
  // per-port suppression bitmap (ports: Graph::port_offset).
  std::vector<std::uint64_t> crash_rounds_;
  std::vector<char> dead_;
  std::vector<std::uint64_t> link_draws_;
  std::vector<char> suppressed_;
  // Which factory populated programs_ — recycling is only attempted when
  // the same factory (by address AND name, to survive address reuse) runs
  // again on this scratch.
  const NodeProgramFactory* last_factory_ = nullptr;
  std::string last_factory_name_;
  Telemetry telemetry_;
};

/// Round cap of engine constructions under a non-trivial fault model, on
/// every backend: faults can stall termination (a node whose progress
/// messages always drop never halts), so a faulty run that exhausts this
/// budget is a legitimate outcome, not an engine bug. Deterministic in the
/// fault coins, so the cap itself never breaks bit-reproducibility.
inline constexpr int kFaultMaxRounds = 256;

struct EngineOptions {
  int max_rounds = 1 << 20;        ///< safety guard; hitting it is an error
  bool grant_n = false;            ///< expose |V| via NodeEnv::n_nodes
  bool grant_ring_orientation = false;  ///< expose succ_port on cycle()
  const rand::CoinProvider* coins = nullptr;  ///< null => deterministic

  /// Optional adversary (src/fault/). When `fault` is engaged (bound to
  /// the instance being run and non-trivial), `fault_coins` must be set
  /// (the trial's dedicated fault stream): crashed nodes fall silent from
  /// their crash round onward and output 0, dropped/churned deliveries
  /// read as silence, and the fault telemetry counters measure what was
  /// realized. All draws are keyed by
  /// node identities and the round index — never by schedule — so faulty
  /// runs stay bit-identical across thread counts and shards.
  const fault::InstanceFaults* fault = nullptr;
  const rand::CoinProvider* fault_coins = nullptr;

  /// Keep the per-node programs alive in EngineResult::programs so callers
  /// can read program-specific state back (e.g. the ball collector's
  /// knowledge tables). Off by default: most callers only need the
  /// labeling, and retaining n live programs per run is pure overhead.
  bool retain_programs = false;

  /// Optional reusable storage; null uses run-local storage.
  EngineScratch* scratch = nullptr;
};

struct EngineResult {
  Labeling output;
  int rounds = 0;       ///< rounds executed until the last node halted
  bool completed = false;  ///< false iff max_rounds was exhausted

  /// Measured communication volume of THIS run (also merged into the
  /// scratch's cross-run accumulator when one was passed in).
  Telemetry telemetry;

  /// The per-node programs — populated only when
  /// EngineOptions::retain_programs is set. programs[v] belongs to node v.
  std::vector<std::unique_ptr<NodeProgram>> programs;
};

/// Runs the program to quiescence on the instance.
EngineResult run_engine(const Instance& inst, const NodeProgramFactory& factory,
                        const EngineOptions& options = {});

}  // namespace lnc::local
