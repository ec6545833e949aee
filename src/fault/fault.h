// Fault models: the adversity axis (ROADMAP) for resilience sweeps.
//
// The paper's executions assume perfectly reliable synchronous delivery;
// the randomized-network-coding literature (PAPERS.md, Chen & Kishore)
// studies the same protocols coordinating over links that are NOT
// reliable. A FaultModel is a pure, replayable adversary: every fault it
// realizes — a message lost, a node crash-stopped, an edge down for one
// round — is a deterministic function of a dedicated Philox coin stream
// (TrialEnv::fault_coins(), Stream::kFault) and the identities involved,
// never of execution order. That keeps faulty runs bit-identical across
// thread counts, shard partitions, and --trial-range slices — the same
// contract every other layer of the stack already guarantees.
//
// A model is data, not a predicate: it names its link draws (LinkDraws:
// kind, key tag, probability) and its crash draws (CrashDraws). Every
// draw is fault_coins.draw(key, slot), with the key derived from the
// identities involved (edge_key / delivery_key / crash_key) and the slot
// a round index, so consumers lay a whole pass of keys out in one array
// and fill its draws with one CoinProvider::draw_column call — the
// batched Philox kernel — instead of asking the model port by port.
//
// Two execution paths consume a model:
//
//  * the MESSAGE ENGINE (local/engine.cpp and the vector backend in
//    local/vector_engine.cpp) resolves faults round by round:
//    crash_rounds() fixes every node's crash round once per run, and each
//    round one column of link draws (slot = the 1-based round) suppresses
//    individual deliveries. Engine rounds start at 1, so slot 0 is never
//    drawn there;
//  * the BALL PATH (ball collection + decider evaluation) has no rounds.
//    FaultSubgraph realizes a per-trial FAULT SUBGRAPH from the reserved
//    slot 0 — failed nodes and faulty edges as bits, counted as they are
//    marked — and serves them to ball collection as a graph::BallFilter,
//    so collection happens inside the realized subgraph. Telemetry is
//    charged once per trial from those counts (local/experiment.cpp),
//    never by the filter.
//
// Both paths reach a model through an InstanceFaults: the model bound to
// one materialized instance. Which keys a pass of link draws reads, and
// which draw each port reads (a LinkLayout), depends only on the graph,
// the identities, the model and the direction — never on the trial — so
// the binding lays each layout out once and every FaultSubgraph, engine
// run and vector batch over that instance reads it. Scenario compilation
// owns one binding per grid point.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/ball.h"
#include "graph/graph.h"
#include "rand/coins.h"

namespace lnc::fault {

/// Sentinel crash round: the node never crashes.
inline constexpr std::uint64_t kNeverCrashes = ~std::uint64_t{0};

/// Bernoulli(p) over 64-bit draws: hit(draw) happens with probability p
/// (to within 2^-64). p <= 0 never hits and p >= 1 always does,
/// independent of rounding.
class Bernoulli {
 public:
  explicit Bernoulli(double p);

  bool hit(std::uint64_t draw) const noexcept {
    return always_ || draw < threshold_;
  }
  bool never() const noexcept { return !always_ && threshold_ == 0; }

 private:
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

/// What a model's link draws realize.
enum class LinkFault {
  kNone,   ///< links are reliable
  kDrop,   ///< deliveries are lost (charges messages_dropped). The engine
           ///< draws each directed delivery per round (delivery_key); the
           ///< ball path draws each undirected edge once (edge_key): the
           ///< view crossing a lossy edge is lost or not
  kChurn,  ///< an undirected edge is down for a whole round, both
           ///< directions (edge_key; charges edges_churned)
};

struct LinkDraws {
  LinkFault kind = LinkFault::kNone;
  std::uint64_t tag = 0;      ///< sub-stream tag mixed into every key
  double probability = 0.0;   ///< Pr[one draw realizes the fault]
};

struct CrashDraws {
  double probability = 0.0;     ///< Pr[a node crashes at all] (slot 0)
  std::uint64_t round_cap = 1;  ///< crash round = 1 + slot-1 draw % cap
};

/// One pass of link draws over a graph: the draw keys, in draw order,
/// and for every port the index in `keys` of the draw it reads
/// (port_slot[g.port_offset(v) + p]; both ports of an undirected edge
/// read the same draw).
struct LinkLayout {
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> port_slot;
};

class FaultModel {
 public:
  FaultModel(std::string name, LinkDraws link, CrashDraws crash,
             bool trivial = false);

  std::string_view name() const noexcept { return name_; }

  /// True only for the `none` model: a trivial model must realize no
  /// faults, and the harness bypasses the fault machinery entirely (the
  /// bit-stability contract with pre-fault runs depends on it).
  bool trivial() const noexcept { return trivial_; }

  const LinkDraws& link() const noexcept { return link_; }
  /// Whether link draws can realize anything (kind set, p > 0).
  bool has_link_faults() const noexcept {
    return link_.kind != LinkFault::kNone && !link_hit_.never();
  }
  bool link_hit(std::uint64_t draw) const noexcept {
    return link_hit_.hit(draw);
  }

  /// Draw key of the undirected edge {a, b} (order-free).
  std::uint64_t edge_key(std::uint64_t a, std::uint64_t b) const noexcept;
  /// Draw key of the directed delivery sender -> receiver: the two
  /// directions of an edge drop independently.
  std::uint64_t delivery_key(std::uint64_t sender,
                             std::uint64_t receiver) const noexcept;

  /// Lays out the link draws of graph g (identities[v] for node v): one
  /// key per undirected edge (edge_key, in the lower endpoint's port
  /// order) or, when `directed`, one per port (delivery_key: port p of v
  /// receives from neighbors(v)[p]). Consumers read layouts through
  /// InstanceFaults::links, which calls this once per direction.
  LinkLayout link_keys(const graph::Graph& g,
                       std::span<const std::uint64_t> identities,
                       bool directed) const;

  /// Every node's first 1-based crash round (kNeverCrashes if it never
  /// crashes), in one batched pass: out[i] belongs to identities[i].
  /// The ball path treats a node crashed at any round as failed.
  void crash_rounds(const rand::CoinProvider& coins,
                    std::span<const std::uint64_t> identities,
                    std::vector<std::uint64_t>& out) const;

 private:
  std::string name_;
  LinkDraws link_;
  CrashDraws crash_;
  Bernoulli link_hit_;
  Bernoulli crash_hit_;
  bool trivial_;
};

/// The four builtins behind the `faults` registry (scenario/builtins.cpp
/// owns the registry entries and param schemas; these are the models).
std::shared_ptr<const FaultModel> make_none();
std::shared_ptr<const FaultModel> make_drop(double p_loss);
std::shared_ptr<const FaultModel> make_crash(double p_crash,
                                             std::uint64_t crash_round_cap);
std::shared_ptr<const FaultModel> make_churn(double p_churn);

/// A fault model bound to one materialized instance: the model, the
/// graph and the identities its draws are keyed by (identities[v] for
/// node v, the same identities on every path, so the engine and the ball
/// path censor the same nodes). The link layouts are trial-invariant, so
/// each direction is laid out at most once per binding, on first use,
/// and then shared read-only — by every trial's FaultSubgraph, every
/// engine run and every vector batch over the instance. Thread-safe. The
/// binding refers to the model, graph and identities without owning
/// them; they must outlive it.
class InstanceFaults {
 public:
  InstanceFaults(const FaultModel& model, const graph::Graph& g,
                 std::span<const std::uint64_t> identities);

  const FaultModel& model() const noexcept { return *model_; }
  const graph::Graph& graph() const noexcept { return *g_; }
  std::span<const std::uint64_t> identities() const noexcept {
    return identities_;
  }

  /// The layout of the model's link draws over the instance, one key per
  /// undirected edge or, when `directed`, one per port
  /// (FaultModel::link_keys).
  const LinkLayout& links(bool directed) const;

 private:
  const FaultModel* model_;
  const graph::Graph* g_;
  std::span<const std::uint64_t> identities_;
  mutable std::array<std::once_flag, 2> laid_out_;
  mutable std::array<LinkLayout, 2> layouts_;  // [directed]
};

/// Whether `faults` realizes anything: bound (non-null) and not the
/// trivial `none` model. Every consumer bypasses the fault machinery
/// otherwise.
inline bool engaged(const InstanceFaults* faults) noexcept {
  return faults != nullptr && !faults->model().trivial();
}

/// The realized round-0 fault subgraph of one materialized instance,
/// drawn once per realize() call with batched draws over the binding's
/// shared edge layout: a crash round per node and a faulty bit per port
/// (both ports of an edge share one draw). As a graph::BallFilter it lets
/// ball collection happen inside the subgraph; queries read bits and
/// never draw. realize() also counts what it realized, for the ball
/// path's telemetry charge.
class FaultSubgraph final : public graph::BallFilter {
 public:
  /// `links` = false skips the link draws, for consumers that query no
  /// edge (radius-0 balls, no telemetry charge): every edge reads intact.
  void realize(const InstanceFaults& faults, const rand::CoinProvider& coins,
               bool links = true);

  /// What a faulty edge of this subgraph charges (kDrop or kChurn).
  LinkFault link_kind() const noexcept { return kind_; }

  /// A node crashed at any round is failed: every node the engine would
  /// eventually silence is censored from balls, a consistent superset
  /// ("crashed between phases") that keeps the two paths' crash draws
  /// shared.
  bool node_blocked(graph::NodeId v) const override {
    return crash_rounds_[v] != kNeverCrashes;
  }
  bool edge_blocked(graph::NodeId a, graph::NodeId b) const override;

  /// Failed nodes of this realization.
  std::uint64_t failed_nodes() const noexcept { return failed_nodes_; }
  /// Faulty edges between two surviving nodes, each undirected edge
  /// counted once (at its lower endpoint); 0 when realized without links.
  std::uint64_t faulty_edges() const noexcept { return faulty_edges_; }

 private:
  const graph::Graph* g_ = nullptr;
  LinkFault kind_ = LinkFault::kNone;
  std::vector<std::uint64_t> crash_rounds_;
  std::vector<char> faulty_;  // per port, indexed by g.port_offset(v) + p
  std::vector<std::uint64_t> draws_;  // one per key of the edge layout
  std::uint64_t failed_nodes_ = 0;
  std::uint64_t faulty_edges_ = 0;
};

}  // namespace lnc::fault
