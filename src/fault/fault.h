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
//  * the MESSAGE ENGINE (local/engine.cpp) resolves faults round by
//    round: crash_rounds() fixes every node's crash round once per run,
//    and each round one column of link draws (slot = the 1-based round)
//    suppresses individual deliveries. Engine rounds start at 1, so slot
//    0 is never drawn there;
//  * the BALL PATH (ball collection + decider evaluation) has no rounds.
//    FaultSubgraph realizes a per-call FAULT SUBGRAPH from the reserved
//    slot 0 — failed nodes and faulty edges as bits — and serves them to
//    ball collection as a graph::BallFilter, so collection happens
//    inside the realized subgraph. Telemetry is charged once per trial
//    from the same bits (local/experiment.cpp), never by the filter.
#pragma once

#include <cstdint>
#include <memory>
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
  /// receives from neighbors(v)[p]). port_slot[g.port_offset(v) + p] is
  /// the index in `keys` of the draw that port reads.
  void link_keys(const graph::Graph& g,
                 std::span<const std::uint64_t> identities, bool directed,
                 std::vector<std::uint64_t>& keys,
                 std::vector<std::size_t>& port_slot) const;

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

/// The realized round-0 fault subgraph of one materialized graph, drawn
/// once per realize() call with batched draws: a crash round per node and
/// a faulty bit per port (both ports of an edge share one draw). As a
/// graph::BallFilter it lets ball collection happen inside the subgraph;
/// queries read bits and never draw. `identities[v]` is the identity the
/// model keys node v's draws by — the same identities the engine path
/// uses, so both paths censor the same nodes.
class FaultSubgraph final : public graph::BallFilter {
 public:
  /// `links` = false skips the link draws, for consumers that query no
  /// edge (radius-0 balls, no telemetry charge): every edge reads intact.
  void realize(const FaultModel& model, const rand::CoinProvider& coins,
               const graph::Graph& g,
               std::span<const std::uint64_t> identities, bool links = true);

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

  /// Whether port p of v (the edge to g.neighbors(v)[p]) is faulty.
  bool port_blocked(graph::NodeId v, std::size_t p) const noexcept {
    return faulty_[g_->port_offset(v) + p] != 0;
  }

 private:
  const graph::Graph* g_ = nullptr;
  LinkFault kind_ = LinkFault::kNone;
  std::vector<std::uint64_t> crash_rounds_;
  std::vector<char> faulty_;  // per port, indexed by g.port_offset(v) + p
  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> port_slot_;
  std::vector<std::uint64_t> draws_;
};

}  // namespace lnc::fault
