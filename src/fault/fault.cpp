#include "fault/fault.h"

#include <algorithm>

#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::fault {
namespace {

// Sub-stream tags: every draw a model makes goes through the ONE fault
// CoinProvider, addressed as draw(mix_keys(tag, entity-key), slot). The
// tags keep the crash / drop / churn address spaces disjoint even when a
// spec's identities collide with each other numerically.
constexpr std::uint64_t kCrashTag = 0xFA0C;  // per-node crash draws
constexpr std::uint64_t kDropTag = 0xFA0D;   // per-(delivery, round) draws
constexpr std::uint64_t kChurnTag = 0xFA0E;  // per-(edge, round) draws

std::uint64_t crash_key(std::uint64_t identity) {
  return rand::mix_keys(kCrashTag, identity);
}

}  // namespace

Bernoulli::Bernoulli(double p) {
  // p as a 64-bit acceptance threshold: draw < threshold happens with
  // probability p. Scaled values that round up to 2^64 mean "always".
  if (p <= 0.0) return;
  const double scaled = p * 0x1.0p64;
  if (p >= 1.0 || scaled >= 0x1.0p64) {
    always_ = true;
    return;
  }
  threshold_ = static_cast<std::uint64_t>(scaled);
}

FaultModel::FaultModel(std::string name, LinkDraws link, CrashDraws crash,
                       bool trivial)
    : name_(std::move(name)),
      link_(link),
      crash_(crash),
      link_hit_(link.probability),
      crash_hit_(crash.probability),
      trivial_(trivial) {
  LNC_EXPECTS(crash_.round_cap >= 1);
}

std::uint64_t FaultModel::edge_key(std::uint64_t a,
                                   std::uint64_t b) const noexcept {
  return rand::mix_keys(link_.tag,
                        rand::mix_keys(std::min(a, b), std::max(a, b)));
}

std::uint64_t FaultModel::delivery_key(std::uint64_t sender,
                                       std::uint64_t receiver) const noexcept {
  return rand::mix_keys(link_.tag, rand::mix_keys(sender, receiver));
}

void FaultModel::link_keys(const graph::Graph& g,
                           std::span<const std::uint64_t> identities,
                           bool directed, std::vector<std::uint64_t>& keys,
                           std::vector<std::size_t>& port_slot) const {
  const graph::NodeId n = g.node_count();
  LNC_EXPECTS(identities.size() == n);
  keys.clear();
  port_slot.resize(g.port_count());
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      const graph::NodeId u = nbrs[p];
      const std::size_t port = g.port_offset(v) + p;
      if (directed) {
        port_slot[port] = keys.size();
        keys.push_back(delivery_key(identities[u], identities[v]));
      } else if (v < u) {
        port_slot[port] = keys.size();
        keys.push_back(edge_key(identities[v], identities[u]));
      } else {
        // The lower endpoint u already laid this edge's key out.
        port_slot[port] = port_slot[g.port_offset(u) + g.port_of(u, v)];
      }
    }
  }
}

void FaultModel::crash_rounds(const rand::CoinProvider& coins,
                              std::span<const std::uint64_t> identities,
                              std::vector<std::uint64_t>& out) const {
  out.assign(identities.size(), kNeverCrashes);
  if (crash_hit_.never()) return;
  // Slot 0 decides whether a node crashes at all, drawn in place over the
  // keys. The crash round, uniform-ish in [1, cap], comes from slot 1 for
  // the nodes that do crash (modulo bias is irrelevant to the model;
  // determinism is what matters).
  std::transform(identities.begin(), identities.end(), out.begin(),
                 crash_key);
  coins.draw_column(out, 0, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = crash_hit_.hit(out[i])
                 ? 1 + coins.draw(crash_key(identities[i]), 1) %
                           crash_.round_cap
                 : kNeverCrashes;
  }
}

std::shared_ptr<const FaultModel> make_none() {
  return std::make_shared<const FaultModel>("none", LinkDraws{}, CrashDraws{},
                                            /*trivial=*/true);
}

std::shared_ptr<const FaultModel> make_drop(double p_loss) {
  return std::make_shared<const FaultModel>(
      "drop", LinkDraws{LinkFault::kDrop, kDropTag, p_loss}, CrashDraws{});
}

std::shared_ptr<const FaultModel> make_crash(double p_crash,
                                             std::uint64_t crash_round_cap) {
  return std::make_shared<const FaultModel>(
      "crash", LinkDraws{}, CrashDraws{p_crash, crash_round_cap});
}

std::shared_ptr<const FaultModel> make_churn(double p_churn) {
  return std::make_shared<const FaultModel>(
      "churn", LinkDraws{LinkFault::kChurn, kChurnTag, p_churn}, CrashDraws{});
}

void FaultSubgraph::realize(const FaultModel& model,
                            const rand::CoinProvider& coins,
                            const graph::Graph& g,
                            std::span<const std::uint64_t> identities,
                            bool links) {
  LNC_EXPECTS(identities.size() == g.node_count());
  g_ = &g;
  kind_ = model.link().kind;
  model.crash_rounds(coins, identities, crash_rounds_);
  faulty_.assign(g.port_count(), 0);
  if (!links || !model.has_link_faults()) return;
  // One symmetric draw per undirected edge from the reserved slot 0 (the
  // engine only draws rounds >= 1); both ports of the edge read it.
  model.link_keys(g, identities, /*directed=*/false, keys_, port_slot_);
  draws_.resize(keys_.size());
  coins.draw_column(keys_, 0, draws_);
  for (std::size_t port = 0; port < faulty_.size(); ++port) {
    faulty_[port] = model.link_hit(draws_[port_slot_[port]]) ? 1 : 0;
  }
}

bool FaultSubgraph::edge_blocked(graph::NodeId a, graph::NodeId b) const {
  return faulty_[g_->port_offset(a) + g_->port_of(a, b)] != 0;
}

}  // namespace lnc::fault
