#include "graph/ball.h"

#include <algorithm>

#include "rand/splitmix.h"
#include "util/assert.h"

namespace lnc::graph {

BallView::BallView(const Graph& g, NodeId center, int radius) {
  BallScratch scratch;
  collect(g, center, radius, scratch);
}

void BallView::collect(const Graph& g, NodeId center, int radius,
                       BallScratch& scratch, const BallFilter* filter) {
  LNC_EXPECTS(center < g.node_count());
  LNC_EXPECTS(radius >= 0);
  radius_ = radius;
  members_.clear();
  distances_.clear();
  host_degrees_.clear();

  // Stamp-versioned visited map: an entry is valid only when its stamp
  // matches the current collection, so reuse never clears the array.
  if (scratch.local_of_.size() < g.node_count()) {
    scratch.local_of_.resize(g.node_count());
    scratch.stamp_.resize(g.node_count(), 0);
  }
  const std::uint64_t version = ++scratch.version_;
  auto local_of = [&](NodeId v) -> NodeId {
    return scratch.stamp_[v] == version ? scratch.local_of_[v] : kInvalidNode;
  };
  auto mark = [&](NodeId v, NodeId local) {
    scratch.local_of_[v] = local;
    scratch.stamp_[v] = version;
  };

  // BFS out to `radius`, recording discovery order and distances.
  members_.push_back(center);
  distances_.push_back(0);
  mark(center, 0);
  std::size_t head = 0;
  while (head < members_.size()) {
    const NodeId u = members_[head];
    const int du = distances_[head];
    ++head;
    if (du == radius) continue;
    for (NodeId w : g.neighbors(u)) {
      if (filter != nullptr &&
          (filter->node_blocked(w) || filter->edge_blocked(u, w))) {
        continue;
      }
      if (local_of(w) == kInvalidNode) {
        mark(w, static_cast<NodeId>(members_.size()));
        members_.push_back(w);
        distances_.push_back(du + 1);
      }
    }
  }

  host_degrees_.reserve(members_.size());
  for (NodeId orig : members_) host_degrees_.push_back(g.degree(orig));

  // Build local adjacency with the paper's rule: include edge {a, b} iff
  // both are in the ball and not (dist(a) == radius && dist(b) == radius).
  // Two passes over the members' host adjacency (count, then fill) keep
  // the CSR build allocation-free once capacity is warm.
  offsets_.assign(members_.size() + 1, 0);
  for (NodeId a = 0; a < members_.size(); ++a) {
    for (NodeId w : g.neighbors(members_[a])) {
      const NodeId b = local_of(w);
      if (b == kInvalidNode) continue;
      if (distances_[a] == radius && distances_[b] == radius) continue;
      if (filter != nullptr && filter->edge_blocked(members_[a], w)) continue;
      ++offsets_[a + 1];
    }
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  adjacency_.resize(offsets_.back());
  scratch.cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (NodeId a = 0; a < members_.size(); ++a) {
    for (NodeId w : g.neighbors(members_[a])) {
      const NodeId b = local_of(w);
      if (b == kInvalidNode) continue;
      if (distances_[a] == radius && distances_[b] == radius) continue;
      if (filter != nullptr && filter->edge_blocked(members_[a], w)) continue;
      adjacency_[scratch.cursor_[a]++] = b;
    }
  }
  // Neighbor lists sort by local index, exactly as the original
  // vector-of-vectors build emitted them.
  for (NodeId a = 0; a < members_.size(); ++a) {
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[a]),
              adjacency_.begin() +
                  static_cast<std::ptrdiff_t>(offsets_[a + 1]));
  }
}

void BallView::collect(const Topology& topology, NodeId center, int radius,
                       BallScratch& scratch, const BallFilter* filter) {
  LNC_EXPECTS(center < topology.node_count());
  LNC_EXPECTS(radius >= 0);
  radius_ = radius;
  members_.clear();
  distances_.clear();
  host_degrees_.clear();

  // Ball-sized open-addressing visited map (original -> local index).
  // Deliberately NOT the stamp-versioned O(n) arrays: at n = 10^8 those
  // alone would dwarf every ball this path ever builds.
  auto& keys = scratch.map_keys_;
  auto& vals = scratch.map_vals_;
  if (keys.size() < 64) {
    keys.assign(64, kInvalidNode);
    vals.assign(64, 0);
  } else {
    std::fill(keys.begin(), keys.end(), kInvalidNode);
  }
  std::size_t mask = keys.size() - 1;
  auto slot_for = [&](NodeId v) {
    std::size_t s = static_cast<std::size_t>(rand::splitmix64(v)) & mask;
    while (keys[s] != kInvalidNode && keys[s] != v) s = (s + 1) & mask;
    return s;
  };
  auto local_of = [&](NodeId v) -> NodeId {
    const std::size_t s = slot_for(v);
    return keys[s] == v ? vals[s] : kInvalidNode;
  };
  auto mark = [&](NodeId v, NodeId local) {
    if ((members_.size() + 1) * 2 > keys.size()) {
      // Keep load factor <= 1/2; re-insert from members_ (which is the
      // authoritative local -> original map).
      keys.assign(keys.size() * 2, kInvalidNode);
      vals.resize(keys.size());
      mask = keys.size() - 1;
      for (NodeId existing = 0;
           existing < static_cast<NodeId>(members_.size()); ++existing) {
        const std::size_t s = slot_for(members_[existing]);
        keys[s] = members_[existing];
        vals[s] = existing;
      }
    }
    const std::size_t s = slot_for(v);
    keys[s] = v;
    vals[s] = local;
  };

  // BFS identical to the CSR path (neighbors_of lists are sorted
  // ascending, exactly like CSR rows, so discovery order matches),
  // memoizing each member's host neighbor list as it is popped — every
  // member is queried exactly once even though the adjacency build below
  // reads the lists twice more.
  auto& host_offsets = scratch.host_offsets_;
  auto& host_adj = scratch.host_adj_;
  host_offsets.clear();
  host_offsets.push_back(0);
  host_adj.clear();

  members_.push_back(center);
  distances_.push_back(0);
  mark(center, 0);
  std::size_t head = 0;
  while (head < members_.size()) {
    const NodeId u = members_[head];
    const int du = distances_[head];
    ++head;
    const std::span<const NodeId> nbrs =
        topology.neighbors_of(u, scratch.fetch_);
    host_adj.insert(host_adj.end(), nbrs.begin(), nbrs.end());
    host_offsets.push_back(host_adj.size());
    if (du == radius) continue;
    for (NodeId w : nbrs) {
      if (filter != nullptr &&
          (filter->node_blocked(w) || filter->edge_blocked(u, w))) {
        continue;
      }
      if (local_of(w) == kInvalidNode) {
        mark(w, static_cast<NodeId>(members_.size()));
        members_.push_back(w);
        distances_.push_back(du + 1);
      }
    }
  }

  host_degrees_.reserve(members_.size());
  for (NodeId a = 0; a < members_.size(); ++a) {
    host_degrees_.push_back(
        static_cast<NodeId>(host_offsets[a + 1] - host_offsets[a]));
  }

  // Same two-pass CSR build and boundary-edge rule as the Graph path,
  // reading the memo instead of the host CSR.
  auto row = [&](NodeId a) {
    return std::span<const NodeId>(host_adj.data() + host_offsets[a],
                                   host_adj.data() + host_offsets[a + 1]);
  };
  offsets_.assign(members_.size() + 1, 0);
  for (NodeId a = 0; a < members_.size(); ++a) {
    for (NodeId w : row(a)) {
      const NodeId b = local_of(w);
      if (b == kInvalidNode) continue;
      if (distances_[a] == radius && distances_[b] == radius) continue;
      if (filter != nullptr && filter->edge_blocked(members_[a], w)) continue;
      ++offsets_[a + 1];
    }
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  adjacency_.resize(offsets_.back());
  scratch.cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (NodeId a = 0; a < members_.size(); ++a) {
    for (NodeId w : row(a)) {
      const NodeId b = local_of(w);
      if (b == kInvalidNode) continue;
      if (distances_[a] == radius && distances_[b] == radius) continue;
      if (filter != nullptr && filter->edge_blocked(members_[a], w)) continue;
      adjacency_[scratch.cursor_[a]++] = b;
    }
  }
  for (NodeId a = 0; a < members_.size(); ++a) {
    std::sort(adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[a]),
              adjacency_.begin() +
                  static_cast<std::ptrdiff_t>(offsets_[a + 1]));
  }
}

std::uint64_t BallView::structure_signature() const {
  std::uint64_t h = 0x62616C6C7369676EULL;  // "ballsign"
  h = rand::mix_keys(h, members_.size());
  for (NodeId i = 0; i < size(); ++i) {
    h = rand::mix_keys(h, static_cast<std::uint64_t>(distances_[i]));
    for (NodeId j : neighbors(i)) {
      h = rand::mix_keys(h, j);
    }
    h = rand::mix_keys(h, 0xFFFFFFFFULL);  // row separator
  }
  return h;
}

}  // namespace lnc::graph
