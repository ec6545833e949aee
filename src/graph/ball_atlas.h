// Ball atlases: every ball of one graph, collected once.
//
// A t-round algorithm is a map from B_G(v, t) to an output (paper,
// section 2.1.1), and the ball is a function of the graph alone, not of
// the coins. A Monte-Carlo sweep over one interned instance nevertheless
// asked for the same n balls in every trial, once for the construction
// and once for the decider. A BallAtlas holds all unfiltered balls
// B_G(v, r) of one materialized Graph, so the trials of a sweep read them
// instead of re-collecting.
//
// BallAtlasCache maps (Graph::uid(), radius) to an atlas. The batch runner
// (local/batch_runner.h) owns one, so an atlas lives exactly as long as
// the runner: one sweep, or one serve query. Censored collections (fault
// filters) at radius >= 1, implicit topologies and cold arenas never
// consult it; a censored radius-0 ball is the center alone, so censored
// radius-0 runs read the atlas too (local/ball_source.h).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/ball.h"
#include "graph/graph.h"

namespace lnc::graph {

/// All unfiltered balls B_G(v, radius), v in [0, n), of one graph. Each
/// ball is bit-identical to a freshly collected BallView
/// (tests/graph_test.cpp). Immutable after construction, so any number of
/// threads may read it at once.
class BallAtlas {
 public:
  /// Collects every ball of g at `radius`, or returns null as soon as the
  /// atlas's footprint (bytes()) would exceed `budget`: the build never
  /// holds more than `budget` bytes of balls plus the one being collected.
  static std::unique_ptr<const BallAtlas> build(
      const Graph& g, int radius,
      std::size_t budget = std::numeric_limits<std::size_t>::max());

  int radius() const noexcept { return radius_; }
  NodeId size() const noexcept { return static_cast<NodeId>(balls_.size()); }

  /// B_G(center, radius()).
  const BallView& ball(NodeId center) const noexcept {
    return balls_[center];
  }

  /// Approximate heap footprint (views plus their vectors).
  std::size_t bytes() const noexcept { return bytes_; }

  /// Sums over all balls of size() and of encoded_words(): the modeled
  /// telemetry charge of inspecting every ball once (local/telemetry.h),
  /// so a run that reads every ball need not sum them itself.
  std::uint64_t total_members() const noexcept { return total_members_; }
  std::uint64_t total_encoded_words() const noexcept {
    return total_encoded_words_;
  }

 private:
  explicit BallAtlas(int radius) : radius_(radius) {}

  int radius_;
  std::vector<BallView> balls_;
  std::size_t bytes_ = 0;
  std::uint64_t total_members_ = 0;
  std::uint64_t total_encoded_words_ = 0;
};

/// Thread-safe map from (graph uid, radius) to atlas. Lookups and builds
/// run under one mutex; an atlas, once handed out, stays valid and
/// unchanged until the cache is destroyed (nothing is evicted), so callers
/// may keep the pointer and read it without locking.
///
/// An atlas is built only on the SECOND request for its key from a
/// different requester (a trial index, say). Samplers that build a fresh
/// graph every trial thus never pay for, or keep, an atlas: each graph is
/// asked for once. First requests are remembered in a small ring, so
/// their memory stays bounded however many graphs pass through.
///
/// Atlases count against a byte budget, enforced ball by ball while an
/// atlas is built (BallAtlas::build); a key whose atlas would not fit is
/// declined for good and its callers keep collecting. Builds run under the
/// lock, so they are bounded by the budget too.
class BallAtlasCache {
 public:
  /// Default byte budget over all atlases of one cache.
  static constexpr std::size_t kBudgetBytes = std::size_t{64} << 20;

  explicit BallAtlasCache(std::size_t budget = kBudgetBytes)
      : budget_(budget) {}

  /// The atlas of (g, radius), or null when the caller should collect:
  /// g has no uid, this is the key's first requester, or the key was
  /// declined.
  const BallAtlas* find(const Graph& g, int radius, std::uint64_t requester);

  /// Number of atlases held (declined keys excluded).
  std::size_t atlas_count() const;

 private:
  using Key = std::pair<std::uint64_t, int>;  // (graph uid, radius)
  struct FirstRequest {
    Key key{0, 0};
    std::uint64_t requester = 0;
  };
  static constexpr std::size_t kFirstRequestSlots = 64;

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<const BallAtlas>> atlases_;  // null: declined
  std::array<FirstRequest, kFirstRequestSlots> first_requests_{};
  std::size_t next_slot_ = 0;
  const std::size_t budget_;
  std::size_t bytes_ = 0;
};

}  // namespace lnc::graph
