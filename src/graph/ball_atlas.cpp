#include "graph/ball_atlas.h"

namespace lnc::graph {
namespace {

std::size_t view_bytes(const BallView& ball) {
  std::size_t in_ball_edges = 0;
  for (NodeId i = 0; i < ball.size(); ++i) {
    in_ball_edges += ball.degree_in_ball(i);
  }
  // Members, distances, host degrees and offsets per member; one extra
  // offset; the in-ball adjacency.
  constexpr std::size_t kPerMember =
      2 * sizeof(NodeId) + sizeof(int) + sizeof(std::size_t);
  return sizeof(BallView) + ball.size() * kPerMember + sizeof(std::size_t) +
         in_ball_edges * sizeof(NodeId);
}

}  // namespace

std::unique_ptr<const BallAtlas> BallAtlas::build(const Graph& g, int radius,
                                                  std::size_t budget) {
  const NodeId n = g.node_count();
  // Every view costs at least its own header: decline before reserving
  // them when even the headers cannot fit.
  if (std::size_t{n} > budget / sizeof(BallView)) return nullptr;
  std::unique_ptr<BallAtlas> atlas(new BallAtlas(radius));
  atlas->balls_.reserve(n);
  BallView view;
  BallScratch scratch;
  for (NodeId v = 0; v < n; ++v) {
    view.collect(g, v, radius, scratch);
    atlas->bytes_ += view_bytes(view);
    if (atlas->bytes_ > budget) return nullptr;
    // The copy sizes every vector to the ball exactly.
    atlas->balls_.push_back(view);
  }
  return atlas;
}

const BallAtlas* BallAtlasCache::find(const Graph& g, int radius,
                                      std::uint64_t requester) {
  if (g.uid() == 0) return nullptr;
  const Key key{g.uid(), radius};
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = atlases_.find(key); it != atlases_.end()) {
    return it->second.get();
  }
  for (FirstRequest& first : first_requests_) {
    if (first.key != key) continue;
    if (first.requester == requester) return nullptr;
    first = FirstRequest{};
    std::unique_ptr<const BallAtlas> atlas =
        BallAtlas::build(g, radius, budget_ - bytes_);
    if (atlas != nullptr) bytes_ += atlas->bytes();
    return (atlases_[key] = std::move(atlas)).get();
  }
  first_requests_[next_slot_] = FirstRequest{key, requester};
  next_slot_ = (next_slot_ + 1) % kFirstRequestSlots;
  return nullptr;
}

std::size_t BallAtlasCache::atlas_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [key, atlas] : atlases_) {
    if (atlas != nullptr) ++count;
  }
  return count;
}

}  // namespace lnc::graph
