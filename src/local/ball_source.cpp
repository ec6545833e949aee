#include "local/ball_source.h"

namespace lnc::local {

void BallWorkspace::attach(graph::BallAtlasCache* cache,
                           std::uint64_t requester) noexcept {
  cache_ = cache;
  requester_ = requester;
}

const graph::BallAtlas* BallWorkspace::atlas(const graph::Graph& g,
                                             int radius) {
  if (cache_ == nullptr) return nullptr;
  return cache_->find(g, radius, requester_);
}

BallSource::BallSource(const Instance& inst, int radius,
                       const graph::BallFilter* filter,
                       BallWorkspace* atlases)
    : graph_(&inst.g),
      implicit_(inst.implicit.get()),
      radius_(radius),
      filter_(filter) {
  // A radius-0 ball is its center alone, and every filter exempts the
  // center, so a censored radius-0 ball IS the atlas ball; callers skip
  // blocked centers themselves.
  if ((filter == nullptr || radius == 0) && implicit_ == nullptr &&
      atlases != nullptr) {
    atlas_ = atlases->atlas(inst.g, radius);
  }
}

}  // namespace lnc::local
