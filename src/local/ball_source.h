// Where a run's balls come from: the runner's ball atlas
// (graph/ball_atlas.h) when one applies, else a collection through the
// instance's own representation into a reusable workspace. The direct
// ball runner (local/runner.h), the decider evaluator (decide/evaluate.h)
// and the LCL bad-ball check (lang/language.h) all read balls this way.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "graph/ball.h"
#include "graph/ball_atlas.h"
#include "local/instance.h"
#include "rand/coins.h"

namespace lnc::local {

/// A reusable ball-collection slot: the view's vectors and the scratch's
/// visited map keep their capacity across collect() calls. The batch
/// runner holds one per worker, so the steady-state node inspection
/// allocates nothing (ROADMAP "BallView arenas").
///
/// The batch runner also attaches its atlas cache to each warm worker's
/// workspace, together with the running trial's index. Cold workspaces
/// (no cache attached) always collect.
class BallWorkspace {
 public:
  graph::BallView ball;
  graph::BallScratch scratch;
  /// The ball runner's per-run coin prefix (local/runner.h, View::coin).
  rand::CoinTable coins;
  /// The realized fault subgraph of a censored run (ball runner and
  /// decider evaluation), kept here so its storage stays warm too.
  fault::FaultSubgraph faults;

  /// Serves later atlas() calls from `cache` (null: none) on behalf of
  /// `requester` (the trial index; see BallAtlasCache::find).
  void attach(graph::BallAtlasCache* cache, std::uint64_t requester) noexcept;

  /// The attached cache's atlas of (g, radius), or null.
  const graph::BallAtlas* atlas(const graph::Graph& g, int radius);

 private:
  graph::BallAtlasCache* cache_ = nullptr;
  std::uint64_t requester_ = 0;
};

/// One run's balls of `inst` at one radius. The atlas serves them when the
/// run is over a materialized instance, `atlases` carries one, and the
/// run is unfiltered or at radius 0 (a censored radius-0 ball is the
/// center alone, like the atlas's); otherwise every ball is collected,
/// through the CSR path for a materialized graph and through
/// neighbors_of for an implicit topology (the choice is made here, once
/// per run).
class BallSource {
 public:
  BallSource(const Instance& inst, int radius,
             const graph::BallFilter* filter = nullptr,
             BallWorkspace* atlases = nullptr);

  /// B(center, radius): the atlas's ball, or the one collected into
  /// `workspace` (valid until its next collection).
  const graph::BallView& ball(graph::NodeId center,
                              BallWorkspace& workspace) const {
    if (atlas_ != nullptr) return atlas_->ball(center);
    if (implicit_ != nullptr) {
      workspace.ball.collect(*implicit_, center, radius_, workspace.scratch,
                             filter_);
    } else {
      workspace.ball.collect(*graph_, center, radius_, workspace.scratch,
                             filter_);
    }
    return workspace.ball;
  }

  /// The atlas serving this run, or null when every ball is collected.
  const graph::BallAtlas* atlas() const noexcept { return atlas_; }

 private:
  const graph::Graph* graph_;
  const graph::ImplicitTopology* implicit_;
  int radius_;
  const graph::BallFilter* filter_;
  const graph::BallAtlas* atlas_ = nullptr;
};

}  // namespace lnc::local
