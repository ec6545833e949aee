// Distributed languages (paper, section 2.2.1) and locally checkable
// labelings (section 4, Definition 1).
//
// A Language answers the global membership question "(G, (x, y)) in L?".
// An LclLanguage is additionally *defined by the exclusion of bad balls*:
// L contains exactly the configurations with zero balls in Bad(L). Its
// f-resilient relaxation L_f (Definition 1) tolerates at most f bad balls
// and is generally NOT locally checkable — the crux of the paper.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/ball.h"
#include "graph/graph.h"
#include "local/ball_source.h"
#include "local/instance.h"

namespace lnc::lang {

/// A labeled ball: structure plus input/output labels of its members
/// (ball-local indexing; 0 is the center). Bad(L) should be a property of
/// the labeled structure — that portability across host graphs is what
/// makes legal/illegal balls meaningful (section 1.1). Languages whose
/// outputs *name* neighbors (e.g. maximal-matching) may read identities
/// through `instance`, which preserves portability because the named
/// identities travel with the ball.
struct LabeledBall {
  const graph::BallView* ball = nullptr;
  const local::Instance* instance = nullptr;
  std::span<const local::Label> output;       // by ORIGINAL node index
  /// Alternative output form covering exactly the ball's members — the
  /// streaming implicit path never materializes an O(n) labeling (see
  /// decide::DeciderView). Exactly one of the two spans is non-empty.
  std::span<const local::Label> ball_output;  // by ball-LOCAL index

  local::Label input_of(graph::NodeId local) const noexcept {
    return instance->input_of(ball->to_original(local));
  }
  local::Label output_of(graph::NodeId local) const noexcept {
    return output.empty() ? ball_output[local]
                          : output[ball->to_original(local)];
  }
};

class Language {
 public:
  virtual ~Language() = default;
  virtual std::string name() const = 0;

  /// Global membership: is (G, (x, y)) in L? A non-null `balls` lends
  /// ball storage, and the runner's atlas when it carries one, to
  /// languages that inspect balls (local/ball_source.h); trial bodies
  /// pass their worker's workspace. The answer does not depend on it.
  bool contains(const local::Instance& inst,
                std::span<const local::Label> output,
                local::BallWorkspace* balls = nullptr) const {
    return contains_impl(inst, output, balls);
  }

 private:
  virtual bool contains_impl(const local::Instance& inst,
                             std::span<const local::Label> output,
                             local::BallWorkspace* balls) const = 0;
};

/// A language defined by exclusion of a set Bad(L) of radius-t balls.
class LclLanguage : public Language {
 public:
  /// The (constant) radius t of the excluded balls.
  virtual int radius() const = 0;

  /// Is this labeled ball in Bad(L)?
  virtual bool is_bad_ball(const LabeledBall& ball) const = 0;

  /// F(G) in the paper's Corollary-1 proof: the centers of bad balls.
  /// Balls come from `balls` (its atlas, or its storage) when given, else
  /// from one call-local workspace reused across the nodes.
  std::vector<graph::NodeId> bad_ball_centers(
      const local::Instance& inst, std::span<const local::Label> output,
      local::BallWorkspace* balls = nullptr) const;

  /// |F(G)|, counted without building F(G).
  std::size_t count_bad_balls(const local::Instance& inst,
                              std::span<const local::Label> output,
                              local::BallWorkspace* balls = nullptr) const;

 private:
  /// Membership == no node's ball is bad; stops at the first bad ball.
  bool contains_impl(const local::Instance& inst,
                     std::span<const local::Label> output,
                     local::BallWorkspace* balls) const override;
};

}  // namespace lnc::lang
