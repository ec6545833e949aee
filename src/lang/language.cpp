#include "lang/language.h"

#include <optional>

namespace lnc::lang {

bool LclLanguage::contains_impl(const local::Instance& inst,
                                std::span<const local::Label> output,
                                local::BallWorkspace* balls) const {
  return count_bad_balls(inst, output, balls) == 0;
}

std::vector<graph::NodeId> LclLanguage::bad_ball_centers(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  std::vector<graph::NodeId> centers;
  std::optional<local::BallWorkspace> local_workspace;
  local::BallWorkspace& workspace =
      balls != nullptr ? *balls : local_workspace.emplace();
  const local::BallSource source(inst, radius(), nullptr, balls);
  for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
    LabeledBall labeled{&source.ball(v, workspace), &inst, output, {}};
    if (is_bad_ball(labeled)) centers.push_back(v);
  }
  return centers;
}

std::size_t LclLanguage::count_bad_balls(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  return bad_ball_centers(inst, output, balls).size();
}

}  // namespace lnc::lang
