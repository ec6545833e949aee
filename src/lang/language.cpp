#include "lang/language.h"

#include <optional>

namespace lnc::lang {
namespace {

/// The one bad-ball loop: calls `visit(v)` for each bad-ball center v in
/// node order, and stops as soon as `visit` returns false.
template <typename Visit>
void for_each_bad_ball(const LclLanguage& lang, const local::Instance& inst,
                       std::span<const local::Label> output,
                       local::BallWorkspace* balls, Visit&& visit) {
  std::optional<local::BallWorkspace> local_workspace;
  local::BallWorkspace& workspace =
      balls != nullptr ? *balls : local_workspace.emplace();
  const local::BallSource source(inst, lang.radius(), nullptr, balls);
  for (graph::NodeId v = 0; v < inst.node_count(); ++v) {
    const LabeledBall labeled{&source.ball(v, workspace), &inst, output, {}};
    if (lang.is_bad_ball(labeled) && !visit(v)) return;
  }
}

}  // namespace

bool LclLanguage::contains_impl(const local::Instance& inst,
                                std::span<const local::Label> output,
                                local::BallWorkspace* balls) const {
  bool clean = true;
  for_each_bad_ball(*this, inst, output, balls, [&](graph::NodeId) {
    clean = false;
    return false;
  });
  return clean;
}

std::vector<graph::NodeId> LclLanguage::bad_ball_centers(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  std::vector<graph::NodeId> centers;
  for_each_bad_ball(*this, inst, output, balls, [&](graph::NodeId v) {
    centers.push_back(v);
    return true;
  });
  return centers;
}

std::size_t LclLanguage::count_bad_balls(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  std::size_t count = 0;
  for_each_bad_ball(*this, inst, output, balls, [&](graph::NodeId) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace lnc::lang
