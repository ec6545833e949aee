// amos — "at most one selected" (paper, section 2.3.1):
//
//   amos = { (G, (x, y)) : |{ v in V(G) : y(v) = selected }| <= 1 }
//
// The canonical witness that LD is a strict subset of BPLD: no t-round
// deterministic decider can decide amos on graphs of diameter > 2t, yet a
// zero-round randomized decider achieves guarantee p = (sqrt(5)-1)/2
// (decide/amos_decider.h; experiments E1 and E9).
//
// amos is NOT an LCL: membership is a global population count.
#pragma once

#include "lang/language.h"

namespace lnc::lang {

class Amos final : public Language {
 public:
  /// Output label marking a selected node.
  static constexpr local::Label kSelected = 1;

  std::string name() const override { return "amos"; }

  /// Number of selected nodes.
  static std::size_t selected_count(std::span<const local::Label> output);

 private:
  bool contains_impl(const local::Instance& inst,
                     std::span<const local::Label> output,
                     local::BallWorkspace* balls) const override;
};

}  // namespace lnc::lang
