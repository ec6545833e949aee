// The paper's two relaxations of an LCL language L (sections 1.1 and 4).
//
//   f-resilient  (Definition 1):  L_f = configurations with at most f bad
//   balls. NOT locally checkable in general (counting to f is global), but
//   in BPLD (Corollary 1's decider, decide/resilient_decider.h). Theorem 1
//   concludes randomization does not help to *construct* members of L_f.
//
//   epsilon-slack:  configurations with at most eps*n bad balls. The
//   threshold depends on n, so the language is in BPLD#node but NOT in
//   BPLD (section 5) — and randomization DOES help: the zero-round uniform
//   coloring solves slack 3-coloring with constant probability while
//   deterministic algorithms need Omega(log* n) rounds. Experiments E2/E4
//   measure the two sides of this separation.
#pragma once

#include <memory>

#include "lang/language.h"

namespace lnc::lang {

/// L_f: at most `f` balls in Bad(L). Holds a non-owning reference to the
/// base language, which must outlive the relaxation.
class FResilient final : public Language {
 public:
  FResilient(const LclLanguage& base, std::size_t max_faults);

  std::string name() const override;

  const LclLanguage& base() const noexcept { return *base_; }
  std::size_t max_faults() const noexcept { return max_faults_; }

 private:
  bool contains_impl(const local::Instance& inst,
                     std::span<const local::Label> output,
                     local::BallWorkspace* balls) const override;

  const LclLanguage* base_;
  std::size_t max_faults_;
};

/// Epsilon-slack: at most eps * n bad balls (threshold floor(eps*n)).
class EpsSlack final : public Language {
 public:
  EpsSlack(const LclLanguage& base, double eps);

  std::string name() const override;

  const LclLanguage& base() const noexcept { return *base_; }
  double eps() const noexcept { return eps_; }

  /// The instance-dependent fault budget floor(eps * n).
  std::size_t fault_budget(const local::Instance& inst) const;

 private:
  bool contains_impl(const local::Instance& inst,
                     std::span<const local::Label> output,
                     local::BallWorkspace* balls) const override;

  const LclLanguage* base_;
  double eps_;
};

/// The paper's open-problem relaxation (section 5): at most n^c bad balls
/// for an exponent c in (0, 1) — "one intriguing question is whether
/// randomization helps for intermediate relaxations, like allowing O(n^c)
/// nodes to output incorrect values". At c = 0 this degenerates to
/// 1-resilience, at c = 1 to 1-slack; the bench sweep (E2 extension)
/// measures where the zero-round Monte-Carlo algorithm's success
/// probability collapses. Like eps-slack, the threshold needs n, so the
/// language lies in BPLD#node, outside Theorem 1's reach — which is why
/// the paper leaves the regime open.
class PolyResilient final : public Language {
 public:
  PolyResilient(const LclLanguage& base, double exponent);

  std::string name() const override;

  const LclLanguage& base() const noexcept { return *base_; }
  double exponent() const noexcept { return exponent_; }

  /// floor(n^exponent).
  std::size_t fault_budget(const local::Instance& inst) const;

 private:
  bool contains_impl(const local::Instance& inst,
                     std::span<const local::Label> output,
                     local::BallWorkspace* balls) const override;

  const LclLanguage* base_;
  double exponent_;
};

}  // namespace lnc::lang
