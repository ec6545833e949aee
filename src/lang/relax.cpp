#include "lang/relax.h"

#include <cmath>

#include "util/assert.h"

namespace lnc::lang {

FResilient::FResilient(const LclLanguage& base, std::size_t max_faults)
    : base_(&base), max_faults_(max_faults) {}

std::string FResilient::name() const {
  return std::to_string(max_faults_) + "-resilient(" + base_->name() + ")";
}

bool FResilient::contains_impl(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  return base_->count_bad_balls(inst, output, balls) <= max_faults_;
}

EpsSlack::EpsSlack(const LclLanguage& base, double eps)
    : base_(&base), eps_(eps) {
  LNC_EXPECTS(eps >= 0.0 && eps <= 1.0);
}

std::string EpsSlack::name() const {
  return "slack[" + std::to_string(eps_) + "](" + base_->name() + ")";
}

std::size_t EpsSlack::fault_budget(const local::Instance& inst) const {
  return static_cast<std::size_t>(
      std::floor(eps_ * static_cast<double>(inst.node_count())));
}

bool EpsSlack::contains_impl(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  return base_->count_bad_balls(inst, output, balls) <= fault_budget(inst);
}

PolyResilient::PolyResilient(const LclLanguage& base, double exponent)
    : base_(&base), exponent_(exponent) {
  LNC_EXPECTS(exponent >= 0.0 && exponent <= 1.0);
}

std::string PolyResilient::name() const {
  return "poly-resilient[n^" + std::to_string(exponent_) + "](" +
         base_->name() + ")";
}

std::size_t PolyResilient::fault_budget(const local::Instance& inst) const {
  return static_cast<std::size_t>(
      std::floor(std::pow(static_cast<double>(inst.node_count()),
                          exponent_)));
}

bool PolyResilient::contains_impl(
    const local::Instance& inst, std::span<const local::Label> output,
    local::BallWorkspace* balls) const {
  return base_->count_bad_balls(inst, output, balls) <= fault_budget(inst);
}

}  // namespace lnc::lang
