#include "lang/amos.h"

namespace lnc::lang {

bool Amos::contains_impl(const local::Instance& /*inst*/,
                         std::span<const local::Label> output,
                         local::BallWorkspace* /*balls*/) const {
  return selected_count(output) <= 1;
}

std::size_t Amos::selected_count(std::span<const local::Label> output) {
  std::size_t count = 0;
  for (local::Label value : output) {
    if (value == kSelected) ++count;
  }
  return count;
}

}  // namespace lnc::lang
