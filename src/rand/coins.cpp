#include "rand/coins.h"

#include <algorithm>

namespace lnc::rand {

void PhiloxCoins::draw_column(std::span<const std::uint64_t> identities,
                              std::uint64_t draw_index,
                              std::span<std::uint64_t> out) const {
  // philox_u64_batch takes a counter array per word; the draw index is
  // the same for the whole column, so one stack chunk of it serves every
  // call.
  constexpr std::size_t kChunk = 256;
  std::uint64_t index[kChunk];
  std::fill_n(index, std::min(kChunk, identities.size()), draw_index);
  for (std::size_t begin = 0; begin < identities.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, identities.size() - begin);
    philox_u64_batch(key_, identities.data() + begin, index,
                     out.data() + begin, count);
  }
}

void CoinTable::fill(const PhiloxCoins& coins,
                     std::span<const std::uint64_t> identities,
                     std::uint64_t width) {
  count_ = identities.size();
  width_ = width;
  draws_.resize(count_ * width_);
  for (std::uint64_t j = 0; j < width_; ++j) {
    coins.draw_column(identities, j,
                      std::span(draws_).subspan(j * count_, count_));
  }
}

std::uint64_t coin_fingerprint(const CoinProvider& provider,
                               std::uint64_t identity,
                               std::uint64_t prefix_length) {
  std::uint64_t h = 0x6C6E633A636F696EULL;  // "lnc:coin"
  for (std::uint64_t i = 0; i < prefix_length; ++i) {
    h = mix_keys(h, provider.draw(identity, i));
  }
  return h;
}

}  // namespace lnc::rand
