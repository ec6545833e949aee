// Seeded mutations of valid input text for the hostile-input tests:
// truncations, bit flips, deep nesting and edge numbers written over a
// numeric field. A splitmix64 stream drives every choice, so a fixed seed
// and case count make each test deterministic.
#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

namespace lnc {

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  /// The next splitmix64 draw.
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// A uniformly drawn element of a nonempty list.
  template <typename T>
  const T& pick(const std::vector<T>& from) {
    return from[next() % from.size()];
  }

  /// Cuts a nonempty text to a strict prefix.
  void truncate(std::string& text) { text.resize(next() % text.size()); }

  /// Flips one to three bits of a nonempty text.
  void flip(std::string& text) {
    for (int k = 1 + static_cast<int>(next() % 3); k > 0; --k) {
      text[next() % text.size()] ^= static_cast<char>(1u << (next() % 8));
    }
  }

  /// Wraps text[begin, end) in 1..300 arrays.
  void nest(std::string& text, std::size_t begin, std::size_t end) {
    const std::size_t depth = 1 + next() % 300;
    text = text.substr(0, begin) + std::string(depth, '[') +
           text.substr(begin, end - begin) + std::string(depth, ']') +
           text.substr(end);
  }

  /// Writes an edge number from `edges` over the number that follows the
  /// first `field` (e.g. "\"trials\": "). False, drawing nothing, when
  /// the text has no such field.
  bool edge_over(std::string& text, const std::string& field,
                 const std::vector<std::string>& edges) {
    const std::size_t at = text.find(field);
    if (at == std::string::npos) return false;
    const std::size_t begin = at + field.size();
    std::size_t end = begin;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) ||
            text[end] == '-')) {
      ++end;
    }
    text.replace(begin, end - begin, pick(edges));
    return true;
  }

 private:
  std::uint64_t state_;
};

}  // namespace lnc
