// String helpers used by graph IO and table emission.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lnc::util {

/// Strict non-negative integer parse: digits only, no sign, no trailing
/// garbage, no overflow. Nullopt otherwise — std::stoul would accept
/// "-1" and wrap it to ULONG_MAX, which is how a typo'd flag becomes a
/// 4-billion-shard request (the CLIs' numeric flags all route through
/// this).
std::optional<std::uint64_t> parse_uint(std::string_view text) noexcept;

/// Strict finite double parse: any sign, but the whole string must be
/// consumed and the value finite. Nullopt otherwise ("0.5x" must not
/// silently become 0.5).
std::optional<double> parse_finite_double(std::string_view text);

/// parse_finite_double restricted to values >= 0 ("5m"/"-5" are not
/// timeouts).
std::optional<double> parse_nonnegative_double(std::string_view text);

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by util::Table::print_json and
/// the scenario sweep emitters.
std::string json_escape(std::string_view text);

/// An enum's wire names: the one table its to_string, its parser, and
/// the "a|b|c" choice lists of usage text and errors all read.
template <class Enum, std::size_t N>
struct EnumNames {
  std::array<std::pair<Enum, const char*>, N> entries;

  const char* name(Enum value) const noexcept {
    for (const auto& [entry, text] : entries) {
      if (entry == value) return text;
    }
    return "?";
  }
  std::optional<Enum> parse(std::string_view text) const noexcept {
    for (const auto& [entry, name] : entries) {
      if (text == name) return entry;
    }
    return std::nullopt;
  }
  std::string choices() const {
    std::string out;
    for (const auto& [entry, text] : entries) {
      if (!out.empty()) out += '|';
      out += text;
    }
    return out;
  }
};

}  // namespace lnc::util
