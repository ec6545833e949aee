// The spec front end shared by lnc_sweep, lnc_launch, lnc_serve --query
// and the serve daemon's request reader. A spec is one source plus
// overrides:
//
//   --scenario NAME    a preset (lnc_sweep --list)
//   --spec FILE.json   a spec file (scenarios/*.json)
//   neither            the ad hoc spec: name "adhoc", n = [64]
//
// Every override flag becomes one field of a JSON object in the
// spec-file form (--n A,B -> "n": [A, B], --param k=v -> "params":
// {"k": v}, ...), and scenario::apply_spec_fields applies it — the same
// reader spec files, cache entries and daemon requests go through. A
// flag value is checked when it is parsed, by applying its field to a
// scratch spec, so a malformed value is a usage error that names the
// flag; component names are left to scenario::validate.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "scenario/scenario.h"
#include "scenario/spec_json.h"

namespace lnc::scenario {

/// A cursor over argv for the tools' flag parsers. Malformed input
/// throws std::runtime_error with a message that names the flag — the
/// tools report it as a usage error (exit 2).
class ArgCursor {
 public:
  ArgCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next argument; false past the end.
  bool next();
  const std::string& flag() const noexcept { return flag_; }
  /// The current flag's value: the argument after it.
  std::string value();
  /// value() as a strict non-negative integer no larger than `max`.
  std::uint64_t uint_value(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  /// The next argument when it is not a flag (consumed), else nullopt.
  std::optional<std::string> operand();

 private:
  int argc_;
  char** argv_;
  int index_ = 0;
  std::string flag_;
};

struct SpecFlags {
  std::string source_flag;  ///< "--scenario", "--spec", or empty (ad hoc)
  std::string source;       ///< the preset name or the spec file path
  /// The override flags' spec fields, in the spec-file form.
  Json overrides = Json::of(Json::Kind::kObject);
  std::string first_flag;  ///< the first spec flag given (empty: none)

  bool given() const noexcept { return !first_flag.empty(); }

  /// When the cursor's flag is a spec flag, consumes it with its value
  /// and returns true; returns false for any other flag. Throws on a
  /// malformed value or a second source.
  bool parse(ArgCursor& args);

  /// The source's spec: the preset, the spec file, or the ad hoc spec.
  /// Throws std::runtime_error (unknown preset, unreadable or malformed
  /// file).
  ScenarioSpec base() const;
  /// base() with the overrides applied.
  ScenarioSpec resolve() const;
  /// The daemon request asking for resolve(): the source key
  /// ("scenario" or "spec") with the override fields beside it.
  std::string request_line() const;
};

/// The spec a daemon request object asks for: exactly one of "scenario"
/// (a preset name) or "spec" (a spec object), every other key a spec
/// field applied on top. Throws std::runtime_error on a bad request.
ScenarioSpec spec_from_request(Json request);

/// The spec flag table every tool's usage text prints.
std::string spec_flags_usage();

}  // namespace lnc::scenario
