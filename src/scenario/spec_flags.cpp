#include "scenario/spec_flags.h"

#include <stdexcept>
#include <string_view>

#include "scenario/presets.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace lnc::scenario {
namespace {

/// The ad hoc source: what a spec is before any flag names its parts.
constexpr const char* kAdhocSpec = R"({"name": "adhoc", "n": [64]})";

enum class ValueKind { kString, kUint, kUintList, kParam };

struct OverrideFlag {
  std::string_view flag;
  const char* field;  ///< the apply_spec_fields key
  ValueKind kind;
};

constexpr OverrideFlag kOverrideFlags[] = {
    {"--topology", "topology", ValueKind::kString},
    {"--language", "language", ValueKind::kString},
    {"--construction", "construction", ValueKind::kString},
    {"--decider", "decider", ValueKind::kString},
    {"--param", "params", ValueKind::kParam},
    {"--n", "n", ValueKind::kUintList},
    {"--trials", "trials", ValueKind::kUint},
    {"--seed", "seed", ValueKind::kUint},
    {"--workload", "workload", ValueKind::kString},
    {"--statistic", "statistic", ValueKind::kString},
    {"--success", "success", ValueKind::kString},
    {"--mode", "mode", ValueKind::kString},
    {"--backend", "backend", ValueKind::kString},
    {"--execution", "execution", ValueKind::kString},
    {"--fault", "fault", ValueKind::kString},
    {"--fault-param", "fault-params", ValueKind::kParam},
};

Json string_json(std::string text) {
  Json json = Json::of(Json::Kind::kString);
  json.string = std::move(text);
  return json;
}

Json uint_json(std::uint64_t value) {
  Json json = Json::of(Json::Kind::kNumber);
  json.number = static_cast<double>(value);
  json.is_uint64 = true;
  json.integer = value;
  return json;
}

/// The JSON value an override flag's text stands for.
Json override_value(const std::string& flag, ValueKind kind,
                    const std::string& text) {
  switch (kind) {
    case ValueKind::kString:
      return string_json(text);
    case ValueKind::kUint: {
      const std::optional<std::uint64_t> value = util::parse_uint(text);
      if (!value) {
        throw std::runtime_error(flag + " expects a non-negative integer, "
                                 "got '" + text + "'");
      }
      return uint_json(*value);
    }
    case ValueKind::kUintList: {
      Json grid = Json::of(Json::Kind::kArray);
      for (const std::string& part : util::split(text, ',')) {
        const std::optional<std::uint64_t> n = util::parse_uint(part);
        if (!n) {
          throw std::runtime_error(flag + " expects non-negative integers, "
                                   "got '" + part + "'");
        }
        grid.array.push_back(uint_json(*n));
      }
      return grid;
    }
    case ValueKind::kParam: {
      const std::size_t eq = text.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error(flag + " expects k=v, got '" + text + "'");
      }
      const std::optional<double> value =
          util::parse_finite_double(text.substr(eq + 1));
      if (!value) {
        throw std::runtime_error(flag + " " + text +
                                 " has a malformed numeric value");
      }
      Json number = Json::of(Json::Kind::kNumber);
      number.number = *value;
      Json params = Json::of(Json::Kind::kObject);
      params.object.emplace(text.substr(0, eq), std::move(number));
      return params;
    }
  }
  return {};
}

ScenarioSpec preset_spec(const std::string& name) {
  const ScenarioSpec* preset = find_preset(name);
  if (preset == nullptr) {
    throw std::runtime_error("unknown scenario '" + name +
                             "' (see lnc_sweep --list)");
  }
  return *preset;
}

}  // namespace

bool ArgCursor::next() {
  if (index_ + 1 >= argc_) return false;
  flag_ = argv_[++index_];
  return true;
}

std::string ArgCursor::value() {
  if (index_ + 1 >= argc_) throw std::runtime_error(flag_ + " needs a value");
  return argv_[++index_];
}

std::uint64_t ArgCursor::uint_value(std::uint64_t max) {
  const std::string text = value();
  const std::optional<std::uint64_t> parsed = util::parse_uint(text);
  if (!parsed || *parsed > max) {
    throw std::runtime_error(
        flag_ + " expects a non-negative integer" +
        (max < std::numeric_limits<std::uint64_t>::max()
             ? " (<= " + std::to_string(max) + ")"
             : std::string()) +
        ", got '" + text + "'");
  }
  return *parsed;
}

std::optional<std::string> ArgCursor::operand() {
  if (index_ + 1 >= argc_ || argv_[index_ + 1][0] == '-') return std::nullopt;
  return argv_[++index_];
}

bool SpecFlags::parse(ArgCursor& args) {
  const std::string& flag = args.flag();
  if (flag == "--scenario" || flag == "--spec") {
    if (!source_flag.empty()) {
      throw std::runtime_error(source_flag + " and " + flag +
                               " both name the spec source; give one");
    }
    source_flag = flag;
    source = args.value();
  } else {
    const OverrideFlag* entry = nullptr;
    for (const OverrideFlag& candidate : kOverrideFlags) {
      if (candidate.flag == flag) entry = &candidate;
    }
    if (entry == nullptr) return false;
    Json field = Json::of(Json::Kind::kObject);
    field.object.emplace(entry->field,
                         override_value(flag, entry->kind, args.value()));
    // The one field reader checks the value now, so the error names the
    // flag instead of surfacing later as a spec error.
    ScenarioSpec scratch;
    try {
      apply_spec_fields(field, scratch);
    } catch (const std::exception& ex) {
      throw std::runtime_error(flag + ": " + ex.what());
    }
    Json& slot = overrides.object[entry->field];
    if (entry->kind == ValueKind::kParam) {
      slot.kind = Json::Kind::kObject;
      for (auto& [key, value] : field.object.begin()->second.object) {
        slot.object[key] = std::move(value);
      }
    } else {
      slot = std::move(field.object.begin()->second);
    }
  }
  if (first_flag.empty()) first_flag = flag;
  return true;
}

ScenarioSpec SpecFlags::base() const {
  if (source_flag == "--scenario") return preset_spec(source);
  if (source_flag.empty()) return spec_from_json(std::string(kAdhocSpec));
  std::string text;
  const std::string error = util::read_file(source, text);
  if (!error.empty()) throw std::runtime_error(error);
  return spec_from_json(text);
}

ScenarioSpec SpecFlags::resolve() const {
  ScenarioSpec spec = base();
  apply_spec_fields(overrides, spec);
  return spec;
}

std::string SpecFlags::request_line() const {
  Json request = overrides;
  if (source_flag == "--scenario") {
    request.object["scenario"] = string_json(source);
  } else if (source_flag.empty()) {
    request.object["spec"] = Json::parse(kAdhocSpec);
  } else {
    std::string text;
    const std::string error = util::read_file(source, text);
    if (!error.empty()) throw std::runtime_error(error);
    request.object["spec"] = Json::parse(text);
  }
  return request.dump();
}

ScenarioSpec spec_from_request(Json request) {
  if (request.has("scenario") == request.has("spec")) {
    throw std::runtime_error(
        "request must carry exactly one of 'scenario' (preset name) or "
        "'spec' (spec object)");
  }
  const auto source = request.object.find(
      request.has("scenario") ? "scenario" : "spec");
  ScenarioSpec spec = source->first == "scenario"
                          ? preset_spec(source->second.as_string())
                          : spec_from_json(source->second);
  request.object.erase(source);
  apply_spec_fields(request, spec);
  return spec;
}

std::string spec_flags_usage() {
  return "spec flags (shared by lnc_sweep, lnc_launch, lnc_serve --query):\n"
         "  --scenario NAME | --spec FILE.json   the source: a preset or a\n"
         "      spec file; neither is the ad hoc spec 'adhoc' with n = 64\n"
         "  --topology T | --language L | --construction C | --decider D\n"
         "  --param k=v (repeatable) | --n A,B,C | --trials N | --seed S\n"
         "  --workload " + local::kWorkloadNames.choices() +
         " | --statistic NAME\n"
         "  --success accept|reject | --mode " +
         local::kExecModeNames.choices() + "\n"
         "  --backend " + local::kBackendNames.choices() + "\n"
         "  --execution " + kExecutionNames.choices() + "\n"
         "  --fault NAME | --fault-param k=v (repeatable)\n";
}

}  // namespace lnc::scenario
