#include "orchestrate/manifest.h"

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "scenario/spec_json.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace lnc::orchestrate {

namespace {

/// A field that must fit an unsigned: a larger count or index is corrupt,
/// never silently narrowed.
unsigned as_unsigned(const scenario::Json& json, const char* field) {
  const std::uint64_t value = json.as_uint64();
  if (value > std::numeric_limits<unsigned>::max()) {
    throw std::runtime_error(std::string("manifest ") + field + " " +
                             std::to_string(value) + " is out of range");
  }
  return static_cast<unsigned>(value);
}

/// An exit code: an integer in int's range (signed — -1 records a
/// never-reaped launch), read through the double field.
int as_exit_code(const scenario::Json& json) {
  const double value = json.as_number();
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max()) ||
      std::trunc(value) != value) {
    throw std::runtime_error("manifest exit_code is not an int");
  }
  return static_cast<int>(value);
}

/// Every shard needs at least one trial: an empty range is no job.
void check_split(const RunManifest& manifest) {
  const std::uint64_t width = manifest.trial_end - manifest.trial_begin;
  if (width < manifest.shard_count) {
    throw std::runtime_error(
        "manifest splits the " + std::to_string(width) + " trial(s) [" +
        std::to_string(manifest.trial_begin) + ", " +
        std::to_string(manifest.trial_end) + ") into " +
        std::to_string(manifest.shard_count) + " shards");
  }
}

}  // namespace

const char* to_string(ShardState state) noexcept {
  switch (state) {
    case ShardState::kPending:
      return "pending";
    case ShardState::kRunning:
      return "running";
    case ShardState::kDone:
      return "done";
    case ShardState::kFailed:
      return "failed";
  }
  return "?";
}

std::optional<ShardState> shard_state_from_string(
    std::string_view text) noexcept {
  if (text == "pending") return ShardState::kPending;
  if (text == "running") return ShardState::kRunning;
  if (text == "done") return ShardState::kDone;
  if (text == "failed") return ShardState::kFailed;
  return std::nullopt;
}

std::string RunManifest::manifest_path() const {
  return run_dir + "/manifest.json";
}

std::string RunManifest::spec_path() const {
  return run_dir + "/" + spec_file;
}

std::string RunManifest::output_path(unsigned shard) const {
  return run_dir + "/" + shards.at(shard).output;
}

std::string RunManifest::log_path(unsigned shard) const {
  return run_dir + "/shard-" + std::to_string(shard) + ".log";
}

std::string RunManifest::baseline_path() const {
  return run_dir + "/baseline.json";
}

bool RunManifest::all_done() const noexcept {
  for (const ShardRecord& record : shards) {
    if (record.state != ShardState::kDone) return false;
  }
  return !shards.empty();
}

RunManifest make_manifest(std::string run_dir, const std::string& scenario,
                          unsigned shard_count, local::TrialRange trials) {
  RunManifest manifest;
  manifest.run_dir = std::move(run_dir);
  manifest.scenario = scenario;
  manifest.shard_count = shard_count;
  manifest.trial_begin = trials.begin;
  manifest.trial_end = trials.end;
  manifest.shards.resize(shard_count);
  for (unsigned shard = 0; shard < shard_count; ++shard) {
    manifest.shards[shard].shard = shard;
    manifest.shards[shard].output =
        "shard-" + std::to_string(shard) + ".json";
  }
  return manifest;
}

std::string manifest_to_json(const RunManifest& manifest) {
  std::ostringstream os;
  os << "{\"scenario\": \"" << util::json_escape(manifest.scenario)
     << "\", \"spec_file\": \"" << util::json_escape(manifest.spec_file)
     << "\", \"shard_count\": " << manifest.shard_count
     << ", \"trial_begin\": " << manifest.trial_begin
     << ", \"trial_end\": " << manifest.trial_end << ", \"shards\": [";
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    const ShardRecord& record = manifest.shards[i];
    if (i > 0) os << ", ";
    os << "{\"shard\": " << record.shard << ", \"state\": \""
       << to_string(record.state) << "\", \"attempts\": " << record.attempts
       << ", \"output\": \"" << util::json_escape(record.output)
       << "\", \"exit_code\": " << record.exit_code << ", \"error\": \""
       << util::json_escape(record.error) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

RunManifest manifest_from_json(const std::string& text,
                               std::string run_dir) {
  const scenario::Json root = scenario::Json::parse(text);
  RunManifest manifest;
  manifest.run_dir = std::move(run_dir);
  manifest.scenario = root.at("scenario").as_string();
  manifest.spec_file = root.at("spec_file").as_string();
  manifest.shard_count = as_unsigned(root.at("shard_count"), "shard_count");
  if (root.has("trial_begin")) {
    manifest.trial_begin = root.at("trial_begin").as_uint64();
  }
  if (root.has("trial_end")) {
    manifest.trial_end = root.at("trial_end").as_uint64();
  }
  if (manifest.trial_end < manifest.trial_begin) {
    throw std::runtime_error("manifest trial range [" +
                             std::to_string(manifest.trial_begin) + ", " +
                             std::to_string(manifest.trial_end) +
                             ") is inverted");
  }
  if (manifest.trial_end != 0) check_split(manifest);
  const scenario::Json::Array& shards = root.at("shards").as_array();
  if (shards.size() != manifest.shard_count) {
    throw std::runtime_error(
        "manifest lists " + std::to_string(shards.size()) + " shards but "
        "declares shard_count " + std::to_string(manifest.shard_count));
  }
  manifest.shards.resize(manifest.shard_count);
  std::set<unsigned> seen;
  for (const scenario::Json& shard_json : shards) {
    ShardRecord record;
    record.shard = as_unsigned(shard_json.at("shard"), "shard index");
    if (record.shard >= manifest.shard_count ||
        !seen.insert(record.shard).second) {
      throw std::runtime_error("manifest shard index " +
                               std::to_string(record.shard) +
                               " out of range or duplicated");
    }
    const std::string& state = shard_json.at("state").as_string();
    const std::optional<ShardState> parsed = shard_state_from_string(state);
    if (!parsed) {
      throw std::runtime_error("manifest shard state '" + state +
                               "' is not pending|running|done|failed");
    }
    record.state = *parsed;
    record.attempts = as_unsigned(shard_json.at("attempts"), "attempts");
    record.output = shard_json.at("output").as_string();
    if (shard_json.has("exit_code")) {
      record.exit_code = as_exit_code(shard_json.at("exit_code"));
    }
    if (shard_json.has("error")) {
      record.error = shard_json.at("error").as_string();
    }
    manifest.shards[record.shard] = record;
  }
  return manifest;
}

void save_manifest(const RunManifest& manifest) {
  const std::string error = util::write_file_atomic(
      manifest.manifest_path(), manifest_to_json(manifest));
  if (!error.empty()) {
    throw std::runtime_error("manifest save failed: " + error);
  }
}

RunManifest load_manifest(std::string run_dir) {
  const std::string path = run_dir + "/manifest.json";
  std::string text;
  if (!util::read_file(path, text).empty()) {
    throw std::runtime_error("no manifest at '" + path +
                             "' (not a run directory?)");
  }
  try {
    RunManifest manifest = manifest_from_json(text, std::move(run_dir));
    if (manifest.trial_end == 0) {
      // Written before manifests recorded their range: the run covers
      // every trial of its frozen spec.
      std::string spec_text;
      const std::string spec_error =
          util::read_file(manifest.spec_path(), spec_text);
      if (!spec_error.empty()) {
        throw std::runtime_error("no trial range, and " + spec_error);
      }
      manifest.trial_end = scenario::spec_from_json(spec_text).trials;
      check_split(manifest);
    }
    return manifest;
  } catch (const std::exception& ex) {
    throw std::runtime_error("corrupt manifest '" + path +
                             "': " + ex.what());
  }
}

}  // namespace lnc::orchestrate
