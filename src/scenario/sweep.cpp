#include "scenario/sweep.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/spec_json.h"
#include "util/assert.h"
#include "util/build_info.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace lnc::scenario {

SweepResult run_sweep(const CompiledScenario& scenario,
                      const SweepOptions& options) {
  const local::TrialRange range = options.trial_range.value_or(
      local::TrialRange{0, scenario.spec().trials});
  LNC_EXPECTS(range.begin <= range.end &&
              range.end <= scenario.spec().trials &&
              "trial range outside [0, trials)");
  SweepResult result;
  result.scenario = scenario.spec().name;
  result.base_seed = scenario.spec().base_seed;
  result.workload = scenario.spec().workload;
  result.backend = scenario.spec().backend;
  // Every grid point shares the spec's trial count, so the slice is
  // uniform across rows and is the result's extent.
  result.trial_begin = range.begin;
  result.trial_end = range.end;

  local::BatchRunner runner(options.pool);
  runner.set_progress(options.progress);
  result.rows.reserve(scenario.points().size());
  const obs::Span sweep_span("sweep",
                             obs::span_args("scenario", result.scenario));
  for (const CompiledScenario::GridPoint& point : scenario.points()) {
    SweepRow row;
    row.requested_n = point.requested_n;
    row.actual_n = point.instance->node_count();
    row.total_trials = point.plan.trials;
    {
      // True elapsed wall-clock per grid point (one measurement, NOT the
      // per-trial sum telemetry.wall_seconds accumulates) plus the row's
      // trace span. Timing-only observability.
      const obs::Span row_span("row", obs::span_args("n", row.requested_n));
      const util::Timer row_timer;
      row.tally = runner.run_shard(point.plan, range);
      row.elapsed_seconds = row_timer.elapsed_seconds();
    }
    result.metrics.merge(runner.last_metrics());
    result.rows.push_back(row);
  }
  return result;
}

namespace {

/// The parts' indices in merge order: by trial_begin, empty ranges first
/// among parts that start at the same trial.
std::vector<std::size_t> range_order(std::span<const SweepResult> parts) {
  std::vector<std::size_t> order(parts.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::pair(parts[a].trial_begin, parts[a].trial_end) <
           std::pair(parts[b].trial_begin, parts[b].trial_end);
  });
  return order;
}

std::string range_text(std::uint64_t begin, std::uint64_t end) {
  return std::string("[") + std::to_string(begin) + ", " +
         std::to_string(end) + ")";
}

}  // namespace

std::string can_merge_trial_ranges(std::span<const SweepResult> parts) {
  if (parts.empty()) return "no range partitions to merge";
  const SweepResult& first = parts[0];
  // Per row, the counter width of the first part that carries counters.
  std::vector<std::size_t> widths(first.rows.size(), 0);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const SweepResult& part = parts[s];
    const std::string name = "part " + std::to_string(s) + " " +
                             range_text(part.trial_begin, part.trial_end);
    if (part.scenario != first.scenario ||
        part.base_seed != first.base_seed ||
        part.rows.size() != first.rows.size()) {
      return "range partitions come from different scenario runs ('" +
             part.scenario + "' vs '" + first.scenario + "')";
    }
    if (part.workload != first.workload) {
      return std::string("range partitions tally different workloads (") +
             local::to_string(part.workload) + " vs " +
             local::to_string(first.workload) + ")";
    }
    if (part.trial_end < part.trial_begin) {
      return name + " has an inverted range";
    }
    if (part.trial_begin == 0 && part.trial_end == 0 && !part.rows.empty() &&
        part.rows[0].tally.trials != 0) {
      return "part " + std::to_string(s) +
             " does not declare its trial range (file written by a "
             "pre-range binary generation?)";
    }
    const std::uint64_t extent = part.trial_end - part.trial_begin;
    for (std::size_t i = 0; i < part.rows.size(); ++i) {
      const SweepRow& row = part.rows[i];
      if (row.requested_n != first.rows[i].requested_n) {
        return "range partitions disagree on the n-grid";
      }
      if (row.tally.trials != extent) {
        return name + " tallies " + std::to_string(row.tally.trials) +
               " trials at n = " + std::to_string(row.requested_n);
      }
      if (!row.tally.counts.empty()) {
        if (widths[i] == 0) widths[i] = row.tally.counts.size();
        if (row.tally.counts.size() != widths[i]) {
          return "range partitions carry counter rows of different "
                 "widths (" +
                 std::to_string(row.tally.counts.size()) + " vs " +
                 std::to_string(widths[i]) + " slots at n = " +
                 std::to_string(row.requested_n) + ")";
        }
      }
    }
  }
  const std::vector<std::size_t> order = range_order(parts);
  std::uint64_t covered = 0;
  for (const std::size_t s : order) {
    const SweepResult& part = parts[s];
    if (part.trial_begin < covered) {
      return "part " + std::to_string(s) + " " +
             range_text(part.trial_begin, part.trial_end) +
             " overlaps trials already covered up to " +
             std::to_string(covered) + " (a part given twice?)";
    }
    if (part.trial_begin > covered) {
      return "trials " + range_text(covered, part.trial_begin) +
             " are covered by no part (a missing part?)";
    }
    covered = part.trial_end;
  }
  for (const SweepRow& row : parts[order.back()].rows) {
    if (row.total_trials != covered) {
      return "the parts cover trials " + range_text(0, covered) +
             " of the " + std::to_string(row.total_trials) +
             " the last part's run declares at n = " +
             std::to_string(row.requested_n) + " (a missing last part?)";
    }
  }
  return {};
}

SweepResult merge_trial_ranges(std::span<const SweepResult> parts) {
  LNC_EXPECTS(!parts.empty());
  LNC_EXPECTS(can_merge_trial_ranges(parts).empty() &&
              "merging range partitions that do not abut");
  const std::vector<std::size_t> order = range_order(parts);
  const SweepResult& first = parts[order.front()];
  SweepResult merged;
  merged.scenario = first.scenario;
  merged.base_seed = first.base_seed;
  merged.workload = first.workload;
  merged.backend = first.backend;
  merged.rows = first.rows;
  merged.metrics = first.metrics;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const SweepResult& part = parts[order[k]];
    merged.metrics.merge(part.metrics);
    for (std::size_t i = 0; i < merged.rows.size(); ++i) {
      SweepRow& row = merged.rows[i];
      const SweepRow& other = part.rows[i];
      row.tally.successes += other.tally.successes;
      row.tally.trials += other.tally.trials;
      // ExactSum merge is exact: the result equals a single run over the
      // union range bit for bit.
      row.tally.value_sum.merge(other.tally.value_sum);
      row.tally.value_sum_sq.merge(other.tally.value_sum_sq);
      if (!other.tally.counts.empty()) {
        if (row.tally.counts.empty()) {
          row.tally.counts.assign(other.tally.counts.size(), 0);
        }
        LNC_EXPECTS(row.tally.counts.size() == other.tally.counts.size() &&
                    "merging counter rows of different widths");
        for (std::size_t j = 0; j < row.tally.counts.size(); ++j) {
          row.tally.counts[j] += other.tally.counts[j];
        }
      }
      row.tally.telemetry.merge(other.tally.telemetry);
      // Machine-time across the fleet: the merged row's elapsed seconds
      // is the sum of each part's true wall-clock.
      row.elapsed_seconds += other.elapsed_seconds;
    }
  }
  merged.trial_begin = 0;
  merged.trial_end = parts[order.back()].trial_end;
  for (SweepRow& row : merged.rows) {
    // The merged result is a complete run at the union's trial count —
    // the parts' own totals (a cached run at T' carries T', its top-up
    // carries T) are superseded.
    row.total_trials = merged.trial_end;
    LNC_EXPECTS(row.tally.trials == row.total_trials &&
                "merged range partitions do not cover [0, total)");
  }
  return merged;
}

stats::Estimate row_estimate(const SweepRow& row) {
  LNC_EXPECTS(row.tally.trials == row.total_trials &&
              "estimate of an incomplete (sharded) row");
  const local::ShardTally tallies[] = {row.tally};
  return local::merge_tallies(tallies);
}

stats::MeanEstimate row_mean(const SweepRow& row) {
  LNC_EXPECTS(row.tally.trials == row.total_trials &&
              "mean of an incomplete (sharded) row");
  return stats::finalize_mean_exact(row.tally.value_sum,
                                    row.tally.value_sum_sq,
                                    row.tally.trials);
}

local::Telemetry result_telemetry(const SweepResult& result) {
  local::Telemetry merged;
  for (const SweepRow& row : result.rows) merged.merge(row.tally.telemetry);
  return merged;
}

namespace {

void add_telemetry_cells(util::Table& table, const SweepRow& row) {
  table.add_cell(row.tally.telemetry.messages_sent)
      .add_cell(row.tally.telemetry.words_sent)
      .add_cell(row.tally.telemetry.rounds_executed)
      .add_cell(row.tally.telemetry.ball_expansions);
}

std::uint64_t row_count_sum(const SweepRow& row) {
  std::uint64_t sum = 0;
  for (const std::uint64_t count : row.tally.counts) sum += count;
  return sum;
}

/// Full round-trip precision — the form the grep-stable summary lines and
/// the JSON sum fields use, so textual equality implies bit equality.
std::string format_exact(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// The tally column(s) of one row, headed per workload.
void add_workload_headers(std::vector<std::string>& headers,
                          local::WorkloadKind workload, bool complete) {
  switch (workload) {
    case local::WorkloadKind::kSuccess:
      if (complete) {
        headers.insert(headers.end(),
                       {"successes", "p_hat", "ci lo", "ci hi"});
      } else {
        headers.push_back("shard successes");
      }
      break;
    case local::WorkloadKind::kValue:
      if (complete) {
        headers.insert(headers.end(), {"mean", "stddev"});
      } else {
        headers.push_back("shard sum");
      }
      break;
    case local::WorkloadKind::kCounter:
      if (complete) {
        headers.insert(headers.end(), {"count", "mean/trial"});
      } else {
        headers.push_back("shard count");
      }
      break;
  }
}

void add_workload_cells(util::Table& table, const SweepRow& row,
                        local::WorkloadKind workload, bool complete) {
  switch (workload) {
    case local::WorkloadKind::kSuccess:
      if (complete) {
        const stats::Estimate estimate = row_estimate(row);
        table.add_cell(row.tally.successes)
            .add_cell(estimate.p_hat, 4)
            .add_cell(estimate.ci.lo, 4)
            .add_cell(estimate.ci.hi, 4);
      } else {
        table.add_cell(row.tally.successes);
      }
      break;
    case local::WorkloadKind::kValue:
      if (complete) {
        const stats::MeanEstimate mean = row_mean(row);
        table.add_cell(mean.mean, 4).add_cell(mean.stddev, 4);
      } else {
        table.add_cell(row.tally.value_sum.value(), 4);
      }
      break;
    case local::WorkloadKind::kCounter: {
      const std::uint64_t sum = row_count_sum(row);
      table.add_cell(sum);
      if (complete) {
        table.add_cell(row.tally.trials == 0
                           ? 0.0
                           : static_cast<double>(sum) /
                                 static_cast<double>(row.tally.trials),
                       4);
      }
      break;
    }
  }
}

}  // namespace

util::Table to_table(const SweepResult& result, bool with_telemetry) {
  // Only the deterministic counters appear as columns — the table stays
  // diffable across thread counts and shard layouts; timing lives in the
  // JSON telemetry block and the CLI's `timing:` line.
  const std::vector<std::string> telemetry_headers = {"msgs", "words",
                                                      "rounds", "balls"};
  const bool complete = result.complete();
  std::vector<std::string> headers = {"n", "actual n"};
  headers.push_back(complete ? "trials" : "shard trials");
  add_workload_headers(headers, result.workload, complete);
  if (!complete) headers.push_back("of total");
  if (with_telemetry) {
    headers.insert(headers.end(), telemetry_headers.begin(),
                   telemetry_headers.end());
  }
  util::Table table(std::move(headers));
  for (const SweepRow& row : result.rows) {
    table.new_row()
        .add_cell(row.requested_n)
        .add_cell(row.actual_n)
        .add_cell(row.tally.trials);
    add_workload_cells(table, row, result.workload, complete);
    if (!complete) table.add_cell(row.total_trials);
    if (with_telemetry) add_telemetry_cells(table, row);
  }
  return table;
}

std::vector<std::string> summary_lines(const SweepResult& result) {
  std::vector<std::string> lines;
  if (!result.complete() ||
      result.workload == local::WorkloadKind::kSuccess) {
    return lines;
  }
  for (const SweepRow& row : result.rows) {
    const std::string where =
        result.scenario + "/n" + std::to_string(row.requested_n);
    if (result.workload == local::WorkloadKind::kValue) {
      const stats::MeanEstimate mean = row_mean(row);
      lines.push_back("value[" + where + "]: mean=" +
                      format_exact(mean.mean) + " stddev=" +
                      format_exact(mean.stddev) + " trials=" +
                      std::to_string(mean.trials));
    } else {
      const std::uint64_t sum = row_count_sum(row);
      const double mean =
          row.tally.trials == 0
              ? 0.0
              : static_cast<double>(sum) /
                    static_cast<double>(row.tally.trials);
      lines.push_back("counter[" + where + "]: sum=" + std::to_string(sum) +
                      " mean=" + format_exact(mean) + " trials=" +
                      std::to_string(row.tally.trials));
    }
  }
  return lines;
}

void write_json(std::ostream& os, const SweepResult& result) {
  os << "{\"scenario\": \"" << util::json_escape(result.scenario)
     << "\", \"base_seed\": " << result.base_seed << ", \"workload\": \""
     << local::to_string(result.workload) << "\", \"backend\": \""
     << local::to_string(result.backend)
     << "\", \"trial_begin\": " << result.trial_begin
     << ", \"trial_end\": " << result.trial_end
     << ", \"seed_stream_epoch\": " << util::seed_stream_epoch()
     << ", \"build_rev\": \"" << util::json_escape(util::build_rev())
     << "\", \"rows\": [";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const SweepRow& row = result.rows[i];
    if (i > 0) os << ", ";
    os << "{\"n\": " << row.requested_n << ", \"actual_n\": " << row.actual_n
       << ", \"total_trials\": " << row.total_trials
       << ", \"trials\": " << row.tally.trials
       << ", \"successes\": " << row.tally.successes;
    if (result.workload == local::WorkloadKind::kValue) {
      // sum/sum_sq are the human-readable rounded views; the exact hex
      // words are what cross-process merges actually accumulate.
      os << ", \"values\": {\"sum\": "
         << format_exact(row.tally.value_sum.value()) << ", \"sum_sq\": "
         << format_exact(row.tally.value_sum_sq.value())
         << ", \"exact_sum\": \"" << row.tally.value_sum.to_hex()
         << "\", \"exact_sum_sq\": \"" << row.tally.value_sum_sq.to_hex()
         << "\"}";
    }
    if (result.workload == local::WorkloadKind::kCounter) {
      os << ", \"counts\": [";
      for (std::size_t j = 0; j < row.tally.counts.size(); ++j) {
        if (j > 0) os << ", ";
        os << row.tally.counts[j];
      }
      os << "]";
    }
    os << ", \"telemetry\": " << telemetry_to_json(row.tally.telemetry)
       << ", \"elapsed_seconds\": " << format_exact(row.elapsed_seconds)
       << "}";
  }
  os << "]";
  if (!result.metrics.empty()) {
    // Optional observability block (lnc_sweep --trace): timing
    // histograms merged across workers. Machine-dependent by nature;
    // every determinism gate ignores it.
    os << ", \"metrics\": " << result.metrics.to_json();
  }
  os << "}\n";
}

SweepResult sweep_from_json(const std::string& text,
                            std::vector<std::string>* warnings) {
  return sweep_from_json(Json::parse(text), warnings);
}

SweepResult sweep_from_json(const Json& root,
                            std::vector<std::string>* warnings) {
  // Deduplicated by (where, key): a 50-row shard file with one foreign
  // row key warns once, not 50 times.
  std::set<std::pair<std::string, std::string>> warned;
  auto warn_unknown = [&](const Json::Object& object,
                          std::initializer_list<const char*> known,
                          const std::string& where) {
    if (warnings == nullptr) return;
    for (const auto& [key, value] : object) {
      (void)value;
      bool recognized = false;
      for (const char* name : known) recognized |= key == name;
      if (!recognized && warned.emplace(where, key).second) {
        warnings->push_back("unrecognized " + where + " key '" + key +
                            "' (shard file written by a different "
                            "lnc_sweep generation?)");
      }
    }
  };
  // Older writers emitted an i-of-k shard identity next to the range;
  // its two keys are known, and ignored.
  warn_unknown(root.as_object(),
               {"scenario", "base_seed", "shard", "shard_count", "workload",
                "backend", "trial_begin", "trial_end", "seed_stream_epoch",
                "build_rev", "rows", "metrics"},
               "top-level");
  SweepResult result;
  result.scenario = root.at("scenario").as_string();
  result.base_seed = root.at("base_seed").as_uint64();
  if (root.has("trial_begin")) {
    result.trial_begin = root.at("trial_begin").as_uint64();
  }
  if (root.has("trial_end")) {
    result.trial_end = root.at("trial_end").as_uint64();
  }
  if (result.trial_end < result.trial_begin) {
    throw std::runtime_error("result trial range " +
                             range_text(result.trial_begin,
                                        result.trial_end) +
                             " is inverted");
  }
  if (warnings != nullptr && root.has("seed_stream_epoch")) {
    const std::uint64_t epoch = root.at("seed_stream_epoch").as_uint64();
    if (epoch != util::seed_stream_epoch()) {
      warnings->push_back(
          "result file was written at seed-stream epoch " +
          std::to_string(epoch) + " but this binary is at epoch " +
          std::to_string(util::seed_stream_epoch()) +
          " — its trial streams are NOT mergeable with fresh runs");
    }
  }
  if (root.has("workload")) {
    // Absent in files written by success-only binary generations.
    const std::string& workload = root.at("workload").as_string();
    const std::optional<local::WorkloadKind> kind =
        local::workload_from_string(workload);
    if (!kind) {
      throw std::runtime_error("shard file 'workload' must be " +
                               local::kWorkloadNames.choices() + ", got '" +
                               workload + "'");
    }
    result.workload = *kind;
  }
  if (root.has("backend")) {
    // Absent in files written by pre-backend binary generations.
    const std::string& backend = root.at("backend").as_string();
    const std::optional<local::OptimizationConfig::Backend> parsed =
        local::backend_from_string(backend);
    if (!parsed) {
      throw std::runtime_error("shard file 'backend' must be " +
                               local::kBackendNames.choices() + ", got '" +
                               backend + "'");
    }
    result.backend = *parsed;
  }
  for (const Json& row_json : root.at("rows").as_array()) {
    warn_unknown(row_json.as_object(),
                 {"n", "actual_n", "total_trials", "trials", "successes",
                  "values", "counts", "telemetry", "elapsed_seconds"},
                 "row");
    SweepRow row;
    row.requested_n = row_json.at("n").as_uint64();
    row.actual_n = row_json.at("actual_n").as_uint64();
    row.total_trials = row_json.at("total_trials").as_uint64();
    row.tally.trials = row_json.at("trials").as_uint64();
    row.tally.successes = row_json.at("successes").as_uint64();
    if (row.tally.trials > row.total_trials) {
      throw std::runtime_error(
          "row n = " + std::to_string(row.requested_n) + " tallies " +
          std::to_string(row.tally.trials) + " trials of a " +
          std::to_string(row.total_trials) + "-trial run");
    }
    if (row.tally.successes > row.tally.trials) {
      throw std::runtime_error(
          "row n = " + std::to_string(row.requested_n) + " counts " +
          std::to_string(row.tally.successes) + " successes in " +
          std::to_string(row.tally.trials) + " trials");
    }
    if (row_json.has("values")) {
      const Json& values = row_json.at("values");
      warn_unknown(values.as_object(),
                   {"sum", "sum_sq", "exact_sum", "exact_sum_sq"},
                   "values-block");
      // The exact hex words are authoritative; the rounded doubles are a
      // fallback for hand-written files (exactness then only holds for
      // sums that are representable, e.g. small integers).
      if (values.has("exact_sum")) {
        row.tally.value_sum =
            stats::ExactSum::from_hex(values.at("exact_sum").as_string());
      } else if (values.has("sum")) {
        row.tally.value_sum.add(values.at("sum").as_number());
      }
      if (values.has("exact_sum_sq")) {
        row.tally.value_sum_sq =
            stats::ExactSum::from_hex(values.at("exact_sum_sq").as_string());
      } else if (values.has("sum_sq")) {
        row.tally.value_sum_sq.add(values.at("sum_sq").as_number());
      }
    }
    if (row_json.has("counts")) {
      for (const Json& count : row_json.at("counts").as_array()) {
        row.tally.counts.push_back(count.as_uint64());
      }
    }
    if (row_json.has("telemetry")) {
      row.tally.telemetry = telemetry_from_json(row_json.at("telemetry"));
    }
    if (row_json.has("elapsed_seconds")) {
      row.elapsed_seconds = row_json.at("elapsed_seconds").as_number();
    }
    result.rows.push_back(row);
  }
  if (root.has("metrics")) {
    result.metrics = obs::MetricsRegistry::from_json(
        root.at("metrics"), "metrics", warnings);
  }
  if (!root.has("trial_begin") && !root.has("trial_end") &&
      !result.rows.empty()) {
    // Pre-range files carry no extent; a complete one provably covers
    // [0, total). Partial legacy files stay 0/0 (unknown) — the range
    // merge rejects them with a diagnostic rather than guessing.
    result.trial_end = result.rows[0].total_trials;
    if (!result.complete()) result.trial_end = 0;
  }
  return result;
}

std::string write_json_file(const std::string& path,
                            const SweepResult& result) {
  std::ostringstream os;
  write_json(os, result);
  return util::write_file_atomic(path, os.str());
}

SweepResult merge_sweep_files(std::span<const std::string> paths,
                              std::vector<std::string>* warnings) {
  if (paths.empty()) {
    throw std::runtime_error("no shard result files to merge");
  }
  std::vector<SweepResult> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string text;
    const std::string read_error = util::read_file(path, text);
    if (!read_error.empty()) {
      throw std::runtime_error("shard result: " + read_error);
    }
    std::vector<std::string> file_warnings;
    try {
      shards.push_back(sweep_from_json(
          text, warnings != nullptr ? &file_warnings : nullptr));
    } catch (const std::exception& ex) {
      throw std::runtime_error("shard result '" + path +
                               "': " + ex.what());
    }
    if (warnings != nullptr) {
      for (const std::string& warning : file_warnings) {
        warnings->push_back(path + ": " + warning);
      }
    }
  }
  if (warnings != nullptr) {
    // Mixed backends still merge bit-identically (that contract is what
    // tests/vector_engine_test.cpp asserts), so a mismatch is a warning,
    // not a merge failure — but a fleet silently running half batched
    // and half vectorized is worth surfacing.
    for (std::size_t s = 1; s < shards.size(); ++s) {
      if (shards[s].backend != shards[0].backend) {
        warnings->push_back(
            std::string("shard files were produced under different "
                        "backends (") +
            local::to_string(shards[0].backend) + " vs " +
            local::to_string(shards[s].backend) +
            "); tallies still merge bit-identically");
        break;
      }
    }
  }
  const std::string error = can_merge_trial_ranges(shards);
  if (!error.empty()) {
    throw std::runtime_error("cannot merge shard results: " + error);
  }
  return merge_trial_ranges(shards);
}

}  // namespace lnc::scenario
