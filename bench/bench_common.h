// Shared helpers for the experiment binaries: a standard preamble and the
// table printer. Each binary's main prints its reproduced tables.
//
// Machine-readable output: when LNC_BENCH_JSON_DIR is set, every printed
// table is also written as JSON to <dir>/TABLE_<experiment>_<k>.json — the
// trajectory files CI archives.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "local/telemetry.h"
#include "scenario/spec_json.h"
#include "util/table.h"

namespace lnc::bench {
namespace detail {

inline std::string& current_experiment() {
  static std::string name;
  return name;
}

/// Monotonic across the whole binary — NEVER reset per header. Two
/// experiments that slugify to the same name would otherwise restart the
/// numbering and overwrite each other's TABLE_*.json files.
inline int& table_index() {
  static int index = 0;
  return index;
}

inline std::string slugify(const std::string& text) {
  std::string slug;
  for (char ch : text) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug.empty() ? "experiment" : slug;
}

}  // namespace detail

inline void print_header(const std::string& experiment,
                         const std::string& paper_source,
                         const std::string& claim) {
  detail::current_experiment() = detail::slugify(experiment);
  std::cout << "\n=== " << experiment << " — " << paper_source << " ===\n"
            << claim << "\n\n";
}

/// Prints the table; when LNC_BENCH_JSON_DIR is set, the JSON file also
/// carries a `telemetry` object when one is supplied — the communication
/// volume behind the table's numbers (local/telemetry.h) — and an
/// `optimization` object naming the backend/tuning configuration the rows
/// ran under (local/vector_engine.h), so TABLE_*.json trajectories record
/// message/word volume and the producing backend next to the reproduced
/// values.
inline void print_table(const util::Table& table,
                        const local::Telemetry* telemetry = nullptr,
                        const local::OptimizationConfig* optimization =
                            nullptr) {
  table.print(std::cout);
  std::cout << '\n';
  if (const char* json_dir = std::getenv("LNC_BENCH_JSON_DIR")) {
    const std::string path = std::string(json_dir) + "/TABLE_" +
                             detail::current_experiment() + "_" +
                             std::to_string(detail::table_index()++) +
                             ".json";
    std::ofstream out(path);
    if (out) {
      std::string extra;
      if (telemetry != nullptr) {
        extra += "\"telemetry\": " + scenario::telemetry_to_json(*telemetry);
      }
      if (optimization != nullptr) {
        if (!extra.empty()) extra += ", ";
        extra += "\"optimization\": " +
                 scenario::optimization_to_json(*optimization);
      }
      table.print_json(out, extra);
    }
  }
}

/// Keeps a computed value alive so the optimizer cannot drop the timed
/// work that produced it.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

}  // namespace lnc::bench
