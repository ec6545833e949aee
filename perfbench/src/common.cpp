#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include "rand/splitmix.h"

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t reference_work() {
  // A random cycle through 2^18 slots (1 MB, within a core's L2 cache),
  // built with splitmix64 and Sattolo's shuffle, then walked: dependent
  // loads, like a traversal of the library's adjacency arrays.
  constexpr std::uint32_t kSlots = 1u << 18;
  constexpr int kSteps = 1500000;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    // splitmix64, written out so that it does not depend on the library.
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::swap(next[i], next[z % i]);
  }
  std::uint32_t at = 0;
  for (int step = 0; step < kSteps; ++step) at = next[at];
  return at;
}

CpuTicks read_cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user, so it is left out of the total.
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && (stat >> field); ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

double steal_fraction(const CpuTicks& begin, const CpuTicks& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return lnc::rand::mix_keys(a, b);
}

bool same_tally(const lnc::local::ShardTally& a,
                const lnc::local::ShardTally& b, std::string* field) {
  const auto differ = [&](const char* name) {
    if (field != nullptr) *field = name;
    return false;
  };
  if (a.trials != b.trials) return differ("trials");
  if (a.successes != b.successes) return differ("successes");
  if (!(a.value_sum == b.value_sum) || !(a.value_sum_sq == b.value_sum_sq)) {
    return differ("exact sums");
  }
  if (a.counts != b.counts) return differ("counts");
  if (!a.telemetry.deterministic_equal(b.telemetry)) {
    return differ("telemetry");
  }
  return true;
}

bool same_result(const lnc::scenario::SweepResult& a,
                 const lnc::scenario::SweepResult& b, std::string* why) {
  const auto differ = [&](const std::string& field) {
    if (why != nullptr) *why = a.scenario + ": " + field + " differs";
    return false;
  };
  if (a.scenario != b.scenario) return differ("scenario");
  if (a.base_seed != b.base_seed) return differ("base seed");
  if (a.workload != b.workload) return differ("workload");
  if (a.rows.size() != b.rows.size()) return differ("row count");
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    const std::string row = "row n=" + std::to_string(x.requested_n) + " ";
    if (x.requested_n != y.requested_n || x.actual_n != y.actual_n) {
      return differ(row + "n");
    }
    if (x.total_trials != y.total_trials) return differ(row + "trials");
    std::string field;
    if (!same_tally(x.tally, y.tally, &field)) return differ(row + field);
  }
  return true;
}

void corrupt(lnc::scenario::SweepResult& result) {
  for (auto& row : result.rows) row.tally.telemetry.messages_sent += 1;
}

std::uint64_t result_trials(const lnc::scenario::SweepResult& result) {
  std::uint64_t trials = 0;
  for (const auto& row : result.rows) trials += row.tally.trials;
  return trials;
}

}  // namespace perfbench
