// The benchmark's workloads and the traced layer probes.
//
// A run sets a workload up several times. Each set-up is followed by its
// share of the run's rounds of timed work, and then by a check of those
// rounds' outputs against references computed outside the timed phase.
// Set-ups and rounds are both timed as fixed sequences of segments
// (Timing).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// How the repetitions of one segment reduce to one figure.
enum class Reduce {
  /// The fastest repetition. For segments that repeat the same work: the
  /// host's noise (shared caches and memory, steal) only ever adds time,
  /// so the fastest repetition is the one it disturbed least.
  kMin,
  /// The median repetition, for segments whose work differs from one
  /// repetition to the next, where the fastest would just be the
  /// cheapest work.
  kMedian,
};

/// The record of a repeated, timed phase (set-ups or rounds). A
/// repetition is a fixed sequence of segments — the same keys in the
/// same order every time — and each segment's process CPU and wall time
/// is kept per key. A repetition's cost is then the sum over keys of each
/// key's reduced figure (Reduce): a slow stretch of the host that hits
/// some repetitions moves it little, and every segment keeps its weight.
class Timing {
 public:
  explicit Timing(Reduce reduce = Reduce::kMedian) : reduce_(reduce) {}

  /// Runs `fn` as the segment `key`, timing it.
  template <typename Fn>
  void segment(const std::string& key, Fn&& fn) {
    const double cpu = process_cpu_seconds();
    const double wall = wall_seconds();
    fn();
    wall_s_[key].push_back(wall_seconds() - wall);
    cpu_s_[key].push_back(process_cpu_seconds() - cpu);
  }
  double cpu_s() const { return sum_reduced(cpu_s_); }
  double wall_s() const { return sum_reduced(wall_s_); }

 private:
  double sum_reduced(
      const std::map<std::string, std::vector<double>>& samples) const {
    double sum = 0.0;
    for (const auto& [key, values] : samples) {
      sum += reduce_ == Reduce::kMin
                 ? *std::min_element(values.begin(), values.end())
                 : median(values);
    }
    return sum;
  }

  Reduce reduce_;
  std::map<std::string, std::vector<double>> cpu_s_;
  std::map<std::string, std::vector<double>> wall_s_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what the timed phase needs, replacing any earlier set-up,
  /// timing its steps as segments of `timing`. `rep` numbers the
  /// repeated set-ups of one run.
  virtual void setup(unsigned rep, Timing& timing) = 0;

  /// Releases what setup() built before the next set-up; not timed.
  virtual void teardown() {}

  /// How each segment of a round reduces over the run's rounds.
  virtual Reduce round_reduce() const = 0;

  /// One round of timed work, recorded into `timing`. Returns the units
  /// of work a round completes (the numerator of ops_per_s); every round
  /// does the same work.
  virtual double round(Timing& timing) = 0;

  /// Checks every output the rounds since set-up produced (outside the
  /// timed phase).
  virtual void check(Report& report) = 0;
};

std::unique_ptr<Workload> make_paper_suite(const Options& options);
std::unique_ptr<Workload> make_serve_mix(const Options& options);

/// Runs every layer probe under the trace recorder, writes the Chrome
/// trace next to the run's other scratch files, reduces it, and adds one
/// per-layer metric per probe to `report` (its checks count there too).
void run_layer_probes(const Options& options, Report& report);

}  // namespace perfbench
