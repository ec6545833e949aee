// Shared plumbing of the benchmark program: clocks, host counters, order
// statistics, the result report, and the deterministic-result comparison
// every correctness check goes through.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/sweep.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest inputs and a fraction of a second of timing: the self-test
  /// mode, which checks the report's shape, not its numbers.
  bool tiny = false;
  /// Perturbs every correctness reference after it is computed, so each
  /// check must fail (the self-test's proof that the checks can fail).
  bool corrupt_reference = false;
  /// Scratch space for cache stores, sockets and traces (relative paths
  /// resolve against the working directory).
  std::string work_dir = ".bench_build/work";
};

// ---------------------------------------------------------------- clocks --

double wall_seconds();
/// CPU seconds of the whole process (all threads). Unlike wall time it
/// does not grow while a hypervisor runs other guests on our vCPUs.
double process_cpu_seconds();
double thread_cpu_seconds();
/// High-water resident set of the process so far, in MB (VmHWM).
double peak_rss_mb();

/// A fixed piece of work that calls nothing in liblnc, so that no change
/// to the library can speed it up: a random permutation of 1 MB built and
/// then walked. Timed beside the workload, it measures how fast the host
/// runs at the moment. Returns where the walk ended.
std::uint64_t reference_work();
/// The fastest time of reference_work() over 30 s runs on the host the
/// bounds were set on (a 4-vCPU cloud VM, Intel Xeon, gcc 12, Release).
/// Time metrics are rescaled by it to that host's speed.
constexpr double kReferenceSeconds = 0.0135;

/// Aggregate /proc/stat jiffies: steal and the total of all states.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of host CPU time stolen between two readings (0 when unknown).
double steal_fraction(const CpuTicks& begin, const CpuTicks& end);

// ------------------------------------------------------- order statistics --

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation, failed when `ok` is false; a failure
  /// is also described on stderr.
  void check(bool ok, const std::string& what);
  std::string to_json() const;
};

// ------------------------------------------------------------ reproducing --

/// Splitmix-style key mixing (the library's own), used to derive every
/// input of a run from its workload seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Equality of everything a tally promises to reproduce bit for bit:
/// trials, successes, exact sums, counter slots and the deterministic
/// telemetry counters. On a mismatch `field` names the first that
/// differs.
bool same_tally(const lnc::local::ShardTally& a,
                const lnc::local::ShardTally& b, std::string* field = nullptr);

/// same_tally over every row of two sweep results, which must also agree
/// in scenario, seed, workload and grid. Timing fields are ignored. On a
/// mismatch `why` names the first differing field.
bool same_result(const lnc::scenario::SweepResult& a,
                 const lnc::scenario::SweepResult& b, std::string* why);

/// Damages a reference result so that no correct result can equal it.
void corrupt(lnc::scenario::SweepResult& result);

/// Trials in a (complete) sweep result, summed over its grid points.
std::uint64_t result_trials(const lnc::scenario::SweepResult& result);

}  // namespace perfbench
