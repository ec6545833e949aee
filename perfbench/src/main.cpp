// perfbench — the liblnc benchmark program.
//
//   perfbench --workload <paper-suite|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]
//             [--corrupt-reference]
//
// Untraced (--trace 0): cuts the run into nine slices. Each slice sets
// the workload up three times, runs a ninth of --seconds of rounds on the
// last set-up, and checks every output of those rounds. Then prints the
// end-to-end metrics (setup_s sums, over the set-up's steps, each step's
// fastest process CPU seconds across the run's set-ups). Traced (--trace 1): the same, but every
// round is followed by a traced one (their CPU ratio is the tracing
// overhead); then runs the layer probes under the trace recorder and
// prints the per-layer metrics. Either way the last stdout line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A human-readable summary, including host steal, goes to stderr.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

/// A run is cut into slices of rounds; each slice begins with a few
/// set-ups in a row, the last of which the slice's rounds use.
constexpr unsigned kSlices = 9;
constexpr unsigned kSetupsPerSlice = 3;
/// peak_rss_mb is read after this many rounds (or at the end of a run
/// with fewer), so that memory which grows with the work done (the serve
/// tier interns every distinct spec's instances) is compared at equal
/// work, not at equal time.
constexpr std::size_t kRssRounds = 60;

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <paper-suite|serve-mix>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]"
               " [--tiny] [--corrupt-reference]\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper-suite") return make_paper_suite(options);
  if (options.workload == "serve-mix") return make_serve_mix(options);
  return nullptr;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) return usage("unknown workload " + options.workload);
  std::filesystem::create_directories(options.work_dir);
  const CpuTicks ticks_begin = read_cpu_ticks();

  // Set-ups are spread over the run's slices, so that they sample the
  // host across the whole run, as the rounds do (the host's speed drifts
  // over seconds). Only the rounds' wall time counts against --seconds.
  // Set-up is timed in process CPU, not wall time: the daemon's socket
  // waits and the clients' blocking are not set-up work. Every set-up
  // takes the same steps on fresh seeds, so each step counts its fastest
  // repetition.
  Report report;
  Timing setups(Reduce::kMin);
  Timing untraced(workload->round_reduce());
  Timing traced(workload->round_reduce());
  // The reference work runs before every round, so that it samples the
  // host as the rounds do; its fastest time says how fast the host ran.
  Timing reference(Reduce::kMin);
  std::uint64_t reference_checksum = 0;
  std::vector<double> setup_s;
  double units = 0.0;
  std::size_t rounds = 0;
  double rss_mb = 0.0;
  const unsigned slices = options.tiny ? 1u : kSlices;
  const unsigned setups_per_slice = options.tiny ? 1u : kSetupsPerSlice;
  const double seconds = options.tiny ? 0.05 : options.seconds;
  double round_wall_s = 0.0;
  for (unsigned slice = 0; slice < slices; ++slice) {
    for (unsigned k = 0; k < setups_per_slice; ++k) {
      if (k > 0) workload->teardown();
      const double setup_start = process_cpu_seconds();
      workload->setup(slice * setups_per_slice + k, setups);
      setup_s.push_back(process_cpu_seconds() - setup_start);
    }
    do {
      const double start = wall_seconds();
      reference.segment("reference",
                        [&] { reference_checksum = reference_work(); });
      units += workload->round(untraced);
      ++rounds;
      if (options.trace) {
        lnc::obs::TraceRecorder::instance().enable();
        workload->round(traced);
        lnc::obs::TraceRecorder::instance().disable();
      }
      if (rounds == kRssRounds) rss_mb = peak_rss_mb();
      round_wall_s += wall_seconds() - start;
    } while (round_wall_s < seconds * (slice + 1) / slices);
    workload->check(report);
    workload->teardown();
  }
  if (rounds < kRssRounds) rss_mb = peak_rss_mb();

  if (options.trace) {
    run_layer_probes(options, report);
    report.add("obs.trace_overhead",
               traced.cpu_s() / untraced.cpu_s(), "ratio");
  }
  const double steal = steal_fraction(ticks_begin, read_cpu_ticks());
  if (options.trace) {
    report.add("host.steal_frac", steal, "fraction");
    report.add("host.reference_ms", 1e3 * reference.cpu_s(), "ms");
  }

  // Time metrics are rescaled to the speed of the host the bounds were
  // set on: a host (or a stretch of minutes) on which the reference work
  // runs 10% slower has its times cut by 10%, and its rates raised.
  const double scale = kReferenceSeconds / reference.cpu_s();
  const double ops_per_s =
      units / static_cast<double>(rounds) / untraced.wall_s();
  if (!options.trace) {
    report.add("setup_s", scale * setups.cpu_s(), "s");
    report.add("cpu_s", scale * untraced.cpu_s(), "s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("ops_per_s", ops_per_s / scale, "1/s");
  }
  std::cerr << "perfbench: " << options.workload << " seed=" << options.seed
            << " setups=" << setup_s.size() << " rounds=" << rounds
            << " steal_frac=" << steal
            << " failed_frac="
            << static_cast<double>(report.failed) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, report.attempted))
            << " reference_s=" << reference.cpu_s()
            << " reference_checksum=" << reference_checksum
            << " unscaled: setup_cpu_s=" << setups.cpu_s()
            << " round_cpu_s=" << untraced.cpu_s()
            << " round_wall_s=" << untraced.wall_s()
            << " ops_per_s=" << ops_per_s << " setup_s=";
  for (const double s : setup_s) std::cerr << " " << s;
  std::cerr << "\n";
  std::cout << report.to_json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--corrupt-reference") {
        options.corrupt_reference = true;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (!have_workload) return usage("--workload is required");
  try {
    return perfbench::run(options);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 1;
  }
}
