// serve-mix: a seeded closed loop against serve::run_daemon running in
// this process on a Unix socket. Two connections each send blocks of
// line-JSON requests — 18 hits on a warm key set, one top-up (doubled
// `trials` on a key missed one block earlier) and one miss (a fresh n
// grid) — and block on every reply, as `lnc_serve` clients do. The
// daemon computes with one sweep thread. Every request asks for its
// preset's own trials (twice that for a top-up); the 90/5/5 split and
// the choice of presets are assumed, not observed traffic.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "workload.h"

namespace perfbench {

/// The daemon's query totals ({"op": "stats"}).
struct ServeCounts {
  std::uint64_t hits = 0;
  std::uint64_t topups = 0;
  std::uint64_t misses = 0;
  std::uint64_t trials_computed = 0;
  std::uint64_t trials_reused = 0;
};

class ServeMix final : public Workload {
 public:
  enum class Kind { kHit, kTopUp, kMiss };
  static constexpr int kConnections = 2;

  explicit ServeMix(const Options& options);
  ~ServeMix() override;
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  void setup(unsigned rep, Timing& timing) override;
  void teardown() override;
  /// Every block misses and tops up other grids than the last.
  Reduce round_reduce() const override { return Reduce::kMedian; }
  double round(Timing& timing) override;
  void check(Report& report) override;

  /// Latencies (ms) of every answered request of one kind so far.
  const std::vector<double>& latencies(Kind kind) const {
    return latency_ms_[static_cast<int>(kind)];
  }
  /// Requests of one kind sent during the current set-up's rounds.
  std::uint64_t sent(Kind kind) const {
    return sent_[static_cast<int>(kind)];
  }
  /// Daemon totals now, minus those when set-up finished.
  ServeCounts round_counts();
  /// Bytes of the responses to hits, one entry per hit.
  const std::vector<double>& hit_response_bytes() const {
    return hit_bytes_;
  }
  /// A request line that is a hit once set-up is done.
  std::string warm_hit_line() const;
  /// The directory the daemon's result store lives in.
  std::string store_dir() const;

 private:
  class Daemon;
  class Connection;
  struct Request {
    Kind kind = Kind::kHit;
    std::size_t key = 0;  ///< warm key index (hit) or miss index (others)
    std::string line;
  };
  struct Answer {
    Kind kind = Kind::kHit;
    std::size_t key = 0;
    std::string response;  ///< kept for hits (first of each) and top-ups
    std::size_t hash = 0;  ///< of the response (hits)
    bool ok = false;       ///< status ok and the expected cache outcome
  };

  struct Reply {
    Answer answer;
    double ms = 0.0;  ///< round trip
  };

  /// One connection's share of a round: sends `requests` in order, each
  /// after the previous reply.
  static void client_loop(Connection& connection,
                          const std::vector<Request>& requests,
                          std::vector<Reply>& replies,
                          std::exception_ptr& error);
  /// A traffic preset as shipped (trials cut in tiny mode).
  lnc::scenario::ScenarioSpec light_preset(std::size_t index) const;
  lnc::scenario::ScenarioSpec warm_spec(std::size_t key) const;
  lnc::scenario::ScenarioSpec miss_spec(std::size_t index) const;
  /// The top-up of the key miss_spec(index) created.
  lnc::scenario::ScenarioSpec topup_spec(std::size_t index) const;
  std::vector<Request> block(int connection, std::uint64_t index) const;
  ServeCounts query_counts();

  Options options_;
  /// The current set-up's number, mixed into every request's seed.
  unsigned rep_ = 0;

  std::string dir_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t rounds_ = 0;
  ServeCounts counts_at_setup_;

  std::vector<double> latency_ms_[3];
  std::uint64_t sent_[3] = {0, 0, 0};
  std::vector<double> hit_bytes_;
  std::vector<Answer> answers_;
  /// Hashes of hit responses already kept, per warm key.
  std::map<std::size_t, std::vector<std::size_t>> hit_hashes_;
};

}  // namespace perfbench
