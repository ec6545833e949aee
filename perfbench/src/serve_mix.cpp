#include "serve_mix.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "scenario/presets.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/daemon.h"
#include "stats/threadpool.h"

namespace perfbench {
namespace {

using lnc::scenario::ScenarioSpec;

/// The traffic's presets: ring presets whose sweeps, at their own grid
/// and trials, take tens of milliseconds at one thread. Which presets a
/// serving tier's clients ask for is an assumption of this benchmark,
/// like the mix itself; the warm key set is these presets as shipped.
constexpr const char* kLightPresets[] = {"ring-amos-yes", "ring-amos-no",
                                         "ring-amos-drop",
                                         "hard-ring-resilient-coloring"};
constexpr std::size_t kLightCount = 4;
constexpr std::size_t kWarmKeys = kLightCount;
/// A block of 20 requests is 18 hits, 1 top-up and 1 miss: the assumed
/// 90/5/5 split.
constexpr int kHitsPerBlock = 18;
/// A miss raises each n of its preset's grid by an offset in [1, 32]
/// (the first and second n independently): 1024 fresh grids per preset,
/// none equal to a warm grid.
constexpr std::uint64_t kMissKeySpace = 1024 * kLightCount;

std::string request_line(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "{\"scenario\": \"" << spec.name << "\", \"trials\": " << spec.trials
     << ", \"seed\": " << spec.base_seed << ", \"n\": [";
  for (std::size_t i = 0; i < spec.n_grid.size(); ++i) {
    os << (i == 0 ? "" : ", ") << spec.n_grid[i];
  }
  os << "]}";
  return os.str();
}

const char* outcome_name(ServeMix::Kind kind) {
  switch (kind) {
    case ServeMix::Kind::kHit: return "hit";
    case ServeMix::Kind::kTopUp: return "topup";
    case ServeMix::Kind::kMiss: return "miss";
  }
  return "";
}

/// True when the response line is status ok with the expected cache
/// outcome — read off the line's head, without parsing the result.
bool answered_as(const std::string& response, ServeMix::Kind kind) {
  if (response.rfind("{\"status\": \"ok\"", 0) != 0) return false;
  const std::string tag =
      std::string("\"outcome\": \"") + outcome_name(kind) + "\"";
  return response.find(tag) != std::string::npos;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------------ daemon --

/// serve::run_daemon on its own thread. run_daemon stops on SIGTERM
/// through its own handler and process-wide stop flag, so at most one
/// Daemon may run at a time. stop() raises SIGTERM while that handler is
/// installed, until the loop has exited, then restores the defaults.
class ServeMix::Daemon {
 public:
  Daemon(const std::string& socket_path, const std::string& cache_dir) {
    lnc::serve::DaemonOptions options;
    options.socket_path = socket_path;
    options.cache_dir = cache_dir;
    options.threads = 1;
    thread_ = std::thread([this, options] {
      std::string error;
      try {
        if (lnc::serve::run_daemon(options, &error) != 0) {
          std::cerr << "perfbench: daemon failed: " << error << "\n";
        }
      } catch (const std::exception& ex) {
        std::cerr << "perfbench: daemon failed: " << ex.what() << "\n";
      }
      done_.store(true);
    });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    while (!done_.load()) {
      struct sigaction current {};
      ::sigaction(SIGTERM, nullptr, &current);
      if (current.sa_handler != SIG_DFL && current.sa_handler != SIG_IGN) {
        std::raise(SIGTERM);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    thread_.join();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// -------------------------------------------------------------- connection --

/// One persistent client connection: a request line out, a response
/// line back.
class ServeMix::Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const double deadline = wall_seconds() + 30.0;
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr)) == 0) {
        return;
      }
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      if (wall_seconds() > deadline) {
        throw std::runtime_error("cannot connect to " + socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string request(const std::string& line) {
    if (!write_all(fd_, line + "\n")) {
      throw std::runtime_error("send to the daemon failed");
    }
    char chunk[1 << 16];
    std::size_t newline = buffer_.find('\n');
    while (newline == std::string::npos) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("the daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
      newline = buffer_.find('\n');
    }
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// ---------------------------------------------------------------- workload --

ServeMix::ServeMix(const Options& options) : options_(options) {}

ServeMix::~ServeMix() { teardown(); }

ScenarioSpec ServeMix::light_preset(std::size_t index) const {
  ScenarioSpec spec = *lnc::scenario::find_preset(kLightPresets[index]);
  if (options_.tiny) {
    spec.trials = std::max<std::uint64_t>(1, spec.trials / 50);
  }
  return spec;
}

ScenarioSpec ServeMix::warm_spec(std::size_t key) const {
  ScenarioSpec spec = light_preset(key);
  spec.base_seed = mix(mix(options_.seed, rep_), key);
  return spec;
}

ScenarioSpec ServeMix::miss_spec(std::size_t index) const {
  if (index >= kMissKeySpace) {
    throw std::runtime_error("serve-mix ran out of fresh miss keys");
  }
  // The preset cycles with the index, so that every block computes the
  // same presets: block j misses indices 2 + 2j and 3 + 2j and tops up
  // 2j and 1 + 2j, one of each preset. The grid offsets come from an odd
  // multiplier, which permutes [0, 1024): indices of one preset get
  // distinct offsets, so distinct keys. The permutation changes with
  // every set-up, so that the set-ups' own misses cover many grids
  // rather than two fixed per seed.
  ScenarioSpec spec = light_preset(index % kLightCount);
  const std::uint64_t salt = mix(mix(options_.seed, rep_), 7);
  const std::uint64_t k =
      (index / kLightCount * 2654435761ull + salt) % 1024;
  const std::uint64_t offsets[] = {1 + k % 32, 1 + k / 32};
  for (std::size_t i = 0; i < spec.n_grid.size(); ++i) {
    spec.n_grid[i] += offsets[i % 2];
  }
  spec.base_seed = mix(mix(options_.seed, rep_), 1000 + index);
  return spec;
}

ScenarioSpec ServeMix::topup_spec(std::size_t index) const {
  // Raised trials double the entry, as the cache's documented top-up
  // (500 -> 1000 trials) does.
  ScenarioSpec spec = miss_spec(index);
  spec.trials *= 2;
  return spec;
}

std::vector<ServeMix::Request> ServeMix::block(int connection,
                                               std::uint64_t index) const {
  // Miss index 0 and 1 are the connections' set-up keys; block j of
  // connection c misses index 2 + 2j + c and tops up the key it missed
  // one block earlier.
  std::uint64_t state = mix(mix(options_.seed, 100 + connection), index);
  const auto next = [&state] { return state = mix(state, 0x5bd1e995); };
  std::vector<Request> requests;
  for (int i = 0; i < kHitsPerBlock; ++i) {
    const std::size_t key = next() % kWarmKeys;
    requests.push_back({Kind::kHit, key, request_line(warm_spec(key))});
  }
  const std::size_t missed = 2 + 2 * index + connection;
  const std::size_t topped = index == 0 ? connection : missed - 2;
  requests.push_back({Kind::kTopUp, topped, request_line(topup_spec(topped))});
  requests.push_back({Kind::kMiss, missed, request_line(miss_spec(missed))});
  for (std::size_t i = requests.size() - 1; i > 0; --i) {
    std::swap(requests[i], requests[next() % (i + 1)]);
  }
  return requests;
}

void ServeMix::setup(unsigned rep, Timing& timing) {
  // Every set-up warms keys of its own seeds, so none reuses the
  // instances an earlier one interned.
  rep_ = rep;
  dir_ = options_.work_dir + "/serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(rep);
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  timing.segment("start", [&] {
    daemon_ = std::make_unique<Daemon>(dir_ + "/sock", store_dir());
    for (int c = 0; c < kConnections; ++c) {
      connections_.push_back(std::make_unique<Connection>(dir_ + "/sock"));
    }
  });
  // Warm the hit set, then one key per connection for its first top-up.
  std::vector<std::string> lines;
  for (std::size_t key = 0; key < kWarmKeys; ++key) {
    lines.push_back(request_line(warm_spec(key)));
  }
  for (int c = 0; c < kConnections; ++c) {
    lines.push_back(request_line(miss_spec(c)));
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string response;
    timing.segment("warm-" + std::to_string(i),
                   [&] { response = connections_[0]->request(lines[i]); });
    if (!answered_as(response, Kind::kMiss)) {
      throw std::runtime_error("warming request failed: " + lines[i]);
    }
  }
  counts_at_setup_ = query_counts();
  rounds_ = 0;
  answers_.clear();
  hit_hashes_.clear();
  for (std::uint64_t& sent : sent_) sent = 0;
}

void ServeMix::teardown() {
  connections_.clear();
  daemon_.reset();
  if (!dir_.empty()) std::filesystem::remove_all(dir_);
  dir_.clear();
}

std::string ServeMix::store_dir() const { return dir_ + "/store"; }

std::string ServeMix::warm_hit_line() const {
  return request_line(warm_spec(0));
}

void ServeMix::client_loop(Connection& connection,
                           const std::vector<Request>& requests,
                           std::vector<Reply>& replies,
                           std::exception_ptr& error) {
  try {
    for (const Request& request : requests) {
      const double start = wall_seconds();
      std::string response = connection.request(request.line);
      Reply reply;
      reply.ms = 1e3 * (wall_seconds() - start);
      reply.answer.kind = request.kind;
      reply.answer.key = request.key;
      reply.answer.ok = answered_as(response, request.kind);
      if (request.kind == Kind::kHit) {
        reply.answer.hash = std::hash<std::string>{}(response);
      }
      if (request.kind != Kind::kMiss) {
        reply.answer.response = std::move(response);
      }
      replies.push_back(std::move(reply));
    }
  } catch (...) {
    error = std::current_exception();
  }
}

double ServeMix::round(Timing& timing) {
  std::vector<Request> blocks[kConnections];
  for (int c = 0; c < kConnections; ++c) blocks[c] = block(c, rounds_);
  std::vector<Reply> done[kConnections];
  std::exception_ptr error[kConnections];
  timing.segment("block", [&] {
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([this, c, &blocks, &done, &error] {
        client_loop(*connections_[c], blocks[c], done[c], error[c]);
      });
    }
    for (std::thread& client : clients) client.join();
  });
  for (const std::exception_ptr& e : error) {
    if (e) std::rethrow_exception(e);
  }
  ++rounds_;

  double queries = 0;
  for (auto& answers : done) {
    for (Reply& d : answers) {
      const int kind = static_cast<int>(d.answer.kind);
      ++sent_[kind];
      latency_ms_[kind].push_back(d.ms);
      queries += 1;
      if (d.answer.kind == Kind::kHit) {
        hit_bytes_.push_back(static_cast<double>(d.answer.response.size()));
        // Hits of one key return one byte string; keep the first copy of
        // each distinct response for checking.
        std::vector<std::size_t>& seen = hit_hashes_[d.answer.key];
        bool first = true;
        for (std::size_t h : seen) first = first && h != d.answer.hash;
        if (first) {
          seen.push_back(d.answer.hash);
        } else {
          d.answer.response = std::string();
        }
      }
      answers_.push_back(std::move(d.answer));
    }
  }
  return queries;
}

ServeCounts ServeMix::query_counts() {
  const lnc::scenario::Json root = lnc::scenario::Json::parse(
      connections_[0]->request("{\"op\": \"stats\"}"));
  const lnc::scenario::Json& stats = root.at("stats");
  ServeCounts counts;
  counts.hits = stats.at("hits").as_uint64();
  counts.topups = stats.at("topups").as_uint64();
  counts.misses = stats.at("misses").as_uint64();
  counts.trials_computed = stats.at("trials_computed").as_uint64();
  counts.trials_reused = stats.at("trials_reused").as_uint64();
  return counts;
}

ServeCounts ServeMix::round_counts() {
  const ServeCounts now = query_counts();
  ServeCounts delta;
  delta.hits = now.hits - counts_at_setup_.hits;
  delta.topups = now.topups - counts_at_setup_.topups;
  delta.misses = now.misses - counts_at_setup_.misses;
  delta.trials_computed =
      now.trials_computed - counts_at_setup_.trials_computed;
  delta.trials_reused = now.trials_reused - counts_at_setup_.trials_reused;
  return delta;
}

void ServeMix::check(Report& report) {
  const ServeCounts counts = round_counts();
  report.check(counts.hits == sent(Kind::kHit), "daemon hit count");
  report.check(counts.topups == sent(Kind::kTopUp), "daemon top-up count");
  report.check(counts.misses == sent(Kind::kMiss), "daemon miss count");

  // Cold references: a fresh run_sweep of exactly the spec each kept
  // response answered.
  lnc::stats::ThreadPool pool(4);
  lnc::scenario::SweepOptions sweep_options;
  sweep_options.pool = &pool;
  const auto cold = [&](const ScenarioSpec& spec) {
    lnc::scenario::SweepResult result =
        lnc::scenario::run_sweep(lnc::scenario::compile(spec), sweep_options);
    if (options_.corrupt_reference) corrupt(result);
    return result;
  };
  const auto matches = [](const std::string& response,
                          const lnc::scenario::SweepResult& reference,
                          std::string* why) {
    const lnc::scenario::Json root = lnc::scenario::Json::parse(response);
    return same_result(lnc::scenario::sweep_from_json(root.at("result")),
                       reference, why);
  };

  // Hits: each distinct response of a warm key is checked once; every
  // hit that returned those bytes shares the verdict.
  std::map<std::pair<std::size_t, std::size_t>, std::string> hit_errors;
  std::map<std::size_t, lnc::scenario::SweepResult> warm_reference;
  for (const Answer& answer : answers_) {
    if (answer.kind != Kind::kHit || answer.response.empty()) continue;
    auto it = warm_reference.find(answer.key);
    if (it == warm_reference.end()) {
      it = warm_reference.emplace(answer.key, cold(warm_spec(answer.key)))
               .first;
    }
    std::string why;
    if (!matches(answer.response, it->second, &why)) {
      hit_errors[{answer.key, answer.hash}] = why;
    }
  }
  for (const Answer& answer : answers_) {
    std::string why = "status or cache outcome";
    bool ok = answer.ok;
    if (ok && answer.kind == Kind::kHit) {
      const auto it = hit_errors.find({answer.key, answer.hash});
      if (it != hit_errors.end()) {
        ok = false;
        why = it->second;
      }
    } else if (ok && answer.kind == Kind::kTopUp) {
      ok = matches(answer.response, cold(topup_spec(answer.key)), &why);
    }
    report.check(ok,
                 std::string(outcome_name(answer.kind)) + " answer: " + why);
  }
}

std::unique_ptr<Workload> make_serve_mix(const Options& options) {
  return std::make_unique<ServeMix>(options);
}

}  // namespace perfbench
