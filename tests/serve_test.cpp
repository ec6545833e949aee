// Serving-tier tests (src/serve): cache-key canonicalization (the key
// ignores trials/seed/labels/backend and JSON key order, and changes on
// every semantic field), the self-contained SHA-256 against FIPS 180-4
// vectors, ResultStore round trip + corruption/stale-epoch degradation
// to diagnosed misses, trial-range merging, and the SweepService
// contract — miss seeds the cache, repeat hits run zero trials, top-up
// computes only the missing range and is BIT-identical to a cold run,
// concurrent identical queries share one computation — plus the daemon
// protocol via handle_request_line (no sockets needed).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <optional>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "local/batch_runner.h"
#include "mutations.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"
#include "serve/daemon.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "util/build_info.h"
#include "util/file_util.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;
using serve::CacheEntry;
using serve::CacheKey;
using serve::CacheOutcome;

ScenarioSpec shrunk(const char* preset_name, std::uint64_t trials,
                    std::uint64_t n) {
  const ScenarioSpec* preset = scenario::find_preset(preset_name);
  EXPECT_NE(preset, nullptr) << preset_name;
  ScenarioSpec spec = *preset;
  spec.trials = trials;
  spec.n_grid = {n};
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("lnc-serve-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

scenario::SweepResult cold_run(const ScenarioSpec& spec) {
  return scenario::run_sweep(scenario::compile(spec));
}

/// Bit-level row equality: tallies, exact accumulators (canonical hex
/// words), counter slots, deterministic telemetry. Timing excluded.
void expect_rows_bit_identical(const scenario::SweepResult& want,
                               const scenario::SweepResult& got) {
  ASSERT_EQ(want.rows.size(), got.rows.size());
  EXPECT_EQ(want.workload, got.workload);
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const local::ShardTally& w = want.rows[i].tally;
    const local::ShardTally& g = got.rows[i].tally;
    EXPECT_EQ(want.rows[i].total_trials, got.rows[i].total_trials);
    EXPECT_EQ(w.trials, g.trials);
    EXPECT_EQ(w.successes, g.successes);
    EXPECT_EQ(w.value_sum.to_hex(), g.value_sum.to_hex());
    EXPECT_EQ(w.value_sum_sq.to_hex(), g.value_sum_sq.to_hex());
    EXPECT_EQ(w.counts, g.counts);
    EXPECT_EQ(w.telemetry.messages_sent, g.telemetry.messages_sent);
    EXPECT_EQ(w.telemetry.words_sent, g.telemetry.words_sent);
    EXPECT_EQ(w.telemetry.rounds_executed, g.telemetry.rounds_executed);
    EXPECT_EQ(w.telemetry.ball_expansions, g.telemetry.ball_expansions);
    EXPECT_EQ(w.telemetry.messages_dropped, g.telemetry.messages_dropped);
    EXPECT_EQ(w.telemetry.nodes_crashed, g.telemetry.nodes_crashed);
    EXPECT_EQ(w.telemetry.edges_churned, g.telemetry.edges_churned);
  }
}

// ------------------------------------------------------------- sha256 --

TEST(Sha256, Fips180KnownAnswers) {
  EXPECT_EQ(serve::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(serve::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  // Two-block message (FIPS 180-4 example B.2).
  EXPECT_EQ(serve::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039"
            "a33ce45964ff2167f6ecedd419db06c1");
  // Padding boundary: 55/56/64-byte messages exercise the one- vs
  // two-block finalization split.
  EXPECT_EQ(serve::sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f"
            "590ce20f1bde7090ef7970686ec6738a");
}

// ---------------------------------------------------------- cache key --

TEST(CacheKey, IgnoresNonSemanticFields) {
  const ScenarioSpec base = shrunk("luby-mis-rounds", 100, 64);
  const CacheKey key = serve::cache_key(base);
  EXPECT_EQ(key.size(), 64u);

  ScenarioSpec variant = base;
  variant.trials = 7777;
  EXPECT_EQ(serve::cache_key(variant), key) << "trials must not key";
  variant = base;
  variant.base_seed = 999;
  EXPECT_EQ(serve::cache_key(variant), key) << "seed must not key";
  variant = base;
  variant.name = "renamed";
  variant.doc = "other docs";
  EXPECT_EQ(serve::cache_key(variant), key) << "labels must not key";
  variant = base;
  variant.backend = local::OptimizationConfig::Backend::kVectorized;
  EXPECT_EQ(serve::cache_key(variant), key)
      << "backends are bit-identical, so they must not key";
}

TEST(CacheKey, JsonKeyOrderDoesNotMatter) {
  // The same spec spelled with top-level keys in two different orders
  // must produce the same key: canonicalization goes through the parsed
  // (ordered-map) form, not the input bytes.
  const std::string forward =
      "{\"name\": \"a\", \"topology\": \"ring\", \"language\": \"amos\","
      " \"construction\": \"amos-verifier\", \"decider\": \"exact\","
      " \"params\": {\"ids\": 1, \"radius\": 2}, \"workload\": \"success\","
      " \"n\": [16], \"trials\": 10, \"seed\": 3}";
  const std::string reordered =
      "{\"trials\": 99, \"seed\": 42, \"n\": [16],"
      " \"params\": {\"radius\": 2, \"ids\": 1},"
      " \"decider\": \"exact\", \"construction\": \"amos-verifier\","
      " \"language\": \"amos\", \"topology\": \"ring\","
      " \"workload\": \"success\", \"name\": \"b\"}";
  const ScenarioSpec a = scenario::spec_from_json(forward);
  const ScenarioSpec b = scenario::spec_from_json(reordered);
  EXPECT_EQ(serve::cache_key(a), serve::cache_key(b));
}

TEST(CacheKey, SemanticChangesChangeTheKey) {
  const ScenarioSpec base = shrunk("luby-mis-rounds", 100, 64);
  const CacheKey key = serve::cache_key(base);

  ScenarioSpec variant = base;
  variant.params["degree"] = 4;
  EXPECT_NE(serve::cache_key(variant), key) << "param value";
  variant = base;
  variant.params["extra"] = 1;
  EXPECT_NE(serve::cache_key(variant), key) << "param presence";
  variant = base;
  variant.n_grid = {64, 128};
  EXPECT_NE(serve::cache_key(variant), key) << "n grid";
  variant = base;
  variant.statistic = "messages";
  EXPECT_NE(serve::cache_key(variant), key) << "statistic";
  variant = base;
  variant.mode = local::ExecMode::kMessages;
  EXPECT_NE(serve::cache_key(variant), key)
      << "exec mode (telemetry is measured vs modeled)";
  variant = base;
  variant.topology = "ring";
  EXPECT_NE(serve::cache_key(variant), key) << "topology";

  const ScenarioSpec success = shrunk("ring-amos-yes", 100, 16);
  ScenarioSpec flipped = success;
  flipped.success_on_accept = !success.success_on_accept;
  EXPECT_NE(serve::cache_key(flipped), serve::cache_key(success))
      << "success side";
}

TEST(CacheKey, TrivialFaultBlocksDoNotKey) {
  // A spec that never mentions faults, one that says fault="none", and
  // one that says fault="none" with no parameters all canonicalize to the
  // same bytes — pre-fault cache entries stay addressable, byte for byte.
  const ScenarioSpec base = shrunk("ring-amos-yes", 100, 16);
  const CacheKey key = serve::cache_key(base);

  ScenarioSpec variant = base;
  variant.fault = "none";
  EXPECT_EQ(serve::cache_key(variant), key) << "explicit none must not key";

  // Spelling out a non-trivial model's schema default equals omitting
  // it: cache_normal_form materializes defaults before hashing, so
  // `drop` and `drop{p-loss=0.1}` share one cache entry.
  ScenarioSpec defaulted = base;
  defaulted.fault = "drop";
  ScenarioSpec spelled = defaulted;
  spelled.fault_params = {{"p-loss", 0.1}};  // the declared default
  EXPECT_EQ(serve::cache_key(spelled), serve::cache_key(defaulted));
  EXPECT_NE(serve::cache_key(defaulted), key)
      << "a non-trivial fault model must key";
}

TEST(CacheKey, EveryFaultModelAndParamIsKeySensitive) {
  const ScenarioSpec base = shrunk("ring-amos-yes", 100, 16);
  auto with_fault = [&](const char* model, scenario::ParamMap params) {
    ScenarioSpec spec = base;
    spec.fault = model;
    spec.fault_params = std::move(params);
    return serve::cache_key(spec);
  };

  // Distinct models key distinctly.
  const CacheKey drop = with_fault("drop", {{"p-loss", 0.1}});
  const CacheKey crash =
      with_fault("crash", {{"p-crash", 0.05}, {"crash-round", 1}});
  const CacheKey churn = with_fault("churn", {{"p-churn", 0.1}});
  EXPECT_NE(drop, crash);
  EXPECT_NE(drop, churn);
  EXPECT_NE(crash, churn);

  // Every declared parameter is key-sensitive.
  EXPECT_NE(with_fault("drop", {{"p-loss", 0.2}}), drop);
  EXPECT_NE(with_fault("crash", {{"p-crash", 0.1}, {"crash-round", 1}}),
            crash);
  EXPECT_NE(with_fault("crash", {{"p-crash", 0.05}, {"crash-round", 4}}),
            crash);
  EXPECT_NE(with_fault("churn", {{"p-churn", 0.25}}), churn);
}

TEST(CacheKey, PreimageIsVersionedByEpoch) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 10, 16);
  const std::string preimage = serve::cache_key_preimage(spec);
  const std::string expected_prefix =
      "lnc-cache-v1 epoch=" + std::to_string(util::seed_stream_epoch()) +
      "\n";
  ASSERT_GE(preimage.size(), expected_prefix.size());
  EXPECT_EQ(preimage.substr(0, expected_prefix.size()), expected_prefix);
  EXPECT_EQ(serve::cache_key(spec), serve::sha256_hex(preimage));
}

// --------------------------------------------------------- ResultStore --

TEST(ResultStore, RoundTripsAnEntry) {
  const serve::ResultStore store(fresh_dir("roundtrip"));
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 12, 64);
  CacheEntry entry;
  entry.key = serve::cache_key(spec);
  entry.spec = spec;
  entry.result = cold_run(spec);
  ASSERT_EQ(store.store(entry), "");

  std::string diagnostic;
  const std::optional<CacheEntry> loaded =
      store.lookup(entry.key, &diagnostic);
  ASSERT_TRUE(loaded.has_value()) << diagnostic;
  EXPECT_EQ(loaded->key, entry.key);
  EXPECT_EQ(loaded->seed_stream_epoch, util::seed_stream_epoch());
  EXPECT_EQ(loaded->spec.trials, spec.trials);
  EXPECT_EQ(loaded->spec.base_seed, spec.base_seed);
  expect_rows_bit_identical(entry.result, loaded->result);
}

TEST(ResultStore, MissingEntryIsADiagnosedMiss) {
  const serve::ResultStore store(fresh_dir("absent"));
  std::string diagnostic;
  EXPECT_FALSE(store.lookup(std::string(64, '0'), &diagnostic).has_value());
  EXPECT_EQ(diagnostic, "no entry");
}

TEST(ResultStore, CorruptEntryDegradesToAMiss) {
  const serve::ResultStore store(fresh_dir("corrupt"));
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  const CacheKey key = serve::cache_key(spec);
  ASSERT_EQ(util::write_file_atomic(store.path_for(key), "{ not json"), "");
  std::string diagnostic;
  EXPECT_FALSE(store.lookup(key, &diagnostic).has_value());
  EXPECT_NE(diagnostic, "");
  EXPECT_NE(diagnostic, "no entry");
}

TEST(ResultStore, StaleEpochDegradesToAMiss) {
  const serve::ResultStore store(fresh_dir("epoch"));
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  CacheEntry entry;
  entry.key = serve::cache_key(spec);
  entry.spec = spec;
  entry.result = cold_run(spec);
  ASSERT_EQ(store.store(entry), "");

  // Rewrite the stored entry claiming a different seed-stream epoch —
  // as a binary from another generation would have.
  std::string text;
  ASSERT_EQ(util::read_file(store.path_for(entry.key), text), "");
  const std::string field = "\"seed_stream_epoch\": ";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  std::size_t end = at + field.size();
  while (end < text.size() && std::isdigit(text[end])) ++end;
  text.replace(at + field.size(), end - (at + field.size()), "999");
  ASSERT_EQ(util::write_file_atomic(store.path_for(entry.key), text), "");

  std::string diagnostic;
  EXPECT_FALSE(store.lookup(entry.key, &diagnostic).has_value());
  EXPECT_NE(diagnostic.find("epoch"), std::string::npos) << diagnostic;
}

// --------------------------------------------------- trial-range merge --

TEST(TrialRanges, SplitRunsMergeBitIdentically) {
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 25, 64);
  const scenario::SweepResult whole = cold_run(spec);
  const scenario::CompiledScenario compiled = scenario::compile(spec);

  // Deliberately uneven split points — nothing about the merge depends
  // on near-equal shard_range slices.
  std::vector<scenario::SweepResult> parts;
  const std::uint64_t cuts[] = {0, 3, 4, 20, 25};
  for (int i = 0; i + 1 < 5; ++i) {
    scenario::SweepOptions options;
    options.trial_range = local::TrialRange{cuts[i], cuts[i + 1]};
    parts.push_back(scenario::run_sweep(compiled, options));
  }
  ASSERT_EQ(scenario::can_merge_trial_ranges(parts), "");
  const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
  EXPECT_EQ(merged.trial_begin, 0u);
  EXPECT_EQ(merged.trial_end, spec.trials);
  EXPECT_TRUE(merged.complete());
  expect_rows_bit_identical(whole, merged);
}

TEST(TrialRanges, AnyOrderMergesAndGapsAreRejected) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 20, 16);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  auto slice = [&](std::uint64_t begin, std::uint64_t end) {
    scenario::SweepOptions options;
    options.trial_range = local::TrialRange{begin, end};
    return scenario::run_sweep(compiled, options);
  };
  const scenario::SweepResult a = slice(0, 8);
  const scenario::SweepResult b = slice(8, 20);
  const scenario::SweepResult late = slice(10, 20);

  EXPECT_EQ(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{a, b}),
            "");
  EXPECT_NE(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{a, late}),
            "")
      << "a gap [8,10) must not merge";
  // Parts merge in any order: the range, not the position, places them.
  const std::vector<scenario::SweepResult> reversed = {b, a};
  ASSERT_EQ(scenario::can_merge_trial_ranges(reversed), "");
  expect_rows_bit_identical(
      scenario::merge_trial_ranges(std::vector<scenario::SweepResult>{a, b}),
      scenario::merge_trial_ranges(reversed));
  EXPECT_NE(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{b}),
            "")
      << "coverage must start at trial 0";
}

// -------------------------------------------------------- SweepService --

TEST(SweepService, MissSeedsTheCacheAndRepeatHits) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("misshit"), options);
  const ScenarioSpec spec = shrunk("ring-amos-yes", 16, 16);

  const serve::QueryOutcome first = service.query(spec);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.trials_computed, 16u);
  EXPECT_EQ(first.trials_reused, 0u);

  const serve::QueryOutcome second = service.query(spec);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(second.trials_computed, 0u);
  EXPECT_EQ(second.trials_reused, 16u);
  EXPECT_EQ(second.key, first.key);
  expect_rows_bit_identical(first.result, second.result);

  const serve::SweepService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.trials_computed, 16u)
      << "the repeat query must not rerun any trial";
}

TEST(SweepService, TopUpIsBitIdenticalToAColdRun) {
  // The acceptance-criterion property, library-level: miss at T', then
  // query T > T' (computes only [T', T)) == cold run at T, exactly —
  // for a value workload (exact sums + telemetry) and a success one.
  struct Case {
    const char* preset;
    std::uint64_t n;
  };
  for (const Case& c : {Case{"luby-mis-rounds", 64},
                        Case{"ring-amos-yes", 16}}) {
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(
        fresh_dir(std::string("topup-") + c.preset), options);

    const ScenarioSpec small = shrunk(c.preset, 11, c.n);
    ScenarioSpec big = small;
    big.trials = 29;

    EXPECT_EQ(service.query(small).outcome, CacheOutcome::kMiss);
    const serve::QueryOutcome topped = service.query(big);
    EXPECT_EQ(topped.outcome, CacheOutcome::kTopUp);
    EXPECT_EQ(topped.trials_reused, 11u);
    EXPECT_EQ(topped.trials_computed, 18u);

    expect_rows_bit_identical(cold_run(big), topped.result);

    // And the topped-up entry serves the next query outright.
    const serve::QueryOutcome again = service.query(big);
    EXPECT_EQ(again.outcome, CacheOutcome::kHit);
    expect_rows_bit_identical(topped.result, again.result);
  }
}

TEST(SweepService, FaultyMissHitAndTopUpAreBitIdentical) {
  // The serving tier treats faulty scenarios like any other: a miss
  // seeds the cache, a repeat query hits without recomputation, and a
  // top-up (computing only the missing trial range) is bit-identical to
  // a cold run — fault telemetry included. Works because fault coins are
  // pure functions of the trial index, never of the cached prefix.
  struct Case {
    const char* preset;
    std::uint64_t n;
  };
  for (const Case& c : {Case{"ring-amos-drop", 16}, Case{"luby-mis-crash", 64},
                        Case{"rand-matching-churn", 64}}) {
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(
        fresh_dir(std::string("fault-topup-") + c.preset), options);

    const ScenarioSpec small = shrunk(c.preset, 11, c.n);
    ScenarioSpec big = small;
    big.trials = 29;

    EXPECT_EQ(service.query(small).outcome, CacheOutcome::kMiss) << c.preset;
    const serve::QueryOutcome repeat = service.query(small);
    EXPECT_EQ(repeat.outcome, CacheOutcome::kHit) << c.preset;
    EXPECT_EQ(repeat.trials_computed, 0u) << c.preset;

    const serve::QueryOutcome topped = service.query(big);
    EXPECT_EQ(topped.outcome, CacheOutcome::kTopUp) << c.preset;
    EXPECT_EQ(topped.trials_reused, 11u) << c.preset;
    EXPECT_EQ(topped.trials_computed, 18u) << c.preset;
    expect_rows_bit_identical(cold_run(big), topped.result);

    const local::Telemetry& telemetry = topped.result.rows[0].tally.telemetry;
    EXPECT_GT(telemetry.messages_dropped + telemetry.nodes_crashed +
                  telemetry.edges_churned,
              0u)
        << c.preset << ": the fault model never fired";
  }
}

TEST(SweepService, EntrySeedIsCanonical) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("seed"), options);
  ScenarioSpec spec = shrunk("ring-amos-yes", 12, 16);
  spec.base_seed = 101;
  EXPECT_EQ(service.query(spec).outcome, CacheOutcome::kMiss);

  ScenarioSpec other_seed = spec;
  other_seed.base_seed = 202;
  const serve::QueryOutcome served = service.query(other_seed);
  EXPECT_EQ(served.outcome, CacheOutcome::kHit)
      << "the key excludes the seed";
  EXPECT_TRUE(served.seed_differs);
  EXPECT_EQ(served.served_seed, 101u) << "first writer's seed wins";
  EXPECT_EQ(served.result.base_seed, 101u);
}

TEST(SweepService, ConcurrentIdenticalQueriesShareOneComputation) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("dedup"), options);
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 14, 64);

  serve::QueryOutcome a, b;
  std::thread ta([&] { a = service.query(spec); });
  std::thread tb([&] { b = service.query(spec); });
  ta.join();
  tb.join();

  // The per-key lock serializes them: exactly one computes, the other
  // finds the fresh entry and hits.
  const serve::SweepService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.trials_computed, 14u);
  expect_rows_bit_identical(a.result, b.result);
}

// ------------------------------------------------------ wire protocol --

TEST(DaemonProtocol, AnswersAndCachesRequests) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("protocol"), options);

  const std::string request =
      "{\"scenario\": \"ring-amos-yes\", \"trials\": 8, \"n\": [16]}";
  const std::string first = serve::handle_request_line(service, request);
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"outcome\": \"miss\""), std::string::npos);
  EXPECT_NE(first.find("\"seed_stream_epoch\": "), std::string::npos);
  EXPECT_EQ(first.find('\n'), first.size() - 1)
      << "exactly one newline-terminated line";

  const std::string second = serve::handle_request_line(service, request);
  EXPECT_NE(second.find("\"outcome\": \"hit\""), std::string::npos)
      << second;
  EXPECT_NE(second.find("\"trials_computed\": 0"), std::string::npos);
}

TEST(DaemonProtocol, RejectsBadRequestsWithoutDying) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("badreq"), options);
  for (const char* bad : {
           "not json at all",
           "{\"scenario\": \"no-such-preset\"}",
           "{\"scenario\": \"ring-amos-yes\", \"bogus\": 1}",
           "{}",
           "{\"scenario\": \"ring-amos-yes\", \"spec\": {}}",
       }) {
    const std::string response = serve::handle_request_line(service, bad);
    EXPECT_NE(response.find("\"status\": \"error\""), std::string::npos)
        << bad << " -> " << response;
  }
  EXPECT_EQ(service.stats().trials_computed, 0u);
}

TEST(DaemonProtocol, DeepRequestLineIsAnErrorAndTheDaemonAnswersOn) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("deep"), options);
  // 50 KB of '[' used to overflow the parser's stack and kill the daemon.
  const std::string deep = serve::handle_request_line(
      service, std::string(50000, '['));
  EXPECT_NE(deep.find("\"status\": \"error\""), std::string::npos) << deep;
  EXPECT_NE(deep.find("JSON error at offset"), std::string::npos) << deep;
  const std::string stats =
      serve::handle_request_line(service, "{\"op\": \"stats\"}");
  EXPECT_NE(stats.find("\"status\": \"ok\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"queries\": 0"), std::string::npos) << stats;
}

// Mutated request lines (a fixed seed and case count): truncations, bit
// flips, deep nesting and edge numbers on small valid requests must each
// come back as parseable ok/error JSON — never a crash, never undefined
// behaviour under the sanitizer lane — and the daemon must answer a
// stats request afterwards.
TEST(DaemonProtocol, MutatedRequestLinesAnswerOkOrError) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("mutated"), options);
  const std::vector<std::string> bases = {
      R"({"scenario": "ring-amos-yes", "trials": 8, "n": [16]})",
      R"({"scenario": "luby-mis-rounds", "trials": 4, "n": [16], "seed": 3})",
      R"({"spec": {"name": "m", "topology": "ring", "language": "mis", )"
      R"("construction": "luby-mis", "decider": "lcl", "n": [12], )"
      R"("trials": 4}, "params": {}})",
      R"({"scenario": "ring-amos-drop", "trials": 4, "n": [8], )"
      R"("fault-params": {"p-loss": 0.25}})",
  };
  const std::vector<std::string> edges = {
      "1e309", "-1e309", "18446744073709551616", "-0", "-8", "0", "1",
      "1e-320", "0.5", "4294967295"};
  Mutator mutate(20261020);
  const auto edge = [&] { return mutate.pick(edges); };
  int answered = 0;
  int refused = 0;
  for (int c = 0; c < 400; ++c) {
    std::string line = mutate.pick(bases);
    switch (mutate.next() % 4) {
      case 0:  // truncation
        mutate.truncate(line);
        break;
      case 1:  // bit flips
        mutate.flip(line);
        break;
      case 2:  // deep nesting around a value
        line = R"({"scenario": "ring-amos-yes"})";
        mutate.nest(line, line.find(": ") + 2, line.size() - 1);
        break;
      default:  // edge numbers in every numeric slot
        switch (mutate.next() % 4) {
          case 0:
            line = R"({"scenario": "ring-amos-yes", "n": [16], "trials": )" +
                   edge() + "}";
            break;
          case 1:
            line = R"({"scenario": "ring-amos-yes", "trials": 4, "n": [)" +
                   edge() + "]}";
            break;
          case 2:
            line = R"({"scenario": "ring-amos-yes", "trials": 4, "n": [16], )"
                   R"("params": {"count": )" +
                   edge() + "}}";
            break;
          default:
            line = R"({"scenario": "ring-amos-drop", "trials": 4, "n": [8], )"
                   R"("seed": )" + edge() +
                   R"(, "fault-params": {"p-loss": )" + edge() + "}}";
        }
    }
    const std::string response = serve::handle_request_line(service, line);
    ASSERT_FALSE(response.empty()) << line;
    EXPECT_EQ(response.back(), '\n') << line;
    scenario::Json root;
    ASSERT_NO_THROW(root = scenario::Json::parse(response))
        << line << " -> " << response;
    const std::string& status = root.at("status").as_string();
    EXPECT_TRUE(status == "ok" || status == "error")
        << line << " -> " << response;
    ++(status == "ok" ? answered : refused);
  }
  // Both sides ran: the mutations reach the sweep, not only the parser.
  EXPECT_GT(answered, 0);
  EXPECT_GT(refused, 0);
  const std::string stats =
      serve::handle_request_line(service, "{\"op\": \"stats\"}");
  EXPECT_NE(stats.find("\"status\": \"ok\""), std::string::npos) << stats;
}

// Mutated store entries (a fixed seed and case count): truncations, bit
// flips, deep nesting and edge numbers written over a stored entry must
// each end in a diagnosed miss — never a hit with other bits than the
// entry that was stored, never a crash or sanitizer report. A quarter of
// the edge-number cases carry a recomputed digest, as a foreign writer
// would, so the readers behind the digest see those numbers too.
TEST(ResultStore, MutatedEntriesAreDiagnosedMissesNeverWrongHits) {
  const serve::ResultStore store(fresh_dir("mutated-entries"));
  struct Base {
    CacheEntry entry;
    std::string text;
  };
  std::vector<Base> bases;
  for (const ScenarioSpec& spec :
       {shrunk("ring-amos-drop", 8, 16), shrunk("luby-mis-rounds", 4, 16)}) {
    Base base;
    base.entry.key = serve::cache_key(spec);
    base.entry.spec = spec;
    base.entry.result = cold_run(spec);
    ASSERT_EQ(store.store(base.entry), "");
    ASSERT_EQ(util::read_file(store.path_for(base.entry.key), base.text), "");
    bases.push_back(std::move(base));
  }
  // The stored form: `{"digest": "<64 hex>", ` and then the document the
  // digest covers.
  const std::size_t digest_prefix = std::string("{\"digest\": \"").size() +
                                    64 + std::string("\", ").size();
  const auto forge = [&](const std::string& text) {
    const std::string rest = text.substr(digest_prefix);
    return "{\"digest\": \"" + serve::sha256_hex(rest) + "\", " + rest;
  };
  const std::vector<std::string> fields = {
      "\"trials\": ",   "\"successes\": ", "\"trial_end\": ",
      "\"n\": [",       "\"seed\": ",      "\"total_trials\": ",
      "\"messages\": ", "\"seed_stream_epoch\": "};
  const std::vector<std::string> edges = {
      "1e309", "-1e309", "18446744073709551616", "-0", "-8", "0.5", "1e-320"};
  Mutator mutate(20261021);
  int forged = 0;
  for (int c = 0; c < 400; ++c) {
    const Base& base = mutate.pick(bases);
    std::string text = base.text;
    std::string kind;
    switch (mutate.next() % 4) {
      case 0:
        kind = "truncation";
        mutate.truncate(text);
        break;
      case 1:
        kind = "bit flips";
        mutate.flip(text);
        break;
      case 2: {  // the result wrapped in 1..300 arrays
        kind = "deep nesting";
        const std::string field = "\"result\": ";
        mutate.nest(text, text.find(field) + field.size(), text.rfind('}'));
        break;
      }
      default: {  // an edge number over one numeric value
        kind = "edge number";
        const std::string& field = mutate.pick(fields);
        ASSERT_TRUE(mutate.edge_over(text, field, edges)) << field;
        if (mutate.next() % 4 == 0) {
          kind += " (re-digested)";
          text = forge(text);
          ++forged;
        }
      }
    }
    ASSERT_EQ(util::write_file_atomic(store.path_for(base.entry.key), text),
              "");
    std::string diagnostic;
    const std::optional<CacheEntry> hit =
        store.lookup(base.entry.key, &diagnostic);
    const std::string where = "case " + std::to_string(c) + " (" + kind +
                              "): " + text.substr(0, 200);
    if (hit.has_value()) {
      // Only an unchanged entry may hit, and then with the stored bits.
      EXPECT_EQ(text, base.text) << where;
      EXPECT_EQ(scenario::spec_to_json(hit->spec),
                scenario::spec_to_json(base.entry.spec))
          << where;
      expect_rows_bit_identical(base.entry.result, hit->result);
    } else {
      EXPECT_FALSE(diagnostic.empty()) << where;
      EXPECT_NE(diagnostic, "no entry") << where;
    }
  }
  EXPECT_GT(forged, 0);
  // The intact entries still hit afterwards.
  for (const Base& base : bases) {
    ASSERT_EQ(util::write_file_atomic(store.path_for(base.entry.key),
                                      base.text),
              "");
    std::string diagnostic;
    EXPECT_TRUE(store.lookup(base.entry.key, &diagnostic).has_value())
        << diagnostic;
  }
}

TEST(ResultStore, EntryWithRetiredShardKeysStillHits) {
  // Entries written before results dropped their i-of-k identity carry
  // "shard"/"shard_count" in the stored result. They parse without
  // warnings and still hit with the stored bits.
  const serve::ResultStore store(fresh_dir("retired-shard-keys"));
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  CacheEntry entry;
  entry.key = serve::cache_key(spec);
  entry.spec = spec;
  entry.result = cold_run(spec);
  ASSERT_EQ(store.store(entry), "");
  std::string text;
  ASSERT_EQ(util::read_file(store.path_for(entry.key), text), "");
  // The stored form: `{"digest": "<64 hex>", ` and then the document the
  // digest covers.
  const std::string head = "{\"digest\": \"";
  std::string rest = text.substr(head.size() + 64 + 3);
  const std::string seed = "\"base_seed\": " + std::to_string(spec.base_seed);
  ASSERT_NE(rest.find(seed), std::string::npos) << rest;
  rest.insert(rest.find(seed) + seed.size(),
              ", \"shard\": 0, \"shard_count\": 1");
  text = head + serve::sha256_hex(rest) + "\", " + rest;
  ASSERT_EQ(util::write_file_atomic(store.path_for(entry.key), text), "");

  std::vector<std::string> warnings;
  serve::entry_from_json(text, &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  std::string diagnostic;
  const std::optional<CacheEntry> hit = store.lookup(entry.key, &diagnostic);
  ASSERT_TRUE(hit.has_value()) << diagnostic;
  expect_rows_bit_identical(entry.result, hit->result);
}

// ------------------------------------------------- spec front end --

/// Runs a built tool with stderr folded into the output; returns the exit
/// code (-1 when the tool died on a signal).
int run_tool(const std::string& args, std::string& output) {
  const std::string command =
      std::string(LNC_BINARY_DIR) + "/" + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The text after `marker` up to the next `end` character.
std::string field_after(const std::string& text, const std::string& marker,
                        char end) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + marker.size();
  return text.substr(begin, text.find(end, begin) - begin);
}

/// The canonical JSON of the spec a store holds under `key`.
std::string stored_spec(const std::string& dir, const serve::CacheKey& key) {
  std::string diagnostic;
  const std::optional<serve::CacheEntry> entry =
      serve::ResultStore(dir).lookup(key, &diagnostic);
  return entry ? scenario::spec_to_json(entry->spec) : "none: " + diagnostic;
}

TEST(SpecFlags, ComponentOverridesOnAPresetAreDiagnosed) {
  std::string output;
  EXPECT_EQ(run_tool("lnc_sweep --scenario ring-amos-yes --decider "
                     "no-such-decider --topology no-such --trials 4 --n 16",
                     output),
            1)
      << output;
  EXPECT_NE(output.find("unknown topology 'no-such'"), std::string::npos)
      << output;
  output.clear();
  EXPECT_EQ(run_tool("lnc_sweep --all --topology nope --trials 4", output), 1)
      << output;
  EXPECT_NE(output.find("unknown topology 'nope'"), std::string::npos)
      << output;
}

TEST(SpecFlags, TwoSourcesAreAUsageErrorNamingBoth) {
  std::string output;
  EXPECT_EQ(run_tool("lnc_sweep --scenario ring-amos-yes --spec "
                     "scenarios/ring-amos-yes.json",
                     output),
            2)
      << output;
  EXPECT_NE(output.find("--scenario and --spec"), std::string::npos)
      << output;
}

TEST(SpecFlags, RequestWithSpecFlagsIsAUsageErrorNamingBoth) {
  std::string output;
  EXPECT_EQ(run_tool("lnc_serve --query --socket no-such.sock --request "
                     "'{\"scenario\": \"ring-amos-yes\"}' --scenario "
                     "ring-amos-no --trials 4",
                     output),
            2)
      << output;
  EXPECT_NE(output.find("--request and --scenario"), std::string::npos)
      << output;
}

// The retired "naive" backend name is diagnosed on every surface that
// reads a backend: a spec file, the --backend flag, a daemon request line
// and a shard file. Each diagnostic lists the backends that remain.
TEST(SpecFlags, RetiredNaiveBackendIsDiagnosedEverywhere) {
  const std::string choices = "auto|batched|vectorized";
  const auto expect_diagnosed = [&](const std::string& text,
                                    const std::string& surface) {
    EXPECT_NE(text.find(choices), std::string::npos) << surface << ": " << text;
    EXPECT_NE(text.find("'naive'"), std::string::npos)
        << surface << ": " << text;
  };
  const std::string root = fresh_dir("naive");
  std::filesystem::create_directories(root);

  const std::string spec_file = root + "/naive-spec.json";
  ASSERT_EQ(util::write_file_atomic(
                spec_file,
                "{\"name\": \"naive\", \"topology\": \"ring\", "
                "\"language\": \"mis\", \"construction\": \"luby-mis\", "
                "\"decider\": \"exact\", \"n\": [16], \"trials\": 4, "
                "\"backend\": \"naive\"}"),
            "");
  std::string output;
  EXPECT_EQ(run_tool("lnc_sweep --spec " + spec_file, output), 1) << output;
  expect_diagnosed(output, "spec file");

  output.clear();
  EXPECT_EQ(run_tool("lnc_sweep --scenario luby-mis-rounds --trials 4 --n 16 "
                     "--backend naive",
                     output),
            2)
      << output;
  expect_diagnosed(output, "--backend");

  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(root + "/store", options);
  const std::string response = serve::handle_request_line(
      service,
      "{\"scenario\": \"luby-mis-rounds\", \"trials\": 4, \"n\": [16], "
      "\"backend\": \"naive\"}");
  EXPECT_NE(response.find("\"status\": \"error\""), std::string::npos)
      << response;
  expect_diagnosed(response, "daemon request");
  EXPECT_EQ(service.stats().trials_computed, 0u);

  const std::string shard_file = root + "/naive-shard.json";
  ASSERT_EQ(util::write_file_atomic(
                shard_file,
                "{\"scenario\": \"x\", \"base_seed\": 1, \"shard\": 0, "
                "\"shard_count\": 1, \"backend\": \"naive\", \"rows\": "
                "[{\"n\": 8, \"actual_n\": 8, \"total_trials\": 4, "
                "\"trials\": 4, \"successes\": 2}]}"),
            "");
  output.clear();
  EXPECT_EQ(run_tool("lnc_sweep --merge " + shard_file, output), 1) << output;
  expect_diagnosed(output, "shard file");
}

// The same spec flags through lnc_sweep --cache, lnc_launch --cache and
// lnc_serve --query (against a daemon on a fresh store) must name the
// same spec: the printed or returned cache key and the stored spec's
// canonical JSON agree in all three tools.
TEST(SpecFrontEnd, EveryToolReadsTheSameFlagsAsTheSameSpec) {
  const std::string scenarios = std::string(LNC_SOURCE_DIR) + "/scenarios/";
  const std::vector<std::string> rows = {
      "--scenario ring-amos-yes --trials 8 --n 16 --seed 5 --param count=1",
      "--spec " + scenarios + "luby-mis-rounds.json --trials 6 --n 16,24",
      "--topology ring --language mis --construction luby-mis --decider lcl "
      "--n 16 --trials 6",
      "--scenario luby-mis-rounds --fault drop --fault-param p-loss=0.25 "
      "--trials 6 --n 16",
  };
  const std::string root = fresh_dir("frontend");
  std::filesystem::create_directories(root);
  serve::DaemonOptions daemon;
  daemon.socket_path = root + "/sock";
  daemon.cache_dir = root + "/serve-store";
  daemon.threads = 1;
  daemon.max_requests = rows.size();
  std::thread server([&daemon] { serve::run_daemon(daemon); });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string& flags = rows[i];
    const std::string sweep_store = root + "/sweep-" + std::to_string(i);
    const std::string launch_store = root + "/launch-" + std::to_string(i);
    std::string sweep, launch, query;
    EXPECT_EQ(run_tool("lnc_sweep " + flags + " --cache " + sweep_store,
                       sweep),
              0)
        << sweep;
    EXPECT_EQ(run_tool("lnc_launch " + flags + " --shards 2 --cache " +
                           launch_store + " --run-dir " + root + "/run-" +
                           std::to_string(i),
                       launch),
              0)
        << launch;
    EXPECT_EQ(run_tool("lnc_serve --query --socket " + daemon.socket_path +
                           " " + flags,
                       query),
              0)
        << query;
    const std::string key = field_after(query, "\"key\": \"", '"');
    ASSERT_EQ(key.size(), 64u) << query;
    EXPECT_EQ(field_after(sweep, "key=", ' '), key.substr(0, 16)) << sweep;
    EXPECT_EQ(field_after(launch, "key=", ' '), key.substr(0, 16)) << launch;
    const std::string served = stored_spec(daemon.cache_dir, key);
    EXPECT_EQ(stored_spec(sweep_store, key), served) << flags;
    EXPECT_EQ(stored_spec(launch_store, key), served) << flags;
    EXPECT_EQ(served.rfind("none", 0), std::string::npos) << served;
  }
  server.join();
}

}  // namespace
