// Directory-backed store of merged sweep results, addressed by
// serve::CacheKey. One entry per file (`<dir>/<key>.json`), written
// atomically, so concurrent readers/writers on a shared filesystem see
// whole entries or none — the same torn-file contract as shard results.
//
// An entry records the SPEC it was computed from (trials = the covered
// count, seed = the entry's canonical seed) next to the complete merged
// RESULT, plus the writing binary's identity. The file opens with a
// SHA-256 digest of every byte after it, so a flipped digit in a tally —
// still valid JSON — reads as corrupt. Lookups re-verify everything that
// could make a stale or damaged entry wrong — epoch match, digest, stored
// key vs file name, key recomputed from the embedded spec — and turn any
// mismatch into a MISS with a diagnostic, never into wrong bits.
#pragma once

#include <optional>
#include <string>

#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"

namespace lnc::serve {

struct CacheEntry {
  CacheKey key;
  std::uint64_t seed_stream_epoch = 0;
  std::string build_rev;  ///< diagnostic only — never part of the key
  /// The spec the result was computed from. Its `trials` is the covered
  /// trial count T' and its `base_seed` the entry's canonical seed: the
  /// key excludes both, so the FIRST writer's seed becomes canonical
  /// for the curve and later queries are served (or topped up) under it.
  scenario::ScenarioSpec spec;
  scenario::SweepResult result;  ///< complete, covering [0, spec.trials)
};

/// The entry as one JSON document. ResultStore files are this document
/// with a leading "digest" key (see ResultStore::store).
std::string entry_to_json(const CacheEntry& entry);
/// Throws std::runtime_error on malformed input (a "digest" key is
/// ignored here; ResultStore::lookup verifies it).
CacheEntry entry_from_json(const std::string& text,
                           std::vector<std::string>* warnings = nullptr);

class ResultStore {
 public:
  /// Uses `dir` as the store root, creating it (and parents) if needed.
  /// Throws std::runtime_error when the path exists but is not a
  /// directory or cannot be created.
  explicit ResultStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  std::string path_for(const CacheKey& key) const;

  /// Loads and verifies the entry for `key`. Returns nullopt when the
  /// entry is absent OR fails verification (wrong epoch, missing or
  /// mismatched digest, key mismatch, incomplete result, parse error) —
  /// with the reason in `diagnostic` when non-null. A verification
  /// failure never throws: a corrupt cache degrades to recomputation, not
  /// to an outage.
  std::optional<CacheEntry> lookup(const CacheKey& key,
                                   std::string* diagnostic = nullptr) const;

  /// Persists the entry atomically at path_for(entry.key), stamping the
  /// current epoch/build rev and prefixing the content digest. Requires a
  /// complete result whose covered trials equal entry.spec.trials.
  /// Returns empty on success, else a human-readable error.
  std::string store(CacheEntry entry) const;

 private:
  std::string dir_;
};

}  // namespace lnc::serve
