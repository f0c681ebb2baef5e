// Sharded two-tier LRU cache of converged dual multipliers, the economic
// heart of the sea_serve daemon (docs/SERVING.md, "Warm-start cache").
//
// The SEA iterate is compact: the (lambda, mu) multipliers determine the
// primal in closed form (problems/solution.hpp RecoverPrimal), so caching
// the converged duals of a finished solve caches everything needed to
// answer — or to accelerate — a later request. Keys are the existing
// FNV-1a problem fingerprints (core/checkpoint.hpp), split into two tiers:
//
//   * exact tier — FingerprintProblem (mode, shape, centers, weights, AND
//     totals). A hit means the byte-identical problem was solved before;
//     the cached multipliers can be replayed through RecoverPrimal and
//     re-verified against the request's tolerance with zero iterations.
//   * nearby tier — FingerprintProblemKeys(p).structure (totals
//     excluded). A hit means the same structure was solved with different
//     totals — the perturbed-repeat pattern of production traffic
//     (re-estimating a table as fresh marginals arrive). The cached mu
//     warm-starts DiagonalSea::SolveWarm; perturbed scaling problems
//     re-converge along nearby dual trajectories, so iterations drop
//     measurably vs. cold.
//
// Sharding: entries land in shard (structure_key mod shards), so the exact
// and nearby lookups of one request touch ONE shard lock, and concurrent
// requests for different structures proceed without contention. Each shard
// holds its own LRU list of capacity ceil(capacity / shards); eviction is
// per-shard LRU. The nearby index remembers the most recent entry per
// structure key (older same-structure entries stay reachable in the LRU
// but only through their exact key) — best-effort by design, since any
// same-structure entry is an adequate warm start.
//
// Thread safety: all public methods are safe from any thread; stats are
// monotone relaxed atomics readable without the shard locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/options.hpp"
#include "linalg/dense_matrix.hpp"

namespace sea::serve {

// One cached converged solve: the duals plus the convergence contract they
// met (criterion + epsilon), so a replay can decide whether the cached
// iterate already satisfies a new request's tolerance.
struct CachedMultipliers {
  Vector lambda;
  Vector mu;
  StopCriterion criterion = StopCriterion::kResidualRel;
  double epsilon = 0.0;
  std::uint64_t iterations = 0;  // iterations the populating solve spent
};

struct WarmHit {
  enum class Tier { kExact, kNearby };
  Tier tier = Tier::kExact;
  CachedMultipliers entry;
};

struct WarmCacheStats {
  std::uint64_t hits_exact = 0;
  std::uint64_t hits_nearby = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t size = 0;
};

class WarmStartCache {
 public:
  // `capacity` entries total across `shards` shards (shards is clamped to
  // >= 1; capacity 0 disables the cache — every lookup misses).
  explicit WarmStartCache(std::size_t capacity, std::size_t shards = 8);

  // Two-tier lookup: exact key first, then the structure key. A hit
  // refreshes the entry's LRU position and returns a copy of the cached
  // multipliers (copies, so the caller never holds a shard lock while
  // solving).
  std::optional<WarmHit> Lookup(std::uint64_t exact_key,
                                std::uint64_t structure_key);

  // Inserts (or refreshes) the converged multipliers of a finished solve.
  // An existing entry under the same exact key is replaced in place.
  void Insert(std::uint64_t exact_key, std::uint64_t structure_key,
              CachedMultipliers entry);

  WarmCacheStats Stats() const;

 private:
  struct Entry {
    std::uint64_t exact_key = 0;
    std::uint64_t structure_key = 0;
    CachedMultipliers value;
  };

  struct Shard {
    std::mutex mu;
    // Front = most recently used. Iterators stay valid across splice.
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> by_exact;
    // structure key -> exact key of the most recent entry with it.
    std::unordered_map<std::uint64_t, std::uint64_t> by_structure;
  };

  Shard& ShardFor(std::uint64_t structure_key) {
    return shards_[structure_key % shards_.size()];
  }

  std::size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  mutable std::atomic<std::uint64_t> hits_exact_{0};
  mutable std::atomic<std::uint64_t> hits_nearby_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> size_{0};
};

}  // namespace sea::serve
