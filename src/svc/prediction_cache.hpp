// Sharded, bounded, thread-safe memoization cache for prediction results.
//
// The paper's headline use case — SLA-driven resource management across
// candidate servers — evaluates thousands of (method, server, workload)
// predictions per decision, and the extended study looks explicitly at
// caching those predictions: once calibrated, all three methods are pure
// functions of that triple, so repeated sweeps re-derive identical
// answers. Keys carry a *quantized* workload (client counts and think
// time snapped to a grid by the batch engine; see DESIGN.md for the
// policy) so near-identical queries share one entry.
//
// Each shard is an independent mutex + hash map + LRU list with a bounded
// capacity, so concurrent sweeps on the thread pool contend only when
// they collide on a shard, and hit/miss/eviction counters are kept per
// shard and aggregated on demand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/counter.hpp"
#include "util/lock_rank.hpp"

namespace epp::svc {

/// The three prediction methods the paper compares (src/core predictors).
enum class Method { kHistorical, kLqn, kHybrid };

std::string_view method_name(Method method);
/// Parse "historical" / "lqn" / "hybrid"; throws std::invalid_argument.
Method method_from_name(std::string_view name);

/// Cache key: method, server and the quantized workload (client counts
/// and think time in grid units; the quanta live in the batch engine).
struct CacheKey {
  Method method = Method::kHistorical;
  std::string server;
  std::int64_t browse_q = 0;
  std::int64_t buy_q = 0;
  std::int64_t think_q = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

/// The memoized value: everything the batch engine computes for a
/// request, so one hit answers the whole request.
struct CachedPrediction {
  double mean_rt_s = 0.0;
  double throughput_rps = 0.0;
};

struct CacheStats {
  util::Counter hits;
  util::Counter misses;
  util::Counter evictions;
  util::Counter entries;  // instantaneous, filled by stats()

  static constexpr std::tuple kFields{
      util::field("hits", &CacheStats::hits),
      util::field("misses", &CacheStats::misses),
      util::field("evictions", &CacheStats::evictions),
      util::field("entries", &CacheStats::entries)};

  double hit_ratio() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};
static_assert(util::lists_every_counter<CacheStats>());

class PredictionCache {
 public:
  /// capacity_per_shard bounds each shard's LRU list (0 disables caching
  /// entirely); shards is rounded up to a power of two, minimum 1.
  explicit PredictionCache(std::size_t capacity_per_shard = 4096,
                           std::size_t shards = 16);

  /// Find and touch (move to LRU front). Counts a hit or a miss.
  std::optional<CachedPrediction> lookup(const CacheKey& key);
  /// Insert or refresh; evicts the shard's least-recently-used entry when
  /// the shard is at capacity.
  void insert(const CacheKey& key, const CachedPrediction& value);

  /// Counters and entry count aggregated across shards.
  CacheStats stats() const;
  /// Drop all entries and reset the counters.
  void clear();

  std::size_t capacity() const noexcept {
    return capacity_per_shard_ * shards_.size();
  }

 private:
  using LruList = std::list<std::pair<CacheKey, CachedPrediction>>;
  struct Shard {
    mutable util::RankedMutex mutex{EPP_LOCK_RANK(70), "svc.cache.shard"};
    LruList lru_ EPP_GUARDED_BY(mutex);  // front = most recently used
    std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_
        EPP_GUARDED_BY(mutex);
    CacheStats counts EPP_GUARDED_BY(mutex);  // entries stays 0
  };

  Shard& shard_for(const CacheKey& key);

  std::size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace epp::svc
