#ifndef SOI_CORE_QUERY_ENGINE_H_
#define SOI_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/soi_algorithm.h"
#include "core/soi_query.h"
#include "grid/segment_cell_index.h"

namespace soi {

class PoiEpochSource;
class ThreadPool;

/// Tuning knobs for QueryEngine.
struct QueryEngineOptions {
  /// Total concurrency: RunBatch evaluates up to this many queries at
  /// once, and single-query work (index augmentation, sorts, refinement)
  /// uses the same pool. 1 = fully sequential, no threads spawned.
  int num_threads = 1;

  /// Maximum number of memoized EpsAugmentedMaps (one per distinct eps).
  /// The LRU *completed* entry is evicted beyond this; entries whose
  /// build is still in flight are exempt (evicting one would detach the
  /// shared future concurrent same-eps requesters wait on and force a
  /// duplicate build). When every entry is in flight the cache briefly
  /// exceeds capacity — bounded by the number of concurrent distinct-eps
  /// builds — and shrinks back as builds complete and become evictable.
  /// In-flight queries keep their maps alive through shared_ptr handoff.
  /// Must be >= 1.
  size_t eps_cache_capacity = 8;

  /// Admission control (DESIGN.md "Failure model"): when positive,
  /// TryRun sheds any query that would raise the number of in-flight
  /// queries beyond this bound, returning kResourceExhausted without
  /// touching the cache or the pool. 0 (default) = unbounded. Run and
  /// RunBatch treat shedding as fatal, so bounded configurations should
  /// serve through TryRun/TryRunBatch.
  size_t max_inflight_queries = 0;

  /// Per-query algorithm options. The engine supplies `pool` (its own
  /// pool), `query_id`, `cancel` (the TryRun token) and `live_view` (the
  /// pinned epoch) itself: a non-inert `cancel` or a non-null
  /// `live_view` here is a fatal error at construction.
  SoiAlgorithmOptions algorithm;

  /// The POI epochs the engine reads (grid/live_poi_view.h): every
  /// admitted query pins one epoch from this source for its whole
  /// evaluation — Pin() copies a shared_ptr under a short leaf lock and
  /// never waits on the writer, the pinned snapshot is released when the
  /// query finishes, and the query's POI reads all see that epoch's
  /// index state. Null (default) = an engine-owned epoch 0 over the
  /// static indexes the engine was constructed over. Not owned; must
  /// outlive the engine.
  const PoiEpochSource* epoch_source = nullptr;

  /// Test/diagnostic hook: invoked outside the cache lock at the start
  /// of every eps-maps cache build, with the eps being built. The
  /// eviction regression tests use it to hold a build in flight
  /// deterministically; it must not call back into the engine.
  std::function<void(double)> build_observer;
};

/// The multi-query front end of the reproduction (the serving-path
/// substrate of ROADMAP.md): binds one dataset's network + indices, keeps
/// the per-eps augmented maps memoized behind a bounded LRU cache, and
/// evaluates query batches concurrently on an internal fixed-size
/// ThreadPool.
///
/// Determinism contract (DESIGN.md "Threading model"): for every query,
/// Run/RunBatch return results bit-identical to
/// `SoiAlgorithm::TopK(query, EpsAugmentedMaps(segment_cells, query.eps))`
/// evaluated sequentially — for any num_threads, cache capacity, or batch
/// composition. Timing fields of SoiQueryStats are excluded (wall-clock).
///
/// Thread-safe: Run/RunBatch, TryRun/TryRunBatch, and GetMaps/TryGetMaps
/// may be called from multiple threads. The referenced network and
/// indices must outlive the engine.
///
/// Failure semantics of the Try* serving path — validation, admission
/// control, deadlines/cancellation, and the no-cache-poisoning guarantee
/// for failed eps builds — are specified in DESIGN.md "Failure model".
class QueryEngine {
 public:
  /// All indices must be built over the same grid geometry (checked per
  /// query by SoiAlgorithm::TopK).
  QueryEngine(const RoadNetwork& network, const PoiGridIndex& grid,
              const GlobalInvertedIndex& global_index,
              const SegmentCellIndex& segment_cells,
              QueryEngineOptions options = {});

  /// Warm-start construction (DESIGN.md "Persistence & warm start"):
  /// like the primary constructor, but pre-seeds the eps cache with
  /// already-built augmented maps — typically restored from a snapshot
  /// (src/snapshot) — so the first queries skip the augmentation build.
  /// Every entry must be non-null and built over `segment_cells`'s grid
  /// geometry, the eps values must be distinct, and preloaded.size()
  /// must not exceed options.eps_cache_capacity. Serving through a
  /// warm-started engine is bit-identical to a cold engine that built
  /// the same maps itself; the seeded entries count as neither hits nor
  /// misses until first use.
  QueryEngine(
      const RoadNetwork& network, const PoiGridIndex& grid,
      const GlobalInvertedIndex& global_index,
      const SegmentCellIndex& segment_cells, QueryEngineOptions options,
      std::vector<std::shared_ptr<const EpsAugmentedMaps>> preloaded);

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Evaluates one query through the eps cache. A query TryRun would
  /// reject (validation failure, shed, deadline, cancellation, injected
  /// fault) is a fatal error here; this is the convenience entry point
  /// for trusted, unbounded configurations.
  SoiResult Run(const SoiQuery& query);

  /// Evaluates the batch, up to num_threads queries concurrently, and
  /// returns the results in input order. Fatal on any per-query failure,
  /// like Run.
  std::vector<SoiResult> RunBatch(const std::vector<SoiQuery>& queries);

  /// The hardened serving entry point (DESIGN.md "Failure model").
  /// Returns, instead of the result:
  ///  - kInvalidArgument if the query fails SoiQuery::Validate() —
  ///    checked before admission and before the eps cache is consulted,
  ///    so a NaN eps can never be used as a cache key;
  ///  - kResourceExhausted if admission control sheds the query
  ///    (see QueryEngineOptions::max_inflight_queries);
  ///  - kDeadlineExceeded / kCancelled if `cancel` fires before or
  ///    during evaluation (checked cooperatively per filtering
  ///    iteration, per refinement segment, and per segment of an eps
  ///    augmentation build);
  ///  - kInternal for an injected fault (SOI_FAULT_INJECTION builds).
  /// A failed eps-cache build never leaves a poisoned entry behind:
  /// the builder evicts its own entry before publishing the failure,
  /// and concurrent waiters retry against a clean slot.
  [[nodiscard]] Result<SoiResult> TryRun(
      const SoiQuery& query, const CancellationToken& cancel = {});

  /// Evaluates the batch, up to num_threads queries concurrently,
  /// returning one Result per query in input order. Failures are
  /// per-entry: invalid, shed or faulted queries report their Status
  /// while the rest return results bit-identical to the sequential
  /// reference. A deadline belongs to one query: serve deadline-bound
  /// queries through TryRun.
  ///
  /// Duplicate coalescing: queries with the same full identity
  /// <Psi, k, eps> are evaluated once, on behalf of every duplicate.
  /// Bit-identity is preserved because an identical query yields an
  /// identical evaluation (only the wall-clock timing fields, excluded
  /// from the contract, are shared instead of re-measured). Admission
  /// still charges one in-flight slot per duplicate. Coalesced
  /// duplicates are counted in soi.engine.batch_coalesced.
  [[nodiscard]] std::vector<Result<SoiResult>> TryRunBatch(
      const std::vector<SoiQuery>& queries);

  /// The memoized eps augmentation for `eps`, building (and caching) it
  /// on first use. Concurrent requests for the same eps share one build.
  /// Every lookup takes cache_mutex_ once, for a find, an LRU stamp and
  /// a shared_ptr copy; builds and waits run outside it. Fatal on a
  /// failed build; serving paths use TryGetMaps.
  std::shared_ptr<const EpsAugmentedMaps> GetMaps(double eps)
      SOI_EXCLUDES(cache_mutex_);

  /// Status-returning GetMaps: a build aborted by `cancel` (may be
  /// null) or an injected fault surfaces as kCancelled /
  /// kDeadlineExceeded / kInternal, after the failed entry has been
  /// evicted so later requests rebuild from scratch. When `cache_hit`
  /// is non-null it reports whether the lookup resolved without this
  /// call building (a completed entry or a wait on an in-flight one) —
  /// the per-query flight-recorder view of soi.cache.hits/misses.
  [[nodiscard]] Result<std::shared_ptr<const EpsAugmentedMaps>> TryGetMaps(
      double eps, const CancellationToken* cancel = nullptr,
      bool* cache_hit = nullptr) SOI_EXCLUDES(cache_mutex_);

  /// Cumulative eps-cache counters (monotone since construction).
  struct CacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;

    double HitRate() const {
      int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  /// Reads the cache counters without taking `cache_mutex_`: each field
  /// is a relaxed atomic load, so scraping metrics never blocks (nor is
  /// blocked by) an in-flight batch. Consistency contract: every counter
  /// is individually monotone and exact; a read concurrent with a lookup
  /// may observe the hit/miss of that lookup before or after — there is
  /// no cross-counter atomicity, which scrapers must (and do) tolerate.
  CacheStats cache_stats() const;

  /// A JSON object with this engine's cache counters plus a snapshot of
  /// the global metrics registry (counters/gauges/histograms; empty
  /// sections under SOI_OBSERVABILITY=OFF). This is the serving-path
  /// metrics export the bench harnesses embed in BENCH_*.json.
  std::string MetricsJson() const;

  int num_threads() const;
  const SoiAlgorithm& algorithm() const { return algorithm_; }

  /// Number of live eps-cache entries (test/diagnostic hook; takes
  /// cache_mutex_).
  size_t cache_size() const SOI_EXCLUDES(cache_mutex_);

 private:
  /// What a cache entry's future resolves to: the maps on success, or
  /// the build failure. Publishing a Status (rather than broken-promise
  /// exceptions) keeps waiters on the no-exceptions serving path.
  struct MapsPayload {
    std::shared_ptr<const EpsAugmentedMaps> maps;
    Status status;
  };
  using MapsFuture = std::shared_future<MapsPayload>;

  struct CacheEntry {
    /// Resolves when the build finishes; waited on (outside
    /// cache_mutex_) only while ready_maps is still null.
    MapsFuture maps;
    /// Set under cache_mutex_ once the build has succeeded. Null exactly
    /// while the build is in flight; in-flight entries are exempt from
    /// eviction (see QueryEngineOptions::eps_cache_capacity), and a
    /// failed builder erases its own entry.
    std::shared_ptr<const EpsAugmentedMaps> ready_maps;
    /// LRU stamp from cache_tick_, refreshed on every lookup.
    uint64_t last_used = 0;
    /// Distinguishes this entry from any later entry for the same eps,
    /// so a failed builder evicts only its own entry (never a healthy
    /// replacement raced in by a retrying waiter).
    uint64_t id = 0;
  };

  /// Admission control: claims one in-flight slot. Returns OK with the
  /// slot held (the caller releases it), or — when the claim raises the
  /// count beyond max_inflight_queries — releases the slot again and
  /// returns kResourceExhausted naming the count this claim observed.
  Status Admit();

  /// The one query path behind TryRun and TryRunBatch. Serves `query`
  /// for `n` logical requesters: validates it, admits each requester
  /// (in order), pins an epoch, looks up or builds the eps maps and
  /// evaluates once on behalf of every admitted requester. Engages
  /// out[0..n) with each requester's outcome and leaves exactly one
  /// QueryRecord per requester in the flight recorder: the first
  /// requester the evaluation served (or requester 0 when it served
  /// none) carries the wall time, the others are marked coalesced.
  void Serve(const SoiQuery& query, const CancellationToken& cancel,
             size_t n, std::optional<Result<SoiResult>>* out);

  const SegmentCellIndex* segment_cells_;
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1
  SoiAlgorithm algorithm_;
  // Set when options_.epoch_source is null: epoch 0 over the indexes the
  // engine was constructed over.
  std::unique_ptr<const PoiEpochSource> static_epochs_;
  // Where every admitted query pins its epoch: options_.epoch_source or
  // static_epochs_.
  const PoiEpochSource* epochs_;

  // Lock-ordering invariant: cache_mutex_ is a LEAF lock. While holding
  // it, the engine never submits pool work, never blocks on a future,
  // never runs user callbacks (build_observer runs before the build,
  // outside the lock), never takes another engine lock, and never frees
  // maps (an evicted entry is moved out and destroyed after unlock).
  // Builds and observability exports happen outside the critical
  // sections, which are limited to map bookkeeping.
  mutable Mutex cache_mutex_{"core.QueryEngine.eps_cache",
                             lock_graph::kRankLeaf};
  std::unordered_map<double, CacheEntry> cache_ SOI_GUARDED_BY(cache_mutex_);
  // Monotone logical clock for LRU recency.
  uint64_t cache_tick_ SOI_GUARDED_BY(cache_mutex_) = 0;
  uint64_t next_entry_id_ SOI_GUARDED_BY(cache_mutex_) = 0;
  // Admitted requesters currently being served (admission control).
  std::atomic<int64_t> inflight_{0};
  // Bumped after each lookup's critical section, read lock-free by
  // cache_stats() (see its contract above).
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> cache_evictions_{0};
};

}  // namespace soi

#endif  // SOI_CORE_QUERY_ENGINE_H_
