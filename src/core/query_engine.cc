#include "core/query_engine.h"

#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "grid/live_poi_view.h"
#include "obs/json_export.h"
#include "obs/obs.h"

namespace soi {

namespace {

// Bumps the per-failure-class serving counters of a failed evaluation.
void CountQueryFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      SOI_OBS_COUNTER_ADD("soi.engine.deadline_exceeded", 1);
      break;
    case StatusCode::kCancelled:
      SOI_OBS_COUNTER_ADD("soi.engine.cancelled", 1);
      break;
    default:
      break;
  }
}

// The epochs of an engine without an epoch source: one immutable
// epoch 0 over the indexes the engine was constructed over. Pin() copies
// a shared_ptr — no lock, no allocation.
class StaticEpochSource final : public PoiEpochSource {
 public:
  StaticEpochSource(const PoiGridIndex& grid,
                    const GlobalInvertedIndex& global) {
    auto snapshot = std::make_shared<PoiEpochSnapshot>();
    snapshot->grid = &grid;
    snapshot->global = &global;
    snapshot_ = std::move(snapshot);
  }

  std::shared_ptr<const PoiEpochSnapshot> Pin() const override {
    return snapshot_;
  }

 private:
  std::shared_ptr<const PoiEpochSnapshot> snapshot_;
};

// Flight-recorder identity fields of one query (and its fresh id).
// Callers gate on obs::kEnabled: under SOI_OBSERVABILITY=OFF the id
// macro yields 0 and nothing is recorded.
obs::QueryRecord MakeQueryRecord(const SoiQuery& query) {
  obs::QueryRecord record;
  record.query_id = SOI_OBS_NEXT_QUERY_ID();
  record.psi_size = static_cast<int32_t>(query.keywords.size());
  record.k = query.k;
  record.eps = query.eps;
  record.keyword_ids = query.keywords.ids();
  return record;
}

// Copies the per-query evaluation stats into the flight record.
void FillRecordFromStats(const SoiQueryStats& stats,
                         obs::QueryRecord* record) {
  record->lists_seconds = stats.list_construction_seconds;
  record->filter_seconds = stats.filtering_seconds;
  record->refine_seconds = stats.refinement_seconds;
  record->iterations = stats.iterations;
  record->cells_popped = stats.cells_popped;
  record->segments_popped = stats.segments_popped;
  record->segments_seen = stats.segments_seen;
  record->segments_finalized = stats.segments_finalized_in_refinement;
  record->poi_distance_checks = stats.poi_distance_checks;
}

// Canonical byte key of a query's full identity <Psi, k, eps> for batch
// coalescing. KeywordSet ids are sorted and deduplicated, so identical
// queries produce identical keys. Raw double bits keep the key exact
// (coalescing must never merge queries whose eps merely prints alike).
std::string QueryIdentityKey(const SoiQuery& query) {
  const std::vector<KeywordId>& ids = query.keywords.ids();
  std::string key;
  key.reserve(sizeof(query.eps) + sizeof(query.k) +
              ids.size() * sizeof(KeywordId));
  auto append = [&key](const void* bytes, size_t n) {
    key.append(static_cast<const char*>(bytes), n);
  };
  append(&query.eps, sizeof(query.eps));
  append(&query.k, sizeof(query.k));
  for (KeywordId id : ids) append(&id, sizeof(id));
  return key;
}

}  // namespace

QueryEngine::QueryEngine(const RoadNetwork& network, const PoiGridIndex& grid,
                         const GlobalInvertedIndex& global_index,
                         const SegmentCellIndex& segment_cells,
                         QueryEngineOptions options)
    : segment_cells_(&segment_cells),
      options_(std::move(options)),
      pool_(options_.num_threads > 1
                ? std::make_unique<ThreadPool>(options_.num_threads)
                : nullptr),
      algorithm_(network, grid, global_index, pool_.get()),
      static_epochs_(options_.epoch_source == nullptr
                         ? std::make_unique<StaticEpochSource>(grid,
                                                               global_index)
                         : nullptr),
      epochs_(options_.epoch_source != nullptr ? options_.epoch_source
                                               : static_epochs_.get()) {
  SOI_CHECK(options_.num_threads >= 1) << "num_threads must be >= 1";
  SOI_CHECK(options_.eps_cache_capacity >= 1)
      << "eps_cache_capacity must be >= 1";
  // Both are replaced on every query; a configured value would be
  // silently ignored.
  SOI_CHECK(!options_.algorithm.cancel.cancellable())
      << "QueryEngineOptions::algorithm.cancel is replaced per query; "
         "pass the token to TryRun instead";
  SOI_CHECK(options_.algorithm.live_view == nullptr)
      << "QueryEngineOptions::algorithm.live_view is replaced per query; "
         "set QueryEngineOptions::epoch_source instead";
  options_.algorithm.pool = pool_.get();
}

QueryEngine::QueryEngine(
    const RoadNetwork& network, const PoiGridIndex& grid,
    const GlobalInvertedIndex& global_index,
    const SegmentCellIndex& segment_cells, QueryEngineOptions options,
    std::vector<std::shared_ptr<const EpsAugmentedMaps>> preloaded)
    : QueryEngine(network, grid, global_index, segment_cells,
                  std::move(options)) {
  SOI_CHECK(preloaded.size() <= options_.eps_cache_capacity)
      << "warm start: " << preloaded.size()
      << " preloaded maps exceed eps_cache_capacity="
      << options_.eps_cache_capacity;
  [[maybe_unused]] size_t cache_size_after = 0;
  {
    MutexLock lock(cache_mutex_);
    for (std::shared_ptr<const EpsAugmentedMaps>& maps : preloaded) {
      SOI_CHECK(maps != nullptr) << "warm start: null preloaded maps";
      double eps = maps->eps();
      // A completed entry needs no future: lookups return ready_maps.
      CacheEntry entry;
      entry.ready_maps = std::move(maps);
      entry.last_used = ++cache_tick_;
      entry.id = ++next_entry_id_;
      bool inserted = cache_.emplace(eps, std::move(entry)).second;
      SOI_CHECK(inserted) << "warm start: duplicate preloaded eps="
                          << FormatDouble(eps);
    }
    cache_size_after = cache_.size();
  }
  SOI_OBS_GAUGE_SET("soi.cache.size",
                    static_cast<int64_t>(cache_size_after));
}

QueryEngine::~QueryEngine() = default;

int QueryEngine::num_threads() const {
  return pool_ ? options_.num_threads : 1;
}

std::shared_ptr<const EpsAugmentedMaps> QueryEngine::GetMaps(double eps) {
  Result<std::shared_ptr<const EpsAugmentedMaps>> maps = TryGetMaps(eps);
  SOI_CHECK(maps.ok()) << "eps augmentation build failed: "
                       << maps.status().ToString();
  return std::move(maps).ValueOrDie();
}

Result<std::shared_ptr<const EpsAugmentedMaps>> QueryEngine::TryGetMaps(
    double eps, const CancellationToken* cancel, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Bounded retry: a waiter that observes a peer's failed build loops
  // around and — the failed entry having been evicted by its builder —
  // typically becomes the new builder. The bound only guards against a
  // pathological fault plan failing every rebuild.
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::shared_ptr<const EpsAugmentedMaps> ready;
    MapsFuture future;
    // Engaged only on a miss: a hit constructs no promise.
    std::optional<std::promise<MapsPayload>> promise;
    // The evicted entry, destroyed after cache_mutex_ is released so a
    // multi-MB EpsAugmentedMaps is never freed inside the lock.
    std::optional<CacheEntry> evicted;
    uint64_t my_id = 0;
    [[maybe_unused]] size_t cache_size_after = 0;
    {
      // The one critical section: map bookkeeping only (cache_mutex_ is
      // a leaf lock — see query_engine.h); counters and gauges are
      // emitted after release.
      MutexLock lock(cache_mutex_);
      auto it = cache_.find(eps);
      if (it != cache_.end()) {
        it->second.last_used = ++cache_tick_;
        if (it->second.ready_maps != nullptr) {
          ready = it->second.ready_maps;  // completed: a hit
        } else {
          future = it->second.maps;  // in flight: a hit that waits
        }
      } else {
        if (cache_.size() >= options_.eps_cache_capacity) {
          // LRU among *completed* entries only: evicting an in-flight
          // build would detach the shared future concurrent same-eps
          // requesters are about to wait on, and the next same-eps
          // request would start a duplicate build. If every entry is in
          // flight, nothing is evictable and the cache temporarily runs
          // over capacity (bounded by the number of concurrent
          // distinct-eps builds).
          auto victim = cache_.end();
          for (auto entry = cache_.begin(); entry != cache_.end();
               ++entry) {
            if (entry->second.ready_maps == nullptr) continue;
            if (victim == cache_.end() ||
                entry->second.last_used < victim->second.last_used) {
              victim = entry;
            }
          }
          if (victim != cache_.end()) {
            evicted.emplace(std::move(victim->second));
            cache_.erase(victim);
          }
        }
        promise.emplace();
        future = promise->get_future().share();
        my_id = ++next_entry_id_;
        CacheEntry entry;
        entry.maps = future;
        entry.last_used = ++cache_tick_;
        entry.id = my_id;
        cache_.emplace(eps, std::move(entry));
        cache_size_after = cache_.size();
      }
    }
    const bool did_evict = evicted.has_value();
    evicted.reset();

    if (!promise.has_value()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      SOI_OBS_COUNTER_ADD("soi.cache.hits", 1);
      if (ready != nullptr) {
        if (cache_hit != nullptr) *cache_hit = true;
        return ready;
      }
      MapsPayload payload = future.get();  // blocks on the build in flight
      if (payload.status.ok()) {
        if (cache_hit != nullptr) *cache_hit = true;
        return payload.maps;
      }
      continue;  // peer's build failed and was evicted; retry
    }

    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    SOI_OBS_COUNTER_ADD("soi.cache.misses", 1);
    if (did_evict) {
      cache_evictions_.fetch_add(1, std::memory_order_relaxed);
      SOI_OBS_COUNTER_ADD("soi.cache.evictions", 1);
    }
    SOI_OBS_GAUGE_SET("soi.cache.size",
                      static_cast<int64_t>(cache_size_after));

    // Build outside the lock so other eps values proceed concurrently;
    // same-eps requesters block on the shared future instead of
    // duplicating the build. From a batch worker the inner parallel
    // loops run inline. Exceptions are the two sanctioned unwinding
    // paths (DESIGN.md "Failure model"): cooperative cancellation and
    // injected faults, both converted to Status right here.
    MapsPayload payload;
    if (options_.build_observer) options_.build_observer(eps);
    try {
      SOI_TRACE_SPAN("cache.build_maps");
      Stopwatch build_timer;
      SOI_FAULT_POINT("cache.build_maps");
      payload.maps = std::make_shared<const EpsAugmentedMaps>(
          *segment_cells_, eps, pool_.get(), cancel);
      SOI_OBS_COUNTER_ADD("soi.cache.builds", 1);
      SOI_OBS_HISTOGRAM_OBSERVE("soi.cache.build_seconds",
                                build_timer.ElapsedSeconds());
    } catch (const CancelledError& e) {
      payload.status = e.status();
    } catch (const std::exception& e) {
      payload.status = Status::Internal(
          std::string("eps augmentation build failed: ") + e.what());
    }

    // Settle our entry BEFORE publishing the payload. On failure it is
    // evicted, so a waiter that wakes on the failed payload retries
    // against a clean slot; on success it becomes a completed,
    // evictable resident. The id check keeps a healthy replacement
    // entry (raced in after our eviction by a retrying waiter)
    // untouched; on success it is defensive — eviction skips in-flight
    // entries and only this builder erases its own.
    {
      MutexLock lock(cache_mutex_);
      auto it = cache_.find(eps);
      if (it != cache_.end() && it->second.id == my_id) {
        if (payload.status.ok()) {
          it->second.ready_maps = payload.maps;
        } else {
          cache_.erase(it);
        }
      }
      cache_size_after = cache_.size();
    }
    SOI_OBS_GAUGE_SET("soi.cache.size",
                      static_cast<int64_t>(cache_size_after));
    promise->set_value(payload);
    if (payload.status.ok()) return payload.maps;
    return payload.status;  // the builder reports its own failure
  }
  return Status::Internal("eps augmentation build failed repeatedly for "
                          "eps=" + FormatDouble(eps));
}

SoiResult QueryEngine::Run(const SoiQuery& query) {
  Result<SoiResult> result = TryRun(query);
  SOI_CHECK(result.ok()) << "Run failed: " << result.status().ToString()
                         << " (use TryRun for per-query Status)";
  return std::move(result).ValueOrDie();
}

Result<SoiResult> QueryEngine::TryRun(const SoiQuery& query,
                                      const CancellationToken& cancel) {
  std::optional<Result<SoiResult>> result;
  Serve(query, cancel, 1, &result);
  return std::move(*result);
}

Status QueryEngine::Admit() {
  int64_t inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  SOI_OBS_GAUGE_SET("soi.engine.inflight", inflight);
  if (options_.max_inflight_queries == 0 ||
      inflight <= static_cast<int64_t>(options_.max_inflight_queries)) {
    return Status::OK();
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  SOI_OBS_GAUGE_SET("soi.engine.inflight", inflight - 1);
  SOI_OBS_COUNTER_ADD("soi.engine.shed", 1);
  return Status::ResourceExhausted(
      "query shed: " + std::to_string(inflight) +
      " in-flight queries exceeds max_inflight_queries=" +
      std::to_string(options_.max_inflight_queries));
}

void QueryEngine::Serve(const SoiQuery& query,
                        const CancellationToken& cancel, size_t n,
                        std::optional<Result<SoiResult>>* out) {
  // The observability envelope: `record` belongs to the requester the
  // evaluation serves first and collects what the evaluation knows
  // (cache hit, pinned epoch, phase stats). Under SOI_OBSERVABILITY=OFF
  // kEnabled is constexpr false and all of it folds away.
  obs::QueryRecord record;
  if (obs::kEnabled) record = MakeQueryRecord(query);
  Stopwatch timer;

  // Validation precedes every other step — admission included, so an
  // invalid query is kInvalidArgument on a full engine too, and the eps
  // cache lookup, so a NaN eps (NaN != NaN would miss and insert on
  // every call) can never become a cache key. Admission control is per
  // logical requester: each claims its own in-flight slot, in order,
  // for the duration of the one evaluation. A requester that finds the
  // engine full is shed individually (its slot released before the next
  // one tries).
  const Status valid = query.Validate();
  size_t primary = 0;
  int64_t num_admitted = 0;
  for (size_t i = 0; i < n; ++i) {
    Status admitted = valid.ok() ? Admit() : valid;
    if (!admitted.ok()) {
      out[i] = std::move(admitted);
    } else if (num_admitted++ == 0) {
      primary = i;
    }
  }

  if (num_admitted > 0) {
    SOI_TRACE_SPAN("engine.query");
    // TryTopK is Status-based, but an injected fault inside its parallel
    // refinement still unwinds as an exception; convert it here so the
    // serving boundary is exception-free.
    auto evaluate = [&]() -> Result<SoiResult> {
      SOI_RETURN_NOT_OK(cancel.Check());
      // Pin one epoch for the whole evaluation. The snapshot's
      // shared_ptr (and through it the overlay / compacted arenas)
      // stays alive until this frame returns, so the view's borrowed
      // pointers are valid for every read the algorithm performs.
      // Pinned after admission so shed queries never delay overlay
      // reclamation.
      std::shared_ptr<const PoiEpochSnapshot> epoch = epochs_->Pin();
      const LivePoiView view = epoch->View();
      record.ingest_epoch = epoch->epoch;
      SOI_ASSIGN_OR_RETURN(
          std::shared_ptr<const EpsAugmentedMaps> maps,
          TryGetMaps(query.eps, cancel.cancellable() ? &cancel : nullptr,
                     &record.cache_hit));
      SoiAlgorithmOptions algorithm_options = options_.algorithm;
      algorithm_options.cancel = cancel;
      algorithm_options.live_view = &view;
      // Exemplar attribution for the per-phase latency histograms
      // (plain data; 0 under SOI_OBSERVABILITY=OFF).
      algorithm_options.query_id = record.query_id;
      try {
        return algorithm_.TryTopK(query, *maps, algorithm_options);
      } catch (const CancelledError& e) {
        return e.status();
      } catch (const std::exception& e) {
        return Status::Internal(std::string("query evaluation failed: ") +
                                e.what());
      }
    };
    Result<SoiResult> served = evaluate();
    // The gauge is a last-write-wins level for introspection: a racing
    // Set blurs it, never admission (which reads the atomic).
    inflight_.fetch_sub(num_admitted, std::memory_order_relaxed);
    SOI_OBS_GAUGE_SET("soi.engine.inflight",
                      inflight_.load(std::memory_order_relaxed));
    if (!served.ok()) {
      CountQueryFailure(served.status().code());
    } else if (obs::kEnabled) {
      FillRecordFromStats(served.ValueOrDie().stats, &record);
    }
    for (size_t i = primary + 1; i < n; ++i) {
      if (!out[i].has_value()) out[i] = served;
    }
    out[primary] = std::move(served);
  }

  // Exactly one flight record per requester; successful evaluations
  // additionally stamp their id as the soi.engine.query_seconds
  // exemplar of their latency bucket.
  if (obs::kEnabled) {
    const Result<SoiResult>& first = *out[primary];
    record.total_seconds = timer.ElapsedSeconds();
    record.status = first.ok() ? StatusCode::kOk : first.status().code();
    SOI_OBS_FLIGHT_RECORD(record);
    if (first.ok()) {
      SOI_OBS_HISTOGRAM_OBSERVE_EXEMPLAR("soi.engine.query_seconds",
                                         record.total_seconds,
                                         record.query_id);
    }
    // The other requesters: coalesced, no wall time of their own; a
    // requester the evaluation served carries its phase stats and epoch.
    for (size_t i = 0; i < n; ++i) {
      if (i == primary) continue;
      const Result<SoiResult>& result = *out[i];
      obs::QueryRecord coalesced = MakeQueryRecord(query);
      coalesced.coalesced = true;
      coalesced.status =
          result.ok() ? StatusCode::kOk : result.status().code();
      if (result.ok()) {
        FillRecordFromStats(result.ValueOrDie().stats, &coalesced);
        coalesced.ingest_epoch = record.ingest_epoch;
      }
      SOI_OBS_FLIGHT_RECORD(coalesced);
    }
  }
}

std::vector<SoiResult> QueryEngine::RunBatch(
    const std::vector<SoiQuery>& queries) {
  std::vector<Result<SoiResult>> tried = TryRunBatch(queries);
  std::vector<SoiResult> results;
  results.reserve(tried.size());
  for (Result<SoiResult>& result : tried) {
    SOI_CHECK(result.ok())
        << "RunBatch failed: " << result.status().ToString()
        << " (use TryRunBatch for per-query Status)";
    results.push_back(std::move(result).ValueOrDie());
  }
  return results;
}

std::vector<Result<SoiResult>> QueryEngine::TryRunBatch(
    const std::vector<SoiQuery>& queries) {
  SOI_TRACE_SPAN("engine.run_batch");
  Stopwatch timer;
  SOI_OBS_COUNTER_ADD("soi.engine.batches", 1);
  SOI_OBS_COUNTER_ADD("soi.engine.batch_queries",
                      static_cast<int64_t>(queries.size()));
  // Coalesce duplicates (identical <Psi, k, eps>) into groups, each
  // listing its members in input order.
  std::vector<std::vector<size_t>> groups;
  {
    std::unordered_map<std::string, size_t> group_of;
    group_of.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto [it, inserted] =
          group_of.emplace(QueryIdentityKey(queries[i]), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }
  if (groups.size() < queries.size()) {
    SOI_OBS_COUNTER_ADD("soi.engine.batch_coalesced",
                        static_cast<int64_t>(queries.size() - groups.size()));
  }

  std::vector<Result<SoiResult>> results(
      queries.size(),
      Result<SoiResult>(Status::Internal(
          "query not evaluated: batch aborted before this entry ran")));
  try {
    // Dynamic work-grabbing (not static chunking): per-query cost is
    // wildly uneven — a cold eps build can take orders of magnitude
    // longer than a warm-cache query — and a static chunk containing
    // one slow query serializes every query behind it in that chunk.
    // Each group writes only its members' results, so the
    // timing-dependent claim order cannot affect the (bit-identical)
    // per-query results.
    ParallelForDynamic(
        pool_.get(), 0, static_cast<int64_t>(groups.size()),
        [&](int64_t g) {
          const std::vector<size_t>& members =
              groups[static_cast<size_t>(g)];
          std::vector<std::optional<Result<SoiResult>>> served(
              members.size());
          Serve(queries[members.front()], CancellationToken(),
                members.size(), served.data());
          for (size_t m = 0; m < members.size(); ++m) {
            results[members[m]] = std::move(*served[m]);
          }
        });
  } catch (const std::exception&) {
    // Only reachable when an injected "pool.run_chunk" fault hits the
    // batch's own outer loop: Serve itself never throws. The groups the
    // fault kept from running keep their placeholder Internal status
    // and leave no flight record; groups served by sibling participants
    // are unaffected.
  }
  SOI_OBS_HISTOGRAM_OBSERVE("soi.engine.batch_seconds",
                            timer.ElapsedSeconds());
  return results;
}

size_t QueryEngine::cache_size() const {
  // Test/diagnostic hook; counts in-flight entries too.
  MutexLock lock(cache_mutex_);
  return cache_.size();
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  stats.hits = cache_hits_.load(std::memory_order_relaxed);
  stats.misses = cache_misses_.load(std::memory_order_relaxed);
  stats.evictions = cache_evictions_.load(std::memory_order_relaxed);
  return stats;
}

std::string QueryEngine::MetricsJson() const {
  CacheStats cache = cache_stats();
  std::ostringstream out;
  JsonWriter json(&out);
  json.BeginObject();
  json.Key("cache");
  json.BeginObject();
  json.KeyValue("hits", cache.hits);
  json.KeyValue("misses", cache.misses);
  json.KeyValue("evictions", cache.evictions);
  json.KeyValue("hit_rate", cache.HitRate());
  json.EndObject();
  json.KeyValue("num_threads", static_cast<int64_t>(num_threads()));
  json.Key("registry");
  obs::WriteMetricsJson(obs::Registry::Global().Snapshot(), &json);
  json.EndObject();
  return out.str();
}

}  // namespace soi
