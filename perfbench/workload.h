// Seeded inputs of the soid benchmark: the three named workloads, their
// query pools and request sequences, and the live-ingest writer's batch
// stream. Everything here is a pure function of (workload, seed, size),
// so two runs with one seed measure the identical multiset of requests
// and replay the identical overlay sizes. See perfbench/README.md.
#ifndef SOI_PERFBENCH_WORKLOAD_H_
#define SOI_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/soi_query.h"
#include "geometry/box.h"
#include "ingest/live_world.h"
#include "objects/poi.h"
#include "text/vocabulary.h"

namespace soi {
namespace perfbench {

/// The eps values the snapshot preloads into the serving engine, as
/// `soid --snapshot` would serve them.
inline const std::vector<double> kPreloadedEps = {0.0004, 0.0005, 0.0007};

/// The grid cell size of the snapshot and of the live world.
inline constexpr double kCellSize = 0.0005;

struct WorkloadSpec {
  std::string name;
  /// The eps values requests use, in popularity order.
  std::vector<double> eps_values;
  /// Zipf exponent of the eps popularity; 0 spreads requests evenly.
  double eps_theta = 0.0;
  /// True for live-ingest: a LiveWorld base build with a writer thread
  /// beside the readers, instead of a snapshot warm start.
  bool live = false;
  /// Rounds (passes over the query pool) per second of --seconds. The
  /// request count is fixed by --seconds, never by elapsed time.
  double rounds_per_second = 0.8;
};

/// The spec named `name`, or false when no workload has that name.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// The pool of distinct queries and the request sequence over it.
struct RequestPlan {
  std::vector<SoiQuery> pool;
  /// One untimed request per eps value, in popularity order: pool
  /// indices. Leaves every workload's eps cache in a fixed state.
  std::vector<int> warmup;
  /// The timed requests: `repeats` rounds, each a permutation of the
  /// pool, so every round sends the identical multiset of queries. The
  /// rounds' eps order is fixed; the seed orders the queries within it.
  std::vector<int> sequence;
  /// Order-sensitive hash of the sequence's queries (self-test hook).
  uint64_t fingerprint = 0;
};

/// Builds `pool_size` queries: |Psi| cycles through 1..4 and k through
/// {10, 50}; the keywords are drawn Zipf-weighted (without repeats
/// inside one query) from `categories`; eps counts follow the spec's
/// popularity; duplicates are redrawn so the pool is distinct.
RequestPlan MakeRequestPlan(const WorkloadSpec& spec,
                            const Vocabulary& vocabulary,
                            const std::vector<std::string>& categories,
                            int pool_size, int repeats, uint64_t seed);

/// The live-ingest writer's schedule.
struct WriterPlan {
  int batches = 80;
  int inserts_per_batch = 40;
  int deletes_per_batch = 10;
  double period_seconds = 0.1;
  /// Compact() after every this many batches (the final batch excluded:
  /// the run compacts once more after the timed phase).
  int compact_every_batches = 40;
};

/// Generates the writer's batches and mirrors the live-id space of the
/// world they are applied to: inserts append ids, deletes pick a seeded
/// live id, and OnCompacted() replays the dense renumbering, so every
/// delete names a live POI and a rejected batch means the program
/// regressed.
class WriterMirror {
 public:
  /// `templates` are the base POIs inserts copy keywords and weight
  /// from; `bounds` is the world's fixed geometry.
  WriterMirror(const std::vector<Poi>& templates, const Box& bounds,
               uint64_t seed);

  /// The next batch; the mirror advances as if it is applied.
  ingest::UpdateBatch NextBatch(const WriterPlan& plan);
  /// Records a Compact(): live ids become 0..n-1 in live-id order.
  void OnCompacted();

  int64_t num_live() const { return static_cast<int64_t>(live_.size()); }

 private:
  const std::vector<Poi>& templates_;
  Box bounds_;
  Rng rng_;
  /// Live ids; deletes swap-remove a seeded position.
  std::vector<PoiId> live_;
  /// The id the next insert receives.
  PoiId next_id_ = 0;
};

}  // namespace perfbench
}  // namespace soi

#endif  // SOI_PERFBENCH_WORKLOAD_H_
