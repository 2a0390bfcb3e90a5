#include "workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <tuple>

#include "common/check.h"

namespace soi {
namespace perfbench {
namespace {

// Skew of the keyword draw over CityProfile::categories (profile order).
constexpr double kKeywordTheta = 0.8;
// Redraws allowed before a duplicate query is kept.
constexpr int kMaxRedraws = 1000;
// Lateral jitter of an inserted POI around the POI it copies.
constexpr double kInsertJitter = 0.0005;

// Distinct Rng streams per input, so changing one input's draws never
// shifts another's.
constexpr uint64_t kPoolStream = 11;
constexpr uint64_t kSequenceStream = 12;
constexpr uint64_t kWriterStream = 13;
// Seeds the per-round eps pattern, which is deliberately seed-independent.
constexpr uint64_t kPatternSeed = 20160315;

// Per-eps request counts summing to `total`: even when theta is 0, else
// Zipf-weighted with largest-remainder rounding.
std::vector<int> EpsCounts(size_t num_values, double theta, int total) {
  std::vector<double> weights(num_values);
  double sum = 0.0;
  for (size_t i = 0; i < num_values; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    sum += weights[i];
  }
  std::vector<int> counts(num_values);
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t i = 0; i < num_values; ++i) {
    double exact = total * weights[i] / sum;
    counts[i] = static_cast<int>(std::floor(exact));
    assigned += counts[i];
    remainders.emplace_back(exact - counts[i], i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (size_t r = 0; assigned < total; ++r, ++assigned) {
    ++counts[remainders[r % remainders.size()].second];
  }
  return counts;
}

uint64_t HashMix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  if (name == "serve-warm") {
    *out = {name, kPreloadedEps, 0.0, false, 0.8};
  } else if (name == "eps-churn") {
    // Twelve values against the engine's default eps_cache_capacity of
    // 8. The popularity order interleaves small and large eps so the
    // misses are not all on the cheapest or costliest builds.
    *out = {name,
            {0.00050, 0.00040, 0.00060, 0.00030, 0.00070, 0.00045,
             0.00055, 0.00035, 0.00065, 0.00080, 0.00075, 0.00042},
            1.0,
            false,
            // Requests cost about twice a serve-warm request (the builds),
            // so fewer rounds keep the run length alike.
            0.6};
  } else if (name == "live-ingest") {
    *out = {name, kPreloadedEps, 0.0, true, 0.8};
  } else {
    return false;
  }
  return true;
}

RequestPlan MakeRequestPlan(const WorkloadSpec& spec,
                            const Vocabulary& vocabulary,
                            const std::vector<std::string>& categories,
                            int pool_size, int repeats, uint64_t seed) {
  SOI_CHECK(pool_size >= 1 && repeats >= 1);
  std::vector<KeywordId> keyword_ids;
  for (const std::string& category : categories) {
    KeywordId id = vocabulary.Find(category);
    SOI_CHECK(id != kInvalidKeyword) << "dataset lacks keyword " << category;
    keyword_ids.push_back(id);
  }
  const ZipfSampler keyword_sampler(keyword_ids.size(), kKeywordTheta);
  Rng rng(seed, kPoolStream);

  std::vector<double> eps_list;
  std::vector<int> counts =
      EpsCounts(spec.eps_values.size(), spec.eps_theta, pool_size);
  for (size_t i = 0; i < counts.size(); ++i) {
    eps_list.insert(eps_list.end(), static_cast<size_t>(counts[i]),
                    spec.eps_values[i]);
  }
  rng.Shuffle(&eps_list);

  RequestPlan plan;
  std::set<std::tuple<std::vector<KeywordId>, int32_t, uint64_t>> seen;
  for (int i = 0; i < pool_size; ++i) {
    const size_t psi_size =
        std::min<size_t>(static_cast<size_t>(1 + i % 4), keyword_ids.size());
    SoiQuery query;
    query.k = (i / 4) % 2 == 0 ? 10 : 50;
    query.eps = eps_list[static_cast<size_t>(i)];
    for (int attempt = 0; attempt < kMaxRedraws; ++attempt) {
      std::vector<KeywordId> ids;
      while (ids.size() < psi_size) {
        KeywordId id = keyword_ids[keyword_sampler.Sample(&rng)];
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      query.keywords = KeywordSet(std::move(ids));
      if (seen.emplace(query.keywords.ids(), query.k,
                       std::bit_cast<uint64_t>(query.eps))
              .second) {
        break;
      }
    }
    plan.pool.push_back(query);
  }

  for (double eps : spec.eps_values) {
    for (size_t q = 0; q < plan.pool.size(); ++q) {
      if (std::bit_cast<uint64_t>(plan.pool[q].eps) ==
          std::bit_cast<uint64_t>(eps)) {
        plan.warmup.push_back(static_cast<int>(q));
        break;
      }
    }
  }

  // Each round's eps order is a fixed pattern, the same for every seed,
  // so the eps cache sees one access pattern and the miss count does not
  // vary with the seed; the seed picks which query of each eps fills
  // each slot.
  std::vector<std::vector<int>> by_eps(spec.eps_values.size());
  std::vector<size_t> pattern;
  for (size_t e = 0; e < spec.eps_values.size(); ++e) {
    for (int q = 0; q < pool_size; ++q) {
      if (std::bit_cast<uint64_t>(plan.pool[static_cast<size_t>(q)].eps) ==
          std::bit_cast<uint64_t>(spec.eps_values[e])) {
        by_eps[e].push_back(q);
        pattern.push_back(e);
      }
    }
  }
  Rng pattern_rng(kPatternSeed, kSequenceStream);
  Rng sequence_rng(seed, kSequenceStream);
  for (int r = 0; r < repeats; ++r) {
    pattern_rng.Shuffle(&pattern);
    std::vector<size_t> taken(by_eps.size(), 0);
    for (std::vector<int>& queries : by_eps) sequence_rng.Shuffle(&queries);
    for (size_t e : pattern) plan.sequence.push_back(by_eps[e][taken[e]++]);
  }

  uint64_t hash = 0;
  for (int q : plan.sequence) {
    const SoiQuery& query = plan.pool[static_cast<size_t>(q)];
    for (KeywordId id : query.keywords.ids()) {
      hash = HashMix(hash, static_cast<uint64_t>(id));
    }
    hash = HashMix(hash, static_cast<uint64_t>(query.k));
    hash = HashMix(hash, std::bit_cast<uint64_t>(query.eps));
  }
  plan.fingerprint = hash;
  return plan;
}

WriterMirror::WriterMirror(const std::vector<Poi>& templates,
                           const Box& bounds, uint64_t seed)
    : templates_(templates), bounds_(bounds), rng_(seed, kWriterStream) {
  SOI_CHECK(!templates_.empty());
  live_.resize(templates_.size());
  for (size_t i = 0; i < live_.size(); ++i) {
    live_[i] = static_cast<PoiId>(i);
  }
  next_id_ = static_cast<PoiId>(templates_.size());
}

ingest::UpdateBatch WriterMirror::NextBatch(const WriterPlan& plan) {
  ingest::UpdateBatch batch;
  for (int i = 0; i < plan.inserts_per_batch; ++i) {
    const Poi& source = templates_[rng_.UniformInt(templates_.size())];
    Poi poi = source;
    Point moved{source.position.x +
                    rng_.UniformDouble(-kInsertJitter, kInsertJitter),
                source.position.y +
                    rng_.UniformDouble(-kInsertJitter, kInsertJitter)};
    // Base POIs lie inside the fixed geometry, so the unjittered position
    // is always a valid fallback.
    if (bounds_.Contains(moved)) poi.position = moved;
    batch.poi_inserts.push_back(std::move(poi));
  }
  for (int i = 0; i < plan.deletes_per_batch && !live_.empty(); ++i) {
    size_t pick = rng_.UniformInt(live_.size());
    batch.poi_deletes.push_back(live_[pick]);
    live_[pick] = live_.back();
    live_.pop_back();
  }
  // This batch's inserts receive the next ids in insert order.
  for (int i = 0; i < plan.inserts_per_batch; ++i) live_.push_back(next_id_++);
  return batch;
}

void WriterMirror::OnCompacted() {
  for (size_t i = 0; i < live_.size(); ++i) {
    live_[i] = static_cast<PoiId>(i);
  }
  next_id_ = static_cast<PoiId>(live_.size());
}

}  // namespace perfbench
}  // namespace soi
