#include "core/soi_baseline.h"

#include <algorithm>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/interest.h"
#include "obs/obs.h"

namespace soi {

SoiBaseline::SoiBaseline(const RoadNetwork& network, const PoiGridIndex& grid)
    : network_(&network), grid_(&grid) {}

double SoiBaseline::SegmentMass(SegmentId id, const KeywordSet& keywords,
                                const EpsAugmentedMaps& maps) const {
  const Segment& geometry = network_->segment(id).geometry;
  double eps = maps.eps();
  double mass = 0;
  std::vector<PostingCursor> cursors;
  for (CellId cell : maps.SegmentCells(id)) {
    const PoiCellView bucket = grid_->Cell(cell);
    MergeRelevantInCell(bucket, keywords, &cursors, [&](uint32_t slot) {
      if (geometry.DistanceTo(Point{bucket.x[slot], bucket.y[slot]}) <=
          eps) {
        mass += bucket.w[slot];
      }
    });
  }
  return mass;
}

std::vector<double> SoiBaseline::AllSegmentInterests(
    const SoiQuery& query, const EpsAugmentedMaps& maps) const {
  std::vector<double> interests(
      static_cast<size_t>(network_->num_segments()), 0.0);
  for (SegmentId id = 0; id < network_->num_segments(); ++id) {
    double mass = SegmentMass(id, query.keywords, maps);
    interests[static_cast<size_t>(id)] =
        SegmentInterest(mass, network_->segment(id).length, query.eps);
  }
  return interests;
}

SoiResult SoiBaseline::TopK(const SoiQuery& query,
                            const EpsAugmentedMaps& maps) const {
  SOI_CHECK(query.k > 0);
  SOI_CHECK(query.eps > 0);
  SOI_TRACE_SPAN("soi.baseline_query");
  SoiResult result;
  Stopwatch timer;
  std::vector<double> interests = AllSegmentInterests(query, maps);
  result.streets = RankStreets(*network_, interests, query.k);
  result.stats.filtering_seconds = timer.ElapsedSeconds();
  SOI_OBS_COUNTER_ADD("soi.baseline.query_count", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.baseline.query_seconds",
                            result.stats.filtering_seconds);
  return result;
}

std::vector<RankedStreet> RankStreets(
    const RoadNetwork& network, const std::vector<double>& segment_interests,
    int32_t k) {
  SOI_CHECK(segment_interests.size() ==
            static_cast<size_t>(network.num_segments()));
  std::vector<RankedStreet> ranked;
  ranked.reserve(static_cast<size_t>(network.num_streets()));
  for (StreetId street = 0; street < network.num_streets(); ++street) {
    RankedStreet entry;
    entry.street = street;
    for (SegmentId seg : network.street(street).segments) {
      double interest = segment_interests[static_cast<size_t>(seg)];
      if (entry.best_segment < 0 || interest > entry.interest) {
        entry.interest = interest;
        entry.best_segment = seg;
      }
    }
    ranked.push_back(entry);
  }
  auto by_interest = [](const RankedStreet& a, const RankedStreet& b) {
    if (a.interest != b.interest) return a.interest > b.interest;
    return a.street < b.street;
  };
  size_t keep = std::min<size_t>(static_cast<size_t>(k), ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    by_interest);
  ranked.resize(keep);
  return ranked;
}

}  // namespace soi
