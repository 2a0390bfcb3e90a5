// Queries with many keywords: the posting-list merge of UpdateInterest
// must handle any |Psi|, not just the handful of keywords the paper's
// workloads use. The soid decoder admits up to kMaxQueryKeywords ids, so
// a wide query reaches the merge from the wire. Here 20 one-keyword POIs
// share one grid cell and the query names all 20 keywords, so a single
// cell merge sees 20 non-empty posting lists — through SoiAlgorithm,
// through SoiBaseline, and through a served soid query.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/query_engine.h"
#include "core/soi_algorithm.h"
#include "core/soi_baseline.h"
#include "gtest/gtest.h"
#include "serve/client.h"
#include "serve/server.h"
#include "test_util.h"

namespace soi {
namespace {

constexpr int kWidth = 20;
constexpr double kCellSize = 0.004;
constexpr double kEps = 0.002;

struct WideInstance {
  RoadNetwork network;
  std::vector<Poi> pois;
  GridGeometry geometry;
  PoiGridIndex grid;
  GlobalInvertedIndex global_index;
  SegmentCellIndex segment_cells;

  WideInstance()
      : network(testing_util::MakeGridNetwork(3, 3, 0.01)),
        pois(MakePois()),
        geometry(network.bounds().Expanded(0.005), kCellSize),
        grid(geometry.bounds(), kCellSize, pois),
        global_index(grid),
        segment_cells(network, geometry) {}

  // POI i carries only keyword i and sits just off the street y = 0, all
  // inside one cell.
  static std::vector<Poi> MakePois() {
    std::vector<Poi> pois(kWidth);
    for (int i = 0; i < kWidth; ++i) {
      pois[static_cast<size_t>(i)].position =
          Point{0.0041 + 0.00005 * i, 0.0002 + 0.00001 * i};
      pois[static_cast<size_t>(i)].keywords =
          KeywordSet({static_cast<KeywordId>(i)});
    }
    return pois;
  }
};

SoiQuery WideQuery() {
  std::vector<KeywordId> ids;
  for (int i = 0; i < kWidth; ++i) ids.push_back(static_cast<KeywordId>(i));
  SoiQuery query;
  query.keywords = KeywordSet(ids);
  query.k = 3;
  query.eps = kEps;
  return query;
}

void ExpectBitIdentical(const std::vector<RankedStreet>& got,
                        const std::vector<RankedStreet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].street, want[i].street) << "rank " << i;
    EXPECT_EQ(got[i].best_segment, want[i].best_segment) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].interest),
              std::bit_cast<uint64_t>(want[i].interest))
        << "rank " << i;
  }
}

TEST(WideQueryTest, AllKeywordsShareOneCell) {
  WideInstance instance;
  const CellId cell = instance.geometry.CellOf(instance.pois[0].position);
  for (const Poi& poi : instance.pois) {
    ASSERT_EQ(instance.geometry.CellOf(poi.position), cell);
  }
  EXPECT_EQ(instance.grid.Cell(cell).keywords.size(),
            static_cast<size_t>(kWidth));
  EXPECT_EQ(instance.grid.CountRelevantInCell(cell, WideQuery().keywords),
            kWidth);
}

TEST(WideQueryTest, AlgorithmMatchesBaseline) {
  WideInstance instance;
  SoiQuery query = WideQuery();
  EpsAugmentedMaps maps(instance.segment_cells, query.eps);
  SoiAlgorithm algorithm(instance.network, instance.grid,
                         instance.global_index);
  SoiResult result = algorithm.TopK(query, maps);
  SoiBaseline baseline(instance.network, instance.grid);
  SoiResult expected = baseline.TopK(query, maps);
  ExpectBitIdentical(result.streets, expected.streets);
  // The street the POIs line attracts every one of them.
  ASSERT_FALSE(result.streets.empty());
  EXPECT_GT(result.streets[0].interest, 0.0);
  const Segment& best =
      instance.network.segment(result.streets[0].best_segment).geometry;
  double mass = 0.0;
  for (const Poi& poi : instance.pois) {
    if (best.DistanceTo(poi.position) <= query.eps) mass += poi.weight;
  }
  EXPECT_EQ(mass, static_cast<double>(kWidth));
  EXPECT_EQ(baseline.SegmentMass(result.streets[0].best_segment,
                                 query.keywords, maps),
            mass);
}

TEST(WideQueryTest, ServedQueryMatchesDirectRun) {
  WideInstance instance;
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  QueryEngine engine(instance.network, instance.grid, instance.global_index,
                     instance.segment_cells, engine_options);
  serve::SoidServer server(&engine, serve::SoidServerOptions());
  ASSERT_TRUE(server.Start().ok());
  serve::SoidClientOptions client_options;
  client_options.port = server.port();
  client_options.io_timeout_seconds = 10.0;
  serve::SoidClient client(client_options);

  SoiQuery query = WideQuery();
  Result<serve::QueryResponse> served = client.Query(query);
  Result<SoiResult> direct = engine.TryRun(query);
  server.RequestDrain();
  ASSERT_TRUE(server.Wait().ok());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ExpectBitIdentical(served.ValueOrDie().streets,
                     direct.ValueOrDie().streets);
  ASSERT_FALSE(served.ValueOrDie().streets.empty());
  EXPECT_GT(served.ValueOrDie().streets[0].interest, 0.0);
}

}  // namespace
}  // namespace soi
