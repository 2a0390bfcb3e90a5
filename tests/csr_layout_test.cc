// The flat index layouts: CsrArray/Span unit behavior, the determinism
// contract of the CSR index builds — the serving arenas must be
// bit-identical for every thread count and to a nested-vector reference
// build — and the flat cell-grouped PoiGridIndex, which must equal a
// naive nested reference, and whose ingest-overlay replacement cells
// must equal the cells a cold build of the live dataset produces.

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/csr.h"
#include "common/random.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "datagen/dataset.h"
#include "grid/global_inverted_index.h"
#include "grid/live_poi_view.h"
#include "grid/segment_cell_index.h"
#include "gtest/gtest.h"
#include "ingest/live_world.h"
#include "test_util.h"

namespace soi {
namespace {

TEST(CsrArrayTest, FromRowsRoundTrips) {
  std::vector<std::vector<int>> rows = {{1, 2, 3}, {}, {7}, {}, {9, 10}};
  CsrArray<int> csr = CsrArray<int>::FromRows(rows);
  ASSERT_EQ(csr.num_rows(), 5);
  EXPECT_EQ(csr.num_values(), 6);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(csr.Row(static_cast<int64_t>(i)), rows[i]) << "row " << i;
    EXPECT_EQ(csr.RowSize(static_cast<int64_t>(i)),
              static_cast<int64_t>(rows[i].size()));
  }
}

TEST(CsrArrayTest, StreamingBuilderMatchesFromRows) {
  std::vector<std::vector<int>> rows = {{4, 5}, {}, {6}};
  CsrArray<int> streamed;
  for (const std::vector<int>& row : rows) {
    for (int v : row) streamed.PushValue(v);
    streamed.FinishRow();
  }
  EXPECT_EQ(streamed, CsrArray<int>::FromRows(rows));
}

TEST(CsrArrayTest, AppendAllRebasesOffsets) {
  CsrArray<int> a = CsrArray<int>::FromRows({{1}, {2, 3}});
  CsrArray<int> b = CsrArray<int>::FromRows({{}, {4}});
  CsrArray<int> merged;
  merged.AppendAll(a);
  merged.AppendAll(b);
  EXPECT_EQ(merged, CsrArray<int>::FromRows({{1}, {2, 3}, {}, {4}}));
}

TEST(CsrArrayTest, FromRowCountsAllocatesZeroedRows) {
  CsrArray<int> csr = CsrArray<int>::FromRowCounts({2, 0, 3});
  ASSERT_EQ(csr.num_rows(), 3);
  EXPECT_EQ(csr.RowSize(0), 2);
  EXPECT_EQ(csr.RowSize(1), 0);
  EXPECT_EQ(csr.RowSize(2), 3);
  for (int v : csr.Row(2)) EXPECT_EQ(v, 0);
  csr.mutable_row(2)[1] = 42;
  EXPECT_EQ(csr.Row(2)[1], 42);
}

TEST(SpanTest, ComparesAndPrints) {
  std::vector<int> values = {1, 2, 3};
  Span<int> span(values);
  EXPECT_EQ(span, values);
  EXPECT_EQ(values, span);
  EXPECT_NE(span, std::vector<int>({1, 2}));
  std::ostringstream out;
  out << span;
  EXPECT_EQ(out.str(), "[1, 2, 3]");
}

GridGeometry GeometryFor(const RoadNetwork& network, double cell_size) {
  return GridGeometry(network.bounds().Expanded(cell_size), cell_size);
}

// The CSR arenas of the base maps are bit-identical for thread counts
// {1, 2, 8} — offsets and values alike, not merely set-equal rows.
TEST(CsrLayoutDeterminismTest, SegmentCellIndexIdenticalAcrossThreads) {
  RoadNetwork network = testing_util::MakeGridNetwork(5, 6, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex reference(network, geometry, /*pool=*/nullptr);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    SegmentCellIndex parallel(network, geometry, &pool);
    EXPECT_EQ(parallel.segment_cells(), reference.segment_cells())
        << threads << " threads";
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      ASSERT_EQ(parallel.CellSegments(cell), reference.CellSegments(cell))
          << "cell " << cell << ", " << threads << " threads";
    }
  }
}

// SL2 by a comparison sort: decreasing |C_eps(l)|, ascending id.
std::vector<SegmentId> SortedByNumCells(const EpsAugmentedMaps& maps,
                                        int64_t num_segments) {
  std::vector<SegmentId> order;
  for (SegmentId id = 0; id < num_segments; ++id) order.push_back(id);
  std::sort(order.begin(), order.end(), [&](SegmentId a, SegmentId b) {
    if (maps.NumSegmentCells(a) != maps.NumSegmentCells(b)) {
      return maps.NumSegmentCells(a) > maps.NumSegmentCells(b);
    }
    return a < b;
  });
  return order;
}

TEST(CsrLayoutDeterminismTest, EpsMapsIdenticalAcrossThreads) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 5, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.0035);
  SegmentCellIndex base(network, geometry);
  EpsAugmentedMaps reference(base, 0.006, /*pool=*/nullptr);
  EXPECT_EQ(reference.SegmentsByNumCells(),
            SortedByNumCells(reference, network.num_segments()));
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    EpsAugmentedMaps parallel(base, 0.006, &pool);
    EXPECT_EQ(parallel.segment_cells(), reference.segment_cells())
        << threads << " threads";
    EXPECT_EQ(parallel.SegmentsByNumCells(), reference.SegmentsByNumCells())
        << threads << " threads";
    EpsAugmentedMaps adopted(base, 0.006,
                             CsrArray<CellId>(reference.segment_cells()),
                             &pool);
    EXPECT_EQ(adopted.SegmentsByNumCells(), reference.SegmentsByNumCells())
        << threads << " threads, adopted";
    for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
      ASSERT_EQ(parallel.CellSegments(cell), reference.CellSegments(cell))
          << "cell " << cell << ", " << threads << " threads";
    }
  }
}

// The CSR build equals a nested-vector reference build: collecting each
// segment's span back into vectors and flattening through FromRows must
// reproduce the arena exactly.
TEST(CsrLayoutDeterminismTest, ArenaMatchesNestedVectorReference) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 4, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.005);
  SegmentCellIndex index(network, geometry);
  std::vector<std::vector<CellId>> nested(
      static_cast<size_t>(network.num_segments()));
  for (SegmentId id = 0; id < network.num_segments(); ++id) {
    nested[static_cast<size_t>(id)] = index.SegmentCells(id).ToVector();
  }
  EXPECT_EQ(index.segment_cells(), CsrArray<CellId>::FromRows(nested));
}

// The snapshot adoption constructor over the serving arena reproduces the
// fresh build bit-identically (the warm-start path's core claim).
TEST(CsrLayoutDeterminismTest, AdoptionCtorsReproduceFreshBuild) {
  RoadNetwork network = testing_util::MakeGridNetwork(4, 5, 0.01);
  GridGeometry geometry = GeometryFor(network, 0.004);
  SegmentCellIndex fresh(network, geometry);
  SegmentCellIndex adopted(network, geometry,
                           CsrArray<CellId>(fresh.segment_cells()));
  EXPECT_EQ(adopted.segment_cells(), fresh.segment_cells());
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    ASSERT_EQ(adopted.CellSegments(cell), fresh.CellSegments(cell));
  }

  EpsAugmentedMaps fresh_eps(fresh, 0.005);
  EpsAugmentedMaps adopted_eps(fresh, 0.005,
                               CsrArray<CellId>(fresh_eps.segment_cells()));
  EXPECT_EQ(adopted_eps.segment_cells(), fresh_eps.segment_cells());
  for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
    ASSERT_EQ(adopted_eps.CellSegments(cell), fresh_eps.CellSegments(cell));
  }
  EXPECT_EQ(adopted_eps.SegmentsByNumCells(),
            fresh_eps.SegmentsByNumCells());
  EXPECT_EQ(fresh_eps.SegmentsByNumCells(),
            SortedByNumCells(fresh_eps, network.num_segments()));
}

// The dense KeywordId-indexed global index: the adoption constructor over
// the serving arena preserves every list and the non-empty count, and the
// query-time aggregation is identical through both.
TEST(CsrLayoutDeterminismTest, GlobalIndexAdoptionPreservesLists) {
  Vocabulary vocabulary;
  Rng rng(7);
  std::vector<Poi> pois = testing_util::RandomPois(
      Box::FromCorners(Point{0, 0}, Point{1, 1}), 400, 10, &vocabulary,
      &rng);
  PoiGridIndex grid(Box::FromCorners(Point{0, 0}, Point{1, 1}), 0.2, pois);
  GlobalInvertedIndex fresh(grid);
  GlobalInvertedIndex adopted(CsrArray<GlobalInvertedIndex::Entry>(
      fresh.lists()));
  EXPECT_EQ(adopted.num_keywords(), fresh.num_keywords());
  EXPECT_EQ(adopted.lists(), fresh.lists());
  KeywordSet query({0, 1, 2});
  LivePoiView::QueryCellScratch scratch;
  std::vector<GlobalInvertedIndex::Entry> via_fresh;
  std::vector<GlobalInvertedIndex::Entry> via_adopted;
  LivePoiView(grid, fresh).BuildQueryCellList(query, &scratch, &via_fresh);
  LivePoiView(grid, adopted).BuildQueryCellList(query, &scratch,
                                                &via_adopted);
  EXPECT_EQ(via_fresh, via_adopted);
}

// The naive nested form of one PoiGridIndex cell.
struct ReferenceCell {
  std::vector<PoiId> ids;
  std::map<KeywordId, std::vector<PoiId>> postings;
  double total_weight = 0.0;
};

// The flat cell-grouped PoiGridIndex equals a nested reference built
// the obvious way: per-cell ids, per-keyword postings, total weight bits,
// the struct-of-arrays columns, and the relevant-POI counts.
TEST(PoiGridLayoutTest, FlatIndexMatchesNestedReference) {
  const Box box = Box::FromCorners(Point{0, 0}, Point{1, 1});
  for (uint64_t seed : {3, 4, 5}) {
    Vocabulary vocabulary;
    Rng rng(seed);
    std::vector<Poi> pois =
        testing_util::RandomPois(box, 700, 15, &vocabulary, &rng);
    for (Poi& poi : pois) poi.weight = rng.UniformDouble(0.1, 3.0);
    for (double cell_size : {0.07, 0.25}) {
      PoiGridIndex grid(box, cell_size, pois);
      const GridGeometry& geometry = grid.geometry();
      std::vector<ReferenceCell> reference(
          static_cast<size_t>(geometry.num_cells()));
      for (size_t i = 0; i < pois.size(); ++i) {
        ReferenceCell& cell = reference[static_cast<size_t>(
            geometry.CellOf(pois[i].position))];
        cell.ids.push_back(static_cast<PoiId>(i));
        for (KeywordId keyword : pois[i].keywords.ids()) {
          cell.postings[keyword].push_back(static_cast<PoiId>(i));
        }
        cell.total_weight += pois[i].weight;
      }
      std::vector<CellId> non_empty;
      for (CellId cell = 0; cell < geometry.num_cells(); ++cell) {
        const ReferenceCell& want = reference[static_cast<size_t>(cell)];
        const PoiCellView got = grid.Cell(cell);
        if (!want.ids.empty()) non_empty.push_back(cell);
        ASSERT_EQ(got.ids, want.ids) << "cell " << cell;
        EXPECT_EQ(grid.NumPoisInCell(cell),
                  static_cast<int64_t>(want.ids.size()));
        EXPECT_EQ(std::bit_cast<uint64_t>(got.total_weight),
                  std::bit_cast<uint64_t>(want.total_weight))
            << "cell " << cell;
        for (size_t slot = 0; slot < got.size(); ++slot) {
          const Poi& poi = pois[static_cast<size_t>(got.ids[slot])];
          EXPECT_EQ(std::bit_cast<uint64_t>(got.x[slot]),
                    std::bit_cast<uint64_t>(poi.position.x));
          EXPECT_EQ(std::bit_cast<uint64_t>(got.y[slot]),
                    std::bit_cast<uint64_t>(poi.position.y));
          EXPECT_EQ(std::bit_cast<uint64_t>(got.w[slot]),
                    std::bit_cast<uint64_t>(poi.weight));
        }
        ASSERT_EQ(got.keywords.size(), want.postings.size())
            << "cell " << cell;
        size_t entry = 0;
        for (const auto& [keyword, ids] : want.postings) {
          EXPECT_EQ(got.keywords[entry], keyword);
          std::vector<PoiId> listed;
          for (uint32_t slot : got.Postings(entry)) {
            listed.push_back(got.ids[slot]);
          }
          EXPECT_EQ(listed, ids) << "cell " << cell << " keyword " << keyword;
          ++entry;
        }
      }
      EXPECT_EQ(grid.NonEmptyCells(), non_empty);
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<KeywordId> q;
        for (int64_t i = rng.UniformInt(1, 5); i > 0; --i) {
          q.push_back(static_cast<KeywordId>(rng.UniformInt(0, 16)));
        }
        KeywordSet query(q);
        for (CellId cell : non_empty) {
          int64_t expected = 0;
          for (PoiId id : reference[static_cast<size_t>(cell)].ids) {
            if (pois[static_cast<size_t>(id)].IsRelevantTo(query)) {
              ++expected;
            }
          }
          EXPECT_EQ(grid.CountRelevantInCell(cell, query), expected);
        }
      }
    }
  }
}

// Asserts that `live` (live ids) equals `cold` (dense ids) bit for bit,
// where dense id d is live id live_ids[d].
void ExpectSameCell(const PoiCellView& live, const PoiCellView& cold,
                    const std::vector<PoiId>& live_ids, CellId cell) {
  ASSERT_EQ(live.size(), cold.size()) << "cell " << cell;
  for (size_t slot = 0; slot < live.size(); ++slot) {
    EXPECT_EQ(live.ids[slot],
              live_ids[static_cast<size_t>(cold.ids[slot])])
        << "cell " << cell;
    EXPECT_EQ(std::bit_cast<uint64_t>(live.x[slot]),
              std::bit_cast<uint64_t>(cold.x[slot]));
    EXPECT_EQ(std::bit_cast<uint64_t>(live.y[slot]),
              std::bit_cast<uint64_t>(cold.y[slot]));
    EXPECT_EQ(std::bit_cast<uint64_t>(live.w[slot]),
              std::bit_cast<uint64_t>(cold.w[slot]));
  }
  EXPECT_EQ(live.keywords, cold.keywords) << "cell " << cell;
  for (size_t entry = 0; entry < cold.keywords.size(); ++entry) {
    EXPECT_EQ(live.Postings(entry), cold.Postings(entry)) << "cell " << cell;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(live.total_weight),
            std::bit_cast<uint64_t>(cold.total_weight))
      << "cell " << cell;
}

// After randomized ingest batches (and a compaction between them), every
// cell the live view serves — the overlay's replacement cells above all —
// equals the cell a cold PoiGridIndex build over MaterializeLiveDataset()
// produces, with live ids mapped to the cold build's dense ids.
TEST(PoiGridLayoutTest, OverlayCellsMatchColdBuild) {
  constexpr double kCellSize = 0.002;
  constexpr int32_t kVocab = 12;
  const Box poi_box =
      Box::FromCorners(Point{-0.004, -0.004}, Point{0.044, 0.044});
  Dataset dataset;
  dataset.name = "layout-fixture";
  dataset.network = testing_util::MakeGridNetwork(5, 5, 0.01);
  Rng rng(17);
  dataset.pois = testing_util::RandomPois(poi_box, 600, kVocab,
                                          &dataset.vocabulary, &rng);
  ingest::LiveWorld world(std::move(dataset), kCellSize);
  const Box bounds = world.geometry().bounds();

  // Live ids of the surviving POIs, ascending (dense id -> live id).
  std::vector<PoiId> live_ids;
  for (size_t i = 0; i < world.base_dataset().pois.size(); ++i) {
    live_ids.push_back(static_cast<PoiId>(i));
  }
  PoiId next_id = static_cast<PoiId>(live_ids.size());

  for (int round = 0; round < 8; ++round) {
    if (round == 4) {
      ASSERT_TRUE(world.Compact().ok());
      next_id = static_cast<PoiId>(live_ids.size());
      for (size_t d = 0; d < live_ids.size(); ++d) {
        live_ids[d] = static_cast<PoiId>(d);
      }
    }
    ingest::UpdateBatch batch;
    for (int i = 0; i < 30; ++i) {
      Poi poi;
      poi.position =
          Point{rng.UniformDouble(bounds.min.x, bounds.max.x),
                rng.UniformDouble(bounds.min.y, bounds.max.y)};
      std::vector<KeywordId> ids;
      for (int64_t c = rng.UniformInt(1, 3); c > 0; --c) {
        ids.push_back(static_cast<KeywordId>(rng.UniformInt(0, kVocab - 1)));
      }
      poi.keywords = KeywordSet(ids);
      poi.weight = rng.UniformDouble(0.5, 2.0);
      batch.poi_inserts.push_back(std::move(poi));
    }
    for (int i = 0; i < 25; ++i) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live_ids.size()) - 1));
      batch.poi_deletes.push_back(live_ids[victim]);
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(world.ApplyBatch(batch).ok());
    for (size_t i = 0; i < batch.poi_inserts.size(); ++i) {
      live_ids.push_back(next_id++);
    }

    std::shared_ptr<const PoiEpochSnapshot> epoch = world.Pin();
    ASSERT_NE(epoch->overlay, nullptr);
    ASSERT_FALSE(epoch->overlay->cells.empty());
    const LivePoiView view = epoch->View();
    Dataset live = world.MaterializeLiveDataset();
    ASSERT_EQ(live.pois.size(), live_ids.size());
    PoiGridIndex cold(bounds, kCellSize, live.pois);
    GlobalInvertedIndex cold_global(cold);
    for (const auto& [cell, replacement] : epoch->overlay->cells) {
      ExpectSameCell(replacement->View(), cold.Cell(cell), live_ids, cell);
    }
    for (CellId cell = 0; cell < cold.geometry().num_cells(); ++cell) {
      ExpectSameCell(view.Cell(cell), cold.Cell(cell), live_ids, cell);
    }
    for (KeywordId keyword = 0; keyword < kVocab; ++keyword) {
      EXPECT_EQ(view.Entries(keyword), cold_global.Entries(keyword))
          << "round " << round << " keyword " << keyword;
    }
  }
}

}  // namespace
}  // namespace soi
