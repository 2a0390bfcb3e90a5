#include <set>
#include <vector>

#include "common/random.h"
#include "grid/global_inverted_index.h"
#include "grid/live_poi_view.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

Box TestBox() { return Box::FromCorners(Point{0, 0}, Point{1, 1}); }

// The SL1 aggregation through the static (null-overlay) LivePoiView.
std::vector<GlobalInvertedIndex::Entry> QueryCellList(
    const KeywordSet& query, const PoiGridIndex& grid,
    const GlobalInvertedIndex& index) {
  LivePoiView::QueryCellScratch scratch;
  std::vector<GlobalInvertedIndex::Entry> result;
  LivePoiView(grid, index).BuildQueryCellList(query, &scratch, &result);
  return result;
}

TEST(GlobalInvertedIndexTest, EntriesSortedDescendingAndCorrect) {
  Vocabulary vocabulary;
  Rng rng(1);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 600, 12, &vocabulary, &rng);
  PoiGridIndex grid(TestBox(), 0.2, pois);
  GlobalInvertedIndex index(grid);
  for (KeywordId keyword = 0; keyword < vocabulary.size(); ++keyword) {
    const auto& entries = index.Entries(keyword);
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(entries[i - 1].num_pois, entries[i].num_pois);
      }
      // num_pois matches the local posting list length.
      Span<uint32_t> postings =
          grid.Cell(entries[i].cell).FindPostings(keyword);
      ASSERT_FALSE(postings.empty());
      EXPECT_EQ(entries[i].num_pois, static_cast<int64_t>(postings.size()));
    }
  }
}

TEST(LivePoiViewQueryCellListTest, UnknownKeywordHasNoEntries) {
  std::vector<Poi> pois(1);
  pois[0].position = Point{0.5, 0.5};
  pois[0].keywords = KeywordSet({0});
  PoiGridIndex grid(TestBox(), 0.5, pois);
  GlobalInvertedIndex index(grid);
  // Regression for the dense CSR layout: ids beyond the indexed range
  // and negative ids must keep the empty-list fallback of the old
  // hash-map storage (not read out of bounds).
  EXPECT_TRUE(index.Entries(12345).empty());
  EXPECT_TRUE(index.Entries(index.num_keywords()).empty());
  EXPECT_TRUE(index.Entries(-1).empty());
  // A query mixing known and unknown keywords aggregates only the known
  // ones instead of failing.
  std::vector<GlobalInvertedIndex::Entry> known =
      QueryCellList(KeywordSet({0}), grid, index);
  std::vector<GlobalInvertedIndex::Entry> mixed =
      QueryCellList(KeywordSet({0, 12345}), grid, index);
  EXPECT_EQ(known, mixed);
}

TEST(GlobalInvertedIndexTest, CoversEveryCellContainingKeyword) {
  Vocabulary vocabulary;
  Rng rng(2);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 300, 6, &vocabulary, &rng);
  PoiGridIndex grid(TestBox(), 0.25, pois);
  GlobalInvertedIndex index(grid);
  for (KeywordId keyword = 0; keyword < vocabulary.size(); ++keyword) {
    std::set<CellId> listed;
    for (const auto& entry : index.Entries(keyword)) {
      listed.insert(entry.cell);
    }
    for (CellId cell : grid.NonEmptyCells()) {
      bool has = !grid.Cell(cell).FindPostings(keyword).empty();
      EXPECT_EQ(listed.count(cell) > 0, has);
    }
  }
}

// |P_Psi(c)| of Algorithm 1 line 2 (LivePoiView::BuildQueryCellList)
// must upper-bound the true relevant count and never exceed |P_c|.
class QueryCellListProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryCellListProperty, BoundsTrueRelevantCount) {
  Vocabulary vocabulary;
  Rng rng(GetParam());
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 500, 6, &vocabulary, &rng);
  PoiGridIndex grid(TestBox(), 0.2, pois);
  GlobalInvertedIndex index(grid);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<KeywordId> q;
    int64_t nq = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < nq; ++i) {
      q.push_back(static_cast<KeywordId>(rng.UniformInt(0, 5)));
    }
    KeywordSet query(q);
    auto list = QueryCellList(query, grid, index);
    // Sorted decreasingly.
    for (size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i - 1].num_pois, list[i].num_pois);
    }
    std::set<CellId> listed;
    for (const auto& entry : list) {
      listed.insert(entry.cell);
      int64_t true_count = grid.CountRelevantInCell(entry.cell, query);
      EXPECT_GE(entry.num_pois, true_count);
      EXPECT_LE(entry.num_pois, grid.NumPoisInCell(entry.cell));
      EXPECT_GT(entry.num_pois, 0);
    }
    // Completeness: any cell with a relevant POI is listed.
    for (CellId cell : grid.NonEmptyCells()) {
      if (grid.CountRelevantInCell(cell, query) > 0) {
        EXPECT_TRUE(listed.count(cell) > 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryCellListProperty,
                         ::testing::Values(5, 6, 7, 8));

TEST(LivePoiViewQueryCellListTest, SingleKeywordQueryListEqualsEntries) {
  Vocabulary vocabulary;
  Rng rng(3);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 200, 5, &vocabulary, &rng);
  PoiGridIndex grid(TestBox(), 0.3, pois);
  GlobalInvertedIndex index(grid);
  KeywordId keyword = 0;
  auto list = QueryCellList(KeywordSet({keyword}), grid, index);
  const auto& entries = index.Entries(keyword);
  ASSERT_EQ(list.size(), entries.size());
  for (size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(list[i].cell, entries[i].cell);
    EXPECT_EQ(list[i].num_pois, entries[i].num_pois);
  }
}

}  // namespace
}  // namespace soi
