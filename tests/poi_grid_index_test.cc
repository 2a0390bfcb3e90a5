#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "grid/poi_grid_index.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

Box TestBox() { return Box::FromCorners(Point{0, 0}, Point{1, 1}); }

TEST(PoiGridIndexTest, BucketsAllPois) {
  Vocabulary vocabulary;
  Rng rng(1);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 500, 20, &vocabulary, &rng);
  PoiGridIndex index(TestBox(), 0.1, pois);
  int64_t total = 0;
  for (CellId cell : index.NonEmptyCells()) {
    total += index.NumPoisInCell(cell);
    // Every POI listed in the cell really falls in the cell's box.
    const PoiCellView bucket = index.Cell(cell);
    for (size_t slot = 0; slot < bucket.size(); ++slot) {
      const Poi& poi = pois[static_cast<size_t>(bucket.ids[slot])];
      EXPECT_TRUE(index.geometry().CellBox(cell).Contains(poi.position));
      // The struct-of-arrays columns carry the POI's exact data.
      EXPECT_EQ(bucket.x[slot], poi.position.x);
      EXPECT_EQ(bucket.y[slot], poi.position.y);
      EXPECT_EQ(bucket.w[slot], poi.weight);
    }
  }
  EXPECT_EQ(total, 500);
}

TEST(PoiGridIndexTest, PostingListsSortedAndComplete) {
  Vocabulary vocabulary;
  Rng rng(2);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 300, 10, &vocabulary, &rng);
  PoiGridIndex index(TestBox(), 0.25, pois);
  for (CellId cell : index.NonEmptyCells()) {
    const PoiCellView bucket = index.Cell(cell);
    ASSERT_FALSE(bucket.empty());
    // Ids ascend; the directory ascends and has no empty list.
    for (size_t i = 1; i < bucket.size(); ++i) {
      EXPECT_LT(bucket.ids[i - 1], bucket.ids[i]);
    }
    for (size_t j = 0; j < bucket.keywords.size(); ++j) {
      if (j > 0) {
        EXPECT_LT(bucket.keywords[j - 1], bucket.keywords[j]);
      }
      EXPECT_FALSE(bucket.Postings(j).empty());
    }
    // Each posting list is ascending and its POIs carry the keyword.
    for (size_t j = 0; j < bucket.keywords.size(); ++j) {
      Span<uint32_t> postings = bucket.Postings(j);
      for (size_t i = 0; i < postings.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(postings[i - 1], postings[i]);
        }
        ASSERT_LT(postings[i], bucket.size());
        EXPECT_TRUE(pois[static_cast<size_t>(bucket.ids[postings[i]])]
                        .keywords.Contains(bucket.keywords[j]));
      }
    }
    // Every (poi, keyword) pair in the cell appears in a posting list.
    for (uint32_t slot = 0; slot < bucket.size(); ++slot) {
      for (KeywordId keyword :
           pois[static_cast<size_t>(bucket.ids[slot])].keywords.ids()) {
        Span<uint32_t> postings = bucket.FindPostings(keyword);
        ASSERT_FALSE(postings.empty());
        EXPECT_TRUE(
            std::binary_search(postings.begin(), postings.end(), slot));
      }
    }
  }
}

TEST(PoiGridIndexTest, EmptyCellHasEmptyView) {
  std::vector<Poi> pois(1);
  pois[0].position = Point{0.05, 0.05};
  pois[0].keywords = KeywordSet({1});
  pois[0].weight = 2.5;
  PoiGridIndex index(TestBox(), 0.1, pois);
  const PoiCellView full =
      index.Cell(index.geometry().CellOf(Point{0.05, 0.05}));
  EXPECT_EQ(full.size(), 1u);
  EXPECT_EQ(full.total_weight, 2.5);
  EXPECT_EQ(full.FindPostings(1).size(), 1u);
  EXPECT_TRUE(full.FindPostings(2).empty());
  const CellId empty_cell = index.geometry().CellOf(Point{0.95, 0.95});
  const PoiCellView empty = index.Cell(empty_cell);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.keywords.empty());
  EXPECT_EQ(empty.total_weight, 0.0);
  EXPECT_EQ(index.NumPoisInCell(empty_cell), 0);
  EXPECT_TRUE(empty.FindPostings(1).empty());
}

// Multi-keyword merge: a POI carrying several query keywords must be
// reported exactly once.
TEST(PoiGridIndexTest, MergeCountsEachPoiOnce) {
  std::vector<Poi> pois(4);
  for (auto& poi : pois) poi.position = Point{0.5, 0.5};  // Same cell.
  pois[0].keywords = KeywordSet({1, 2});    // Matches both query keywords.
  pois[1].keywords = KeywordSet({1});
  pois[2].keywords = KeywordSet({2});
  pois[3].keywords = KeywordSet({3});       // Irrelevant.
  PoiGridIndex index(TestBox(), 1.0, pois);
  CellId cell = index.geometry().CellOf(Point{0.5, 0.5});
  KeywordSet query({1, 2});
  EXPECT_EQ(index.CountRelevantInCell(cell, query), 3);

  std::vector<PoiId> seen;
  const PoiCellView bucket = index.Cell(cell);
  std::vector<PostingCursor> cursors;
  MergeRelevantInCell(bucket, query, &cursors, [&](uint32_t slot) {
    seen.push_back(bucket.ids[slot]);
  });
  EXPECT_EQ(seen, (std::vector<PoiId>{0, 1, 2}));  // Ascending, unique.
}

class PoiGridRelevanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoiGridRelevanceProperty, CountMatchesBruteForcePerCell) {
  Vocabulary vocabulary;
  Rng rng(GetParam());
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 400, 8, &vocabulary, &rng);
  PoiGridIndex index(TestBox(), 0.15, pois);
  for (int trial = 0; trial < 10; ++trial) {
    // Random 1-3 keyword query.
    std::vector<KeywordId> q;
    int64_t nq = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < nq; ++i) {
      q.push_back(static_cast<KeywordId>(rng.UniformInt(0, 7)));
    }
    KeywordSet query(q);
    for (CellId cell : index.NonEmptyCells()) {
      int64_t expected = 0;
      for (PoiId id : index.Cell(cell).ids) {
        if (pois[static_cast<size_t>(id)].IsRelevantTo(query)) ++expected;
      }
      EXPECT_EQ(index.CountRelevantInCell(cell, query), expected);
    }
    // Empty cells yield zero.
    EXPECT_EQ(index.CountRelevantInCell(-1 + index.geometry().num_cells(),
                                        query) >= 0,
              true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoiGridRelevanceProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(PoiGridIndexTest, EmptyQueryMatchesNothing) {
  Vocabulary vocabulary;
  Rng rng(3);
  std::vector<Poi> pois =
      testing_util::RandomPois(TestBox(), 50, 5, &vocabulary, &rng);
  PoiGridIndex index(TestBox(), 0.2, pois);
  for (CellId cell : index.NonEmptyCells()) {
    EXPECT_EQ(index.CountRelevantInCell(cell, KeywordSet()), 0);
  }
}

}  // namespace
}  // namespace soi
