// Golden work counters: a fixed seeded city and query set must keep the
// exact deterministic counters of Algorithm 1 (iterations, popped cells
// and segments, seen and refined segments, POI distance checks) and the
// exact answer bits from one commit to the next. The other determinism
// tests compare two runs of the same build; this one pins the values, so
// a layout or scheduling change that alters how much work a query does —
// or which streets it returns — fails here even when it is self-consistent.
//
// The golden rows were recorded on the hash-map PoiGridIndex, before the
// flat cell-grouped layout replaced it.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/soi_algorithm.h"
#include "datagen/dataset.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace soi {
namespace {

struct GoldenQuery {
  std::vector<const char*> keywords;
  int32_t k;
  double eps;
};

struct GoldenRow {
  int64_t iterations;
  int64_t cells_popped;
  int64_t segments_popped;
  int64_t segments_seen;
  int64_t segments_finalized_in_refinement;
  int64_t poi_distance_checks;
  // FNV-1a over (street, best segment, interest bits) of every answer row.
  uint64_t answer_hash;
};

const std::vector<GoldenQuery>& Queries() {
  static const std::vector<GoldenQuery> queries = {
      {{"shop"}, 10, 0.0005},
      {{"food"}, 5, 0.0005},
      {{"museum"}, 3, 0.0003},
      {{"shop", "food"}, 10, 0.0007},
      {{"office"}, 20, 0.0005},
      {{"shop", "museum", "tag0"}, 10, 0.0015},
      {{"food", "office", "tag1", "tag2"}, 8, 0.001},
      {{"tag3"}, 4, 0.0004},
  };
  return queries;
}

// Recorded values, one row per entry of Queries().
const std::vector<GoldenRow>& Golden() {
  static const std::vector<GoldenRow> golden = {
      {416, 333, 83, 229, 23, 1341, 16646847945806263596ull},
      {445, 356, 89, 229, 14, 1922, 5963341807443572652ull},
      {211, 169, 42, 157, 3, 422, 4455018666310996110ull},
      {460, 368, 92, 235, 19, 3413, 12959859232735175375ull},
      {490, 392, 98, 237, 42, 4768, 8427596878017384084ull},
      {430, 344, 86, 237, 21, 15286, 12729844830849185393ull},
      {510, 408, 102, 236, 15, 14740, 16188901950544468229ull},
      {411, 329, 82, 234, 13, 1695, 14610424598354369515ull},
  };
  return golden;
}

uint64_t AnswerHash(const std::vector<RankedStreet>& streets) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (const RankedStreet& row : streets) {
    mix(static_cast<uint64_t>(row.street));
    mix(static_cast<uint64_t>(row.best_segment));
    mix(std::bit_cast<uint64_t>(row.interest));
  }
  return hash;
}

std::string Format(const GoldenRow& row) {
  return "{" + std::to_string(row.iterations) + ", " +
         std::to_string(row.cells_popped) + ", " +
         std::to_string(row.segments_popped) + ", " +
         std::to_string(row.segments_seen) + ", " +
         std::to_string(row.segments_finalized_in_refinement) + ", " +
         std::to_string(row.poi_distance_checks) + ", " +
         std::to_string(row.answer_hash) + "ull}";
}

class WorkCountersTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityProfile profile = testing_util::TinyCityProfile(42);
    profile.target_pois = 8000;
    dataset_ = new Dataset(GenerateCity(profile).ValueOrDie());
    indexes_ = BuildIndexes(*dataset_, /*cell_size=*/0.0005).release();
  }

  static void TearDownTestSuite() {
    delete indexes_;
    delete dataset_;
    indexes_ = nullptr;
    dataset_ = nullptr;
  }

  // Runs every golden query with `pool` and checks it against its row.
  static void CheckAll(ThreadPool* pool) {
    SoiAlgorithm algorithm(dataset_->network, indexes_->poi_grid,
                           indexes_->global_index);
    SoiAlgorithmOptions options;
    options.pool = pool;
    for (size_t i = 0; i < Queries().size(); ++i) {
      const GoldenQuery& spec = Queries()[i];
      SoiQuery query;
      std::vector<KeywordId> ids;
      for (const char* word : spec.keywords) {
        KeywordId id = dataset_->vocabulary.Find(word);
        ASSERT_GE(id, 0) << "keyword " << word << " missing";
        ids.push_back(id);
      }
      query.keywords = KeywordSet(ids);
      query.k = spec.k;
      query.eps = spec.eps;
      EpsAugmentedMaps maps(indexes_->segment_cells, query.eps);
      SoiResult result = algorithm.TopK(query, maps, options);
      GoldenRow actual{result.stats.iterations,
                       result.stats.cells_popped,
                       result.stats.segments_popped,
                       result.stats.segments_seen,
                       result.stats.segments_finalized_in_refinement,
                       result.stats.poi_distance_checks,
                       AnswerHash(result.streets)};
      const GoldenRow& want = Golden()[i];
      EXPECT_EQ(Format(actual), Format(want)) << "query " << i;
    }
  }

  static Dataset* dataset_;
  static DatasetIndexes* indexes_;
};

Dataset* WorkCountersTest::dataset_ = nullptr;
DatasetIndexes* WorkCountersTest::indexes_ = nullptr;

TEST_F(WorkCountersTest, SequentialMatchesGolden) { CheckAll(nullptr); }

// The parallel refinement path (FinalizeSegment's ParallelFor over
// unvisited cells) must land on the same counters and bits.
TEST_F(WorkCountersTest, PooledMatchesGolden) {
  ThreadPool pool(3);
  CheckAll(&pool);
}

}  // namespace
}  // namespace soi
