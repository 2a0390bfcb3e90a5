#include "grid/live_poi_view.h"

#include <algorithm>

namespace soi {

void LivePoiView::BuildQueryCellList(
    const KeywordSet& query, QueryCellScratch* scratch,
    std::vector<GlobalInvertedIndex::Entry>* result) const {
  using Entry = GlobalInvertedIndex::Entry;
  const size_t num_cells = static_cast<size_t>(geometry().num_cells());
  if (scratch->counts.size() < num_cells) {
    scratch->counts.assign(num_cells, 0);
    scratch->weights.assign(num_cells, 0.0);
  }
  scratch->touched.clear();
  // Per-cell accumulation visits (keyword, entry) pairs in exactly the
  // order a cold-built index would: query keywords in query order, each
  // row's entries in its canonical sorted order (SortByWeightDesc makes
  // that order a pure function of the entry set, so a rebuilt overlay row
  // iterates like its cold-rebuild twin). Every entry has num_pois >= 1,
  // so a zero count marks a first touch.
  for (KeywordId keyword : query.ids()) {
    for (const Entry& entry : Entries(keyword)) {
      const size_t cell = static_cast<size_t>(entry.cell);
      if (scratch->counts[cell] == 0) {
        scratch->touched.push_back(entry.cell);
      }
      scratch->counts[cell] += entry.num_pois;
      scratch->weights[cell] += entry.weight;
    }
  }
  result->clear();
  result->reserve(scratch->touched.size());
  for (CellId cell : scratch->touched) {
    // min(per-keyword sum, whole-cell total) is a valid upper bound for
    // counts and weights alike. The whole-cell weight is precomputed per
    // cell by summing its live ids' weights ascending — the same operand
    // order as a cold rebuild.
    const PoiCellView bucket = Cell(cell);
    const size_t c = static_cast<size_t>(cell);
    result->push_back(
        Entry{cell,
              std::min(scratch->counts[c],
                       static_cast<int64_t>(bucket.size())),
              std::min(scratch->weights[c], bucket.total_weight)});
    // Restore the all-zero invariant for the next query.
    scratch->counts[c] = 0;
    scratch->weights[c] = 0.0;
  }
  GlobalInvertedIndex::SortByWeightDesc(result);
}

}  // namespace soi
