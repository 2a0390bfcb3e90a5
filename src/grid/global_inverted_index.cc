#include "grid/global_inverted_index.h"

#include <algorithm>

namespace soi {

void GlobalInvertedIndex::SortByWeightDesc(std::vector<Entry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const Entry& a, const Entry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.cell < b.cell;  // Deterministic tie-break.
            });
}

GlobalInvertedIndex::GlobalInvertedIndex(const PoiGridIndex& grid) {
  // Build-time staging only: rows are gathered per keyword, sorted, then
  // flattened into the serving arena. Offline, once per dataset.
  std::vector<std::vector<Entry>> rows;
  for (CellId cell = 0; cell < grid.geometry().num_cells(); ++cell) {
    const PoiCellView bucket = grid.Cell(cell);
    for (size_t j = 0; j < bucket.keywords.size(); ++j) {
      const KeywordId keyword = bucket.keywords[j];
      if (static_cast<size_t>(keyword) >= rows.size()) {
        rows.resize(static_cast<size_t>(keyword) + 1);
      }
      Span<uint32_t> postings = bucket.Postings(j);
      double weight = 0.0;
      for (uint32_t slot : postings) weight += bucket.w[slot];
      rows[static_cast<size_t>(keyword)].push_back(
          Entry{cell, static_cast<int64_t>(postings.size()), weight});
    }
  }
  for (auto& row : rows) {
    if (row.empty()) continue;
    ++num_nonempty_;
    SortByWeightDesc(&row);
  }
  lists_ = CsrArray<Entry>::FromRows(rows);
}

GlobalInvertedIndex::GlobalInvertedIndex(CsrArray<Entry> lists)
    : lists_(std::move(lists)) {
  for (int64_t k = 0; k < lists_.num_rows(); ++k) {
    if (lists_.RowSize(k) > 0) ++num_nonempty_;
  }
}

}  // namespace soi
