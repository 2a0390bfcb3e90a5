#ifndef SOI_GRID_GLOBAL_INVERTED_INDEX_H_
#define SOI_GRID_GLOBAL_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/csr.h"
#include "common/span.h"
#include "grid/grid_geometry.h"
#include "grid/poi_grid_index.h"
#include "text/vocabulary.h"

namespace soi {

/// The global inverted index of Section 3.2.1: for each keyword psi, the
/// list of <cell, numPOIs> entries sorted decreasingly on numPOIs, where
/// numPOIs is the number of POIs in the cell carrying psi.
///
/// Storage is a dense KeywordId-indexed CSR arena (common/csr.h): the
/// per-keyword entry lists live contiguously and Entries() is two offset
/// loads — no per-call hash lookup on the hot path. Keywords that occur
/// nowhere (including ids beyond the indexed range and negative ids)
/// yield an empty span, preserving the old empty-list fallback.
///
/// The entry list for the query keyword is (after per-cell aggregation for
/// multi-keyword queries, LivePoiView::BuildQueryCellList) the source list
/// SL1 of Algorithm 1.
class GlobalInvertedIndex {
 public:
  struct Entry {
    CellId cell;
    /// Number of POIs in the cell carrying the keyword.
    int64_t num_pois;
    /// Total weight of those POIs (equals num_pois with unit weights);
    /// the quantity the SL1 ordering and the unseen upper bound use, so
    /// the weighted-mass extension stays sound.
    double weight;

    friend bool operator==(const Entry& a, const Entry& b) {
      return a.cell == b.cell && a.num_pois == b.num_pois &&
             a.weight == b.weight;
    }
  };

  /// Builds from an already-built POI grid (offline, once per dataset).
  explicit GlobalInvertedIndex(const PoiGridIndex& grid);

  /// Snapshot adoption path (src/snapshot): wraps restored per-keyword
  /// entry rows in a dense KeywordId-indexed CSR (absent keywords are
  /// empty rows). Every row must already be sorted decreasingly on
  /// weight with the ascending-cell-id tie-break (the order a fresh
  /// build produces and the snapshot writer preserves).
  explicit GlobalInvertedIndex(CsrArray<Entry> lists);

  /// Entries for `keyword`, sorted decreasingly on weight. Empty if the
  /// keyword occurs nowhere (also for out-of-range or negative ids).
  Span<Entry> Entries(KeywordId keyword) const {
    if (keyword < 0 || keyword >= lists_.num_rows()) return Span<Entry>();
    return lists_.Row(keyword);
  }

  /// Sorts a row into the canonical order every reader assumes: weight
  /// descending, ascending cell id as the tie-break. Cells are unique
  /// within a row, so this is a strict total order — two inputs with the
  /// same entry set always sort to the same sequence, which is what lets
  /// the ingest overlay rebuild a dirty row and land bit-identical to a
  /// cold rebuild (grid/live_poi_view.h).
  static void SortByWeightDesc(std::vector<Entry>* entries);

  /// Number of distinct keywords with at least one entry.
  int64_t num_keywords() const { return num_nonempty_; }

  /// The full dense CSR arena (snapshot writer, determinism tests).
  const CsrArray<Entry>& lists() const { return lists_; }

 private:
  CsrArray<Entry> lists_;
  int64_t num_nonempty_ = 0;
};

}  // namespace soi

#endif  // SOI_GRID_GLOBAL_INVERTED_INDEX_H_
