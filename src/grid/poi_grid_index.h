#ifndef SOI_GRID_POI_GRID_INDEX_H_
#define SOI_GRID_POI_GRID_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/span.h"
#include "grid/grid_geometry.h"
#include "objects/poi.h"
#include "text/keyword_set.h"
#include "text/vocabulary.h"

namespace soi {

/// Read-only view of one grid cell's POIs in the flat cell-grouped layout
/// (DESIGN.md "Data layout & memory"). Slot i of the cell is the POI
/// ids[i]; slots follow ascending POI id. Returned by value (a handful of
/// pointers) by PoiGridIndex for its cells and by PoiCellData for the
/// ingest overlay's replacement cells, so every reader runs the same code
/// over both.
struct PoiCellView {
  /// The cell's POI ids, ascending.
  Span<PoiId> ids;
  /// Struct-of-arrays POI data aligned with `ids`: position and weight.
  const double* x = nullptr;
  const double* y = nullptr;
  const double* w = nullptr;
  /// Keyword directory: the distinct keywords of the cell's POIs,
  /// ascending.
  Span<KeywordId> keywords;
  /// keywords.size() + 1 offsets into `postings`; directory entry j's
  /// posting list is postings[posting_offsets[j], posting_offsets[j + 1]).
  const uint32_t* posting_offsets = nullptr;
  /// The local inverted index c.I(psi) of Algorithm 1 as cell-local
  /// slots, ascending within each list.
  const uint32_t* postings = nullptr;
  /// Sum of w over the cell, accumulated from 0.0 in ascending id order.
  double total_weight = 0.0;

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }

  /// The posting list of directory entry `entry`.
  Span<uint32_t> Postings(size_t entry) const {
    return Span<uint32_t>(postings + posting_offsets[entry],
                          posting_offsets[entry + 1] -
                              posting_offsets[entry]);
  }

  /// The posting list of `keyword`; empty if no POI of the cell has it.
  Span<uint32_t> FindPostings(KeywordId keyword) const {
    auto it = std::lower_bound(keywords.begin(), keywords.end(), keyword);
    if (it == keywords.end() || *it != keyword) return Span<uint32_t>();
    return Postings(static_cast<size_t>(it - keywords.begin()));
  }
};

/// Column storage of the flat layout: one or many cells' slots back to
/// back, then their keyword directories and posting lists back to back.
/// PoiGridIndex keeps every cell in one instance; an overlay replacement
/// cell (PoiCellData) keeps its single cell in its own.
struct PoiCellColumns {
  std::vector<PoiId> ids;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> w;
  std::vector<KeywordId> keywords;
  /// One offset per directory entry plus a terminal one.
  std::vector<uint32_t> posting_offsets;
  std::vector<uint32_t> postings;

  /// The view of slots [slot_begin, slot_end) with directory entries
  /// [dir_begin, dir_end).
  PoiCellView View(uint32_t slot_begin, uint32_t slot_end,
                   uint32_t dir_begin, uint32_t dir_end,
                   double total_weight) const {
    PoiCellView view;
    view.ids = Span<PoiId>(ids.data() + slot_begin, slot_end - slot_begin);
    view.x = x.data() + slot_begin;
    view.y = y.data() + slot_begin;
    view.w = w.data() + slot_begin;
    view.keywords =
        Span<KeywordId>(keywords.data() + dir_begin, dir_end - dir_begin);
    view.posting_offsets = posting_offsets.data() + dir_begin;
    view.postings = postings.data();
    view.total_weight = total_weight;
    return view;
  }
};

/// One cell in owned storage: the ingest overlay's rematerialized
/// replacement cells (grid/poi_overlay.h).
struct PoiCellData {
  PoiCellColumns columns;
  double total_weight = 0.0;

  /// Builds the cell holding `ids` (ascending); pois[i] is the POI of
  /// ids[i]. Bit-identical to the cell PoiGridIndex builds over the same
  /// POIs in the same id order.
  static PoiCellData Build(std::vector<PoiId> ids,
                           const std::vector<const Poi*>& pois);

  PoiCellView View() const {
    return columns.View(0, static_cast<uint32_t>(columns.ids.size()), 0,
                        static_cast<uint32_t>(columns.keywords.size()),
                        total_weight);
  }
};

/// The POI-side spatial grid index of Section 3.2.1: buckets all POIs into
/// uniform cells and keeps, per cell, a local inverted index mapping each
/// keyword to the cell's POIs that carry it, sorted increasingly by POI id.
///
/// Storage is one flat arena (DESIGN.md "Data layout & memory"): cells are
/// dense by CellId; a cell's POIs are one contiguous run of slots holding
/// ids and struct-of-arrays x/y/w; its keyword directory and posting lists
/// are contiguous runs too. No hash map and no per-cell heap block. The
/// whole-cell POI weight is precomputed per cell.
///
/// Built once per POI table: at dataset load or snapshot restore, and by
/// each ingest compaction over the compacted POIs. Between compactions the
/// ingest overlay replaces changed cells without touching this index. The
/// SOI algorithm and the BL baseline both read it.
class PoiGridIndex {
 public:
  /// Buckets `pois` into cells of side `cell_size` covering `bounds`.
  /// `bounds` must cover every POI position (outliers are clamped into
  /// border cells). `pois` must outlive the index.
  PoiGridIndex(const Box& bounds, double cell_size,
               const std::vector<Poi>& pois);

  const GridGeometry& geometry() const { return geometry_; }

  /// The indexed POIs (the index stores ids into this vector).
  const std::vector<Poi>& pois() const { return *pois_; }

  /// The cell's POIs; an empty view for an empty cell.
  PoiCellView Cell(CellId id) const {
    SOI_DCHECK(id >= 0 && id < geometry_.num_cells());
    const size_t c = static_cast<size_t>(id);
    return columns_.View(cell_begin_[c], cell_begin_[c + 1], dir_begin_[c],
                         dir_begin_[c + 1], total_weight_[c]);
  }

  /// |P_c|: number of POIs in the cell (0 if empty).
  int64_t NumPoisInCell(CellId id) const {
    const size_t c = static_cast<size_t>(id);
    return static_cast<int64_t>(cell_begin_[c + 1] - cell_begin_[c]);
  }

  /// Ids of all non-empty cells, ascending.
  std::vector<CellId> NonEmptyCells() const;

  /// Number of POIs in `cell` that carry at least one keyword of `query`,
  /// counted exactly by merging the per-keyword posting lists (each POI
  /// counted once). This is the synchronized traversal of procedure
  /// UpdateInterest for multi-keyword queries.
  int64_t CountRelevantInCell(CellId cell, const KeywordSet& query) const;

 private:
  GridGeometry geometry_;
  const std::vector<Poi>* pois_;
  PoiCellColumns columns_;
  // Dense by CellId, num_cells + 1 entries: cell c's slots are
  // [cell_begin_[c], cell_begin_[c + 1]), its directory entries
  // [dir_begin_[c], dir_begin_[c + 1]).
  std::vector<uint32_t> cell_begin_;
  std::vector<uint32_t> dir_begin_;
  // Dense by CellId.
  std::vector<double> total_weight_;
};

/// Cursor over one posting list of a MergeRelevantInCell call.
struct PostingCursor {
  const uint32_t* pos;
  const uint32_t* end;
};

/// The posting-list merge of procedure UpdateInterest: invokes `fn(slot)`
/// once per slot of `cell` whose POI carries at least one keyword of
/// `query`, ascending (so by ascending POI id). One function for the base
/// index and the overlay's replacement cells alike — same cursor order,
/// same emission order — which keeps live reads bit-identical to a cold
/// rebuild. `cursors` is caller-owned scratch, so queries of any size
/// merge without a fixed cap and without allocating once it has grown.
template <typename Fn>
void MergeRelevantInCell(const PoiCellView& cell, const KeywordSet& query,
                         std::vector<PostingCursor>* cursors, Fn&& fn) {
  cursors->clear();
  // Query ids and the directory are both ascending: one forward pass of
  // lower_bound finds each query keyword's list.
  const KeywordId* dir = cell.keywords.begin();
  for (KeywordId keyword : query.ids()) {
    dir = std::lower_bound(dir, cell.keywords.end(), keyword);
    if (dir == cell.keywords.end()) break;
    if (*dir != keyword) continue;
    Span<uint32_t> list =
        cell.Postings(static_cast<size_t>(dir - cell.keywords.begin()));
    cursors->push_back(PostingCursor{list.begin(), list.end()});
  }
  size_t num_cursors = cursors->size();
  PostingCursor* cur = cursors->data();
  // Single-list fast path: most cells hold few of the query's keywords.
  if (num_cursors == 1) {
    for (const uint32_t* it = cur[0].pos; it != cur[0].end; ++it) fn(*it);
    return;
  }
  while (num_cursors > 0) {
    uint32_t smallest = *cur[0].pos;
    for (size_t i = 1; i < num_cursors; ++i) {
      smallest = std::min(smallest, *cur[i].pos);
    }
    fn(smallest);
    // Advance every cursor past `smallest`; drop exhausted cursors.
    for (size_t i = 0; i < num_cursors;) {
      if (*cur[i].pos == smallest) ++cur[i].pos;
      if (cur[i].pos == cur[i].end) {
        cur[i] = cur[--num_cursors];
      } else {
        ++i;
      }
    }
  }
}

}  // namespace soi

#endif  // SOI_GRID_POI_GRID_INDEX_H_
