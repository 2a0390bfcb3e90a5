#ifndef SOI_GRID_LIVE_POI_VIEW_H_
#define SOI_GRID_LIVE_POI_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/span.h"
#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "grid/poi_overlay.h"
#include "text/keyword_set.h"

namespace soi {

/// The epoch-pinned read surface of the POI indexes: a base
/// PoiGridIndex/GlobalInvertedIndex pair plus an optional PoiDeltaOverlay
/// merged in at read time. Every POI-side read the SOI algorithm performs
/// (cells, global-index rows, the SL1 query cell list) goes through this
/// view, so a query sees one consistent epoch for its whole evaluation.
///
/// With a null overlay the view is a zero-cost pass-through to the base
/// indexes, so the static and live read paths are one implementation and
/// cannot drift apart. With an overlay, lookups consult the overlay's
/// replacement cells/rows first (one hash probe) and fall back to the
/// base; merged reads are bit-identical to a cold rebuild of the live
/// dataset (see grid/poi_overlay.h for the id-order argument).
///
/// Plain value type: three borrowed pointers. The referenced indexes and
/// overlay must outlive the view — the ingest layer guarantees this by
/// handing views out only through pinned PoiEpochSnapshots.
class LivePoiView {
 public:
  /// Base-only view (the static read path).
  LivePoiView(const PoiGridIndex& grid, const GlobalInvertedIndex& global)
      : grid_(&grid), global_(&global), overlay_(nullptr) {}

  /// Overlay view; `overlay` may be null (equivalent to base-only).
  LivePoiView(const PoiGridIndex& grid, const GlobalInvertedIndex& global,
              const PoiDeltaOverlay* overlay)
      : grid_(&grid), global_(&global), overlay_(overlay) {}

  /// Reusable per-query scratch for BuildQueryCellList: dense per-cell
  /// accumulators plus the list of touched cells, so repeated queries on
  /// one thread allocate nothing steady-state. The dense arrays are
  /// all-zero between calls (BuildQueryCellList restores them).
  struct QueryCellScratch {
    std::vector<int64_t> counts;
    std::vector<double> weights;
    std::vector<CellId> touched;
  };

  const GridGeometry& geometry() const { return grid_->geometry(); }

  /// The cell's POIs in this epoch: the overlay's replacement cell if it
  /// has one (one hash probe), else the base cell. Empty if the cell is
  /// empty in this epoch.
  PoiCellView Cell(CellId id) const {
    if (overlay_ != nullptr) {
      auto it = overlay_->cells.find(id);
      if (it != overlay_->cells.end()) return it->second->View();
    }
    return grid_->Cell(id);
  }

  /// |P_c| in this epoch (0 if empty).
  int64_t NumPoisInCell(CellId id) const {
    return static_cast<int64_t>(Cell(id).size());
  }

  /// Global-index entries for `keyword` in this epoch, sorted
  /// decreasingly on weight (the base row unless the overlay replaced
  /// it). Empty for out-of-range ids, like the base accessor.
  Span<GlobalInvertedIndex::Entry> Entries(KeywordId keyword) const {
    if (overlay_ != nullptr) {
      auto it = overlay_->rows.find(keyword);
      if (it != overlay_->rows.end()) {
        return Span<GlobalInvertedIndex::Entry>(*it->second);
      }
    }
    return global_->Entries(keyword);
  }

  /// Builds the SL1 aggregation of Algorithm 1 (lines 1-3) over this
  /// epoch: for every cell in some query keyword's global-index row, the
  /// upper bound |P_Psi(c)| = min(|P_c|, sum over psi of I[psi][c]) on
  /// the number of POIs in the cell relevant to the query, and in
  /// `weight` the min of the analogous weight sums and the cell's total
  /// weight. Accumulates through `scratch` (resized to the grid once,
  /// zero-restored on return) and writes the list, sorted decreasingly
  /// on the weight bound, into `*result` (cleared first, capacity
  /// retained). The static path is the null-overlay case, so the static
  /// and live read paths are one implementation.
  void BuildQueryCellList(const KeywordSet& query,
                          QueryCellScratch* scratch,
                          std::vector<GlobalInvertedIndex::Entry>* result)
      const;

  bool has_overlay() const { return overlay_ != nullptr; }

 private:
  const PoiGridIndex* grid_;
  const GlobalInvertedIndex* global_;
  const PoiDeltaOverlay* overlay_;
};

/// One published epoch: the index pointers a reader may dereference for
/// as long as it holds the snapshot's shared_ptr. After a compaction the
/// overlay is null and grid/global point at the freshly built arenas,
/// whose ownership rides along in `retain`.
struct PoiEpochSnapshot {
  uint64_t epoch = 0;
  const PoiGridIndex* grid = nullptr;
  const GlobalInvertedIndex* global = nullptr;
  /// Null in compacted epochs.
  std::shared_ptr<const PoiDeltaOverlay> overlay;
  /// Keeps whatever arena `grid`/`global` point into alive (the
  /// compacted index bundle); null for the epoch-0 base.
  std::shared_ptr<const void> retain;

  LivePoiView View() const {
    SOI_DCHECK(grid != nullptr && global != nullptr);
    return LivePoiView(*grid, *global, overlay.get());
  }
};

/// Where QueryEngine pins an epoch per query. Pin() must be cheap and
/// must never wait on a writer's batch build or compaction (the ingest
/// implementation copies a shared_ptr under a short leaf lock); the
/// returned snapshot stays valid until released.
class PoiEpochSource {
 public:
  virtual ~PoiEpochSource() = default;
  virtual std::shared_ptr<const PoiEpochSnapshot> Pin() const = 0;
};

}  // namespace soi

#endif  // SOI_GRID_LIVE_POI_VIEW_H_
