#ifndef SOI_GRID_POI_OVERLAY_H_
#define SOI_GRID_POI_OVERLAY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "grid/global_inverted_index.h"
#include "grid/poi_grid_index.h"
#include "objects/poi.h"

namespace soi {

/// One epoch's delta state over a base PoiGridIndex/GlobalInvertedIndex
/// pair: the incremental-update substrate of src/ingest (DESIGN.md
/// "Ingest & epochs"). Immutable once published — the writer builds a
/// fresh overlay per update batch (copy-on-write of the two hash maps;
/// replacement cells and rows are shared_ptr so untouched ones are
/// shared across epochs) and publishes it atomically; readers pinned to
/// an older epoch keep their overlay alive through the shared_ptr.
///
/// Live-id scheme: base POIs keep their original ids; every inserted POI
/// gets the next id in arrival order (base_size, base_size + 1, ...) and
/// ids are never reused, so the relative order of live ids equals the id
/// order a cold rebuild of the final dataset assigns. Combined with
/// replacement cells/rows that are *fully recomputed* (not base ± delta
/// sums), this makes every floating-point accumulation on the read path
/// visit the same operands in the same order as the cold rebuild —
/// the bit-identity contract of the ingest subsystem.
struct PoiDeltaOverlay {
  /// Size of the base POI table; live ids >= base_size index `added`.
  size_t base_size = 0;

  /// All POIs ever inserted over this base, by insert sequence (live id
  /// = base_size + index). Deleted adds stay in the table — nothing
  /// references them once the replacement cells drop them — so earlier
  /// epochs' cells keep valid ids and ids stay stable across batches.
  std::shared_ptr<const std::vector<Poi>> added;

  /// Live ids (base or added) deleted so far. Only the writer and the
  /// compactor consult this; the read path never does (deleted POIs are
  /// already absent from the replacement cells).
  std::shared_ptr<const std::unordered_set<PoiId>> deleted;

  /// Cells touched by any insert/delete, fully rematerialized in the
  /// base index's flat layout (PoiCellData::Build): survivors of the base
  /// cell in ascending id order followed by surviving adds in ascending
  /// id order (all base ids < all added ids, so the concatenation is
  /// sorted), directory, postings and total weight recomputed from them.
  /// A reader uses the replacement verbatim; an absent key means the base
  /// cell is intact.
  std::unordered_map<CellId, std::shared_ptr<const PoiCellData>> cells;

  /// Global-index rows for keywords whose entry set changed, recomputed
  /// from the replacement cells and re-sorted with SortByWeightDesc. An
  /// absent key means the base row is intact.
  std::unordered_map<
      KeywordId,
      std::shared_ptr<const std::vector<GlobalInvertedIndex::Entry>>>
      rows;

  /// Number of live POIs (base_size + inserts - deletes).
  int64_t num_live_pois = 0;
};

}  // namespace soi

#endif  // SOI_GRID_POI_OVERLAY_H_
