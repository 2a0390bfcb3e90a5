#include "grid/segment_cell_index.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geometry/distance.h"
#include "obs/obs.h"

namespace soi {

namespace {

// Inverts the segment -> cells CSR into cell -> segments, in parallel,
// without locks, deterministically. A sequential counting pass over the
// flat values arena sizes every per-cell row exactly; the fill pass then
// statically partitions the cell-id space and each chunk scans the
// (sorted) per-segment rows in segment-id order, claiming only the cells
// it owns, so every per-cell row comes out ascending by segment id for
// any thread count — matching the sequential inversion order.
void InvertSegmentCells(const CsrArray<CellId>& segment_cells,
                        int64_t num_cells, ThreadPool* pool,
                        CsrArray<SegmentId>* cell_segments) {
  std::vector<int64_t> counts(static_cast<size_t>(num_cells), 0);
  for (CellId cell : segment_cells.values()) {
    ++counts[static_cast<size_t>(cell)];
  }
  *cell_segments = CsrArray<SegmentId>::FromRowCounts(counts);
  // Reuse `counts` as per-cell fill cursors. Each cell is owned by
  // exactly one chunk, so the cursor updates are race-free.
  std::fill(counts.begin(), counts.end(), 0);
  const int64_t num_segments = segment_cells.num_rows();
  ParallelForChunks(pool, 0, num_cells, [&](int64_t lo, int64_t hi) {
    for (int64_t id = 0; id < num_segments; ++id) {
      Span<CellId> cells = segment_cells.Row(id);
      auto first = std::lower_bound(cells.begin(), cells.end(),
                                    static_cast<CellId>(lo));
      for (auto it = first; it != cells.end() && *it < hi; ++it) {
        const size_t cell = static_cast<size_t>(*it);
        cell_segments->mutable_row(*it)[counts[cell]++] =
            static_cast<SegmentId>(id);
      }
    }
  });
}

// Orders the rows of `segment_cells` by decreasing size, ascending id as
// the tie-break, with one counting pass over the row sizes: each size
// class gets a contiguous range (larger sizes first) that ids fill in
// ascending order.
std::vector<SegmentId> OrderByNumCellsDesc(
    const CsrArray<CellId>& segment_cells) {
  const int64_t num_segments = segment_cells.num_rows();
  int64_t max_size = 0;
  for (int64_t id = 0; id < num_segments; ++id) {
    max_size = std::max(max_size, segment_cells.RowSize(id));
  }
  // starts[max_size - s] = first position of size s.
  std::vector<int64_t> starts(static_cast<size_t>(max_size) + 2, 0);
  for (int64_t id = 0; id < num_segments; ++id) {
    ++starts[static_cast<size_t>(max_size - segment_cells.RowSize(id)) + 1];
  }
  for (size_t i = 1; i < starts.size(); ++i) starts[i] += starts[i - 1];
  std::vector<SegmentId> order(static_cast<size_t>(num_segments));
  for (int64_t id = 0; id < num_segments; ++id) {
    const size_t key =
        static_cast<size_t>(max_size - segment_cells.RowSize(id));
    order[static_cast<size_t>(starts[key]++)] = static_cast<SegmentId>(id);
  }
  return order;
}

// Builds per-segment rows [lo, hi) of `build_row` into chunk-local CSR
// parts merged in chunk order: concatenating rows in segment order makes
// the merged arena independent of the chunking, hence of the thread
// count.
template <typename BuildRow>
CsrArray<CellId> BuildSegmentRows(int64_t num_segments, ThreadPool* pool,
                                  BuildRow&& build_row) {
  int threads = pool ? pool->num_threads() : 1;
  const int64_t chunks =
      std::max<int64_t>(1, std::min<int64_t>(threads, num_segments));
  std::vector<CsrArray<CellId>> parts(static_cast<size_t>(chunks));
  ParallelFor(pool, 0, chunks, [&](int64_t c) {
    CsrArray<CellId>& part = parts[static_cast<size_t>(c)];
    const int64_t lo = c * num_segments / chunks;
    const int64_t hi = (c + 1) * num_segments / chunks;
    for (int64_t id = lo; id < hi; ++id) {
      build_row(static_cast<SegmentId>(id), &part);
      part.FinishRow();
    }
  });
  size_t total_values = 0;
  for (const auto& part : parts) {
    total_values += static_cast<size_t>(part.num_values());
  }
  CsrArray<CellId> merged;
  merged.Reserve(static_cast<size_t>(num_segments), total_values);
  for (const auto& part : parts) merged.AppendAll(part);
  return merged;
}

}  // namespace

SegmentCellIndex::SegmentCellIndex(const RoadNetwork& network,
                                   GridGeometry geometry, ThreadPool* pool)
    : geometry_(std::move(geometry)), network_(&network) {
  SOI_TRACE_SPAN("grid.build_segment_cells");
  Stopwatch build_timer;
  segment_cells_ = BuildSegmentRows(
      network.num_segments(), pool,
      [&](SegmentId id, CsrArray<CellId>* row) {
        const Segment& seg = network.segment(id).geometry;
        // Probe one cell beyond the segment MBR so cells the segment
        // merely touches on a shared boundary are not missed; the exact
        // distance test below filters the rest out.
        Box probe = seg.BoundingBox().Expanded(geometry_.cell_size());
        geometry_.ForEachCellInBox(probe, [&](CellId cell) {
          // Exact zero: SegmentBoxDistance returns 0.0 identically when
          // the segment touches the (closed) box.
          // soi-lint: float-eq
          if (SegmentBoxDistance(seg, geometry_.CellBox(cell)) == 0.0) {
            row->PushValue(cell);
          }
        });
        // ForEachCellInBox iterates row-major, so the row is sorted.
      });
  InvertSegmentCells(segment_cells_, geometry_.num_cells(), pool,
                     &cell_segments_);
  SOI_OBS_COUNTER_ADD("soi.index.segment_cells_builds", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.index.segment_cells_build_seconds",
                            build_timer.ElapsedSeconds());
}

SegmentCellIndex::SegmentCellIndex(const RoadNetwork& network,
                                   GridGeometry geometry,
                                   CsrArray<CellId> segment_cells,
                                   ThreadPool* pool)
    : geometry_(std::move(geometry)),
      network_(&network),
      segment_cells_(std::move(segment_cells)) {
  SOI_CHECK(segment_cells_.num_rows() == network.num_segments())
      << "adopted segment cell lists do not match the network: "
      << segment_cells_.num_rows() << " rows for "
      << network.num_segments() << " segments";
  InvertSegmentCells(segment_cells_, geometry_.num_cells(), pool,
                     &cell_segments_);
}

EpsAugmentedMaps::EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                                   ThreadPool* pool,
                                   const CancellationToken* cancel)
    : eps_(eps), geometry_(&base.geometry()) {
  SOI_CHECK(eps >= 0) << "eps must be non-negative";
  SOI_TRACE_SPAN("grid.eps_augment");
  Stopwatch build_timer;
  const RoadNetwork& network = base.network();
  segment_cells_ = BuildSegmentRows(
      network.num_segments(), pool,
      [&](SegmentId id, CsrArray<CellId>* row) {
        if (cancel != nullptr) ThrowIfCancelled(*cancel);
        const Segment& seg = network.segment(id).geometry;
        // Pad by one cell beyond eps for the same boundary-touch reason
        // as in SegmentCellIndex (distance exactly eps to a cell across
        // a boundary).
        Box probe = seg.BoundingBox().Expanded(eps + geometry_->cell_size());
        geometry_->ForEachCellInBox(probe, [&](CellId cell) {
          if (SegmentBoxDistance(seg, geometry_->CellBox(cell)) <= eps) {
            row->PushValue(cell);
          }
        });
      });
  InvertSegmentCells(segment_cells_, geometry_->num_cells(), pool,
                     &cell_segments_);
  segments_by_num_cells_ = OrderByNumCellsDesc(segment_cells_);
  SOI_OBS_COUNTER_ADD("soi.index.eps_augment_builds", 1);
  SOI_OBS_HISTOGRAM_OBSERVE("soi.index.eps_augment_seconds",
                            build_timer.ElapsedSeconds());
}

EpsAugmentedMaps::EpsAugmentedMaps(const SegmentCellIndex& base, double eps,
                                   CsrArray<CellId> segment_cells,
                                   ThreadPool* pool)
    : eps_(eps),
      geometry_(&base.geometry()),
      segment_cells_(std::move(segment_cells)) {
  SOI_CHECK(eps >= 0) << "eps must be non-negative";
  SOI_CHECK(segment_cells_.num_rows() == base.network().num_segments())
      << "adopted eps cell lists do not match the network: "
      << segment_cells_.num_rows() << " rows for "
      << base.network().num_segments() << " segments";
  InvertSegmentCells(segment_cells_, geometry_->num_cells(), pool,
                     &cell_segments_);
  segments_by_num_cells_ = OrderByNumCellsDesc(segment_cells_);
}

}  // namespace soi
