#include "grid/poi_grid_index.h"

#include <algorithm>
#include <limits>

namespace soi {

namespace {

// Directory build keys: (keyword, slot) packed so that unsigned order is
// (signed keyword, slot) order.
uint64_t PackPair(KeywordId keyword, uint32_t slot) {
  const uint32_t biased = static_cast<uint32_t>(keyword) ^ 0x80000000u;
  return (static_cast<uint64_t>(biased) << 32) | slot;
}

KeywordId PairKeyword(uint64_t pair) {
  return static_cast<KeywordId>(static_cast<uint32_t>(pair >> 32) ^
                                0x80000000u);
}

uint32_t PairSlot(uint64_t pair) { return static_cast<uint32_t>(pair); }

uint32_t CheckedOffset(size_t value) {
  SOI_CHECK(value <= std::numeric_limits<uint32_t>::max())
      << "POI grid arena exceeds 2^32 entries";
  return static_cast<uint32_t>(value);
}

// Appends to `columns` the keyword directory and posting lists of one
// cell; slot_keywords[i] is the keyword set of the cell's slot i. Entries
// come out by ascending keyword, each list by ascending slot. Pushes no
// terminal offset (the caller does, after its last cell). `pairs` is
// reusable build scratch. The one directory builder behind both
// PoiGridIndex and PoiCellData, so their layouts cannot drift apart.
void AppendDirectory(const std::vector<const KeywordSet*>& slot_keywords,
                     std::vector<uint64_t>* pairs, PoiCellColumns* columns) {
  pairs->clear();
  for (size_t slot = 0; slot < slot_keywords.size(); ++slot) {
    for (KeywordId keyword : slot_keywords[slot]->ids()) {
      pairs->push_back(PackPair(keyword, static_cast<uint32_t>(slot)));
    }
  }
  std::sort(pairs->begin(), pairs->end());
  for (size_t i = 0; i < pairs->size(); ++i) {
    const KeywordId keyword = PairKeyword((*pairs)[i]);
    if (i == 0 || PairKeyword((*pairs)[i - 1]) != keyword) {
      columns->keywords.push_back(keyword);
      columns->posting_offsets.push_back(
          CheckedOffset(columns->postings.size()));
    }
    columns->postings.push_back(PairSlot((*pairs)[i]));
  }
}

}  // namespace

PoiCellData PoiCellData::Build(std::vector<PoiId> ids,
                               const std::vector<const Poi*>& pois) {
  SOI_DCHECK(ids.size() == pois.size());
  PoiCellData cell;
  PoiCellColumns& columns = cell.columns;
  columns.x.reserve(pois.size());
  columns.y.reserve(pois.size());
  columns.w.reserve(pois.size());
  std::vector<const KeywordSet*> slot_keywords;
  slot_keywords.reserve(pois.size());
  for (const Poi* poi : pois) {
    columns.x.push_back(poi->position.x);
    columns.y.push_back(poi->position.y);
    columns.w.push_back(poi->weight);
    cell.total_weight += poi->weight;
    slot_keywords.push_back(&poi->keywords);
  }
  columns.ids = std::move(ids);
  std::vector<uint64_t> pairs;
  AppendDirectory(slot_keywords, &pairs, &columns);
  columns.posting_offsets.push_back(CheckedOffset(columns.postings.size()));
  return cell;
}

PoiGridIndex::PoiGridIndex(const Box& bounds, double cell_size,
                           const std::vector<Poi>& pois)
    : geometry_(bounds, cell_size), pois_(&pois) {
  const size_t num_cells = static_cast<size_t>(geometry_.num_cells());
  const size_t num_pois = pois.size();
  CheckedOffset(num_pois);

  // Counting pass and prefix sums: cell c owns slots
  // [cell_begin_[c], cell_begin_[c + 1]).
  std::vector<CellId> cell_of(num_pois);
  cell_begin_.assign(num_cells + 1, 0);
  size_t num_postings = 0;
  for (size_t i = 0; i < num_pois; ++i) {
    cell_of[i] = geometry_.CellOf(pois[i].position);
    ++cell_begin_[static_cast<size_t>(cell_of[i]) + 1];
    num_postings += pois[i].keywords.ids().size();
  }
  for (size_t c = 0; c < num_cells; ++c) {
    cell_begin_[c + 1] += cell_begin_[c];
  }

  // Cursor fill in ascending id order, so every cell's slots are sorted
  // by id and its total weight adds the weights in ascending id order.
  columns_.ids.resize(num_pois);
  columns_.x.resize(num_pois);
  columns_.y.resize(num_pois);
  columns_.w.resize(num_pois);
  total_weight_.assign(num_cells, 0.0);
  std::vector<uint32_t> cursor(cell_begin_.begin(), cell_begin_.end() - 1);
  for (size_t i = 0; i < num_pois; ++i) {
    const size_t c = static_cast<size_t>(cell_of[i]);
    const uint32_t slot = cursor[c]++;
    columns_.ids[slot] = static_cast<PoiId>(i);
    columns_.x[slot] = pois[i].position.x;
    columns_.y[slot] = pois[i].position.y;
    columns_.w[slot] = pois[i].weight;
    total_weight_[c] += pois[i].weight;
  }

  // Per-cell keyword directories, cell after cell.
  columns_.postings.reserve(CheckedOffset(num_postings));
  dir_begin_.assign(num_cells + 1, 0);
  std::vector<const KeywordSet*> slot_keywords;
  std::vector<uint64_t> pairs;
  for (size_t c = 0; c < num_cells; ++c) {
    slot_keywords.clear();
    for (uint32_t slot = cell_begin_[c]; slot < cell_begin_[c + 1]; ++slot) {
      slot_keywords.push_back(
          &pois[static_cast<size_t>(columns_.ids[slot])].keywords);
    }
    AppendDirectory(slot_keywords, &pairs, &columns_);
    dir_begin_[c + 1] = CheckedOffset(columns_.keywords.size());
  }
  columns_.posting_offsets.push_back(
      CheckedOffset(columns_.postings.size()));
  columns_.keywords.shrink_to_fit();
  columns_.posting_offsets.shrink_to_fit();
}

std::vector<CellId> PoiGridIndex::NonEmptyCells() const {
  std::vector<CellId> ids;
  for (CellId id = 0; id < geometry_.num_cells(); ++id) {
    if (NumPoisInCell(id) > 0) ids.push_back(id);
  }
  return ids;
}

int64_t PoiGridIndex::CountRelevantInCell(CellId cell,
                                          const KeywordSet& query) const {
  int64_t count = 0;
  std::vector<PostingCursor> cursors;
  MergeRelevantInCell(Cell(cell), query, &cursors,
                      [&count](uint32_t) { ++count; });
  return count;
}

}  // namespace soi
