// AttributeIndex: the presort-once half of the split search (the idea of
// SLIQ, Mehta et al., EDBT 1996, fitted to sampled pdfs). Built once per
// training call, it gives every sample point of every numerical attribute
// a dense uint32 rank: equal x values share a rank, ranks ascend with x,
// and a per-attribute table maps each rank back to its x. The pass that
// assigns the ranks also writes the unweighted root's event list per
// attribute: the sort is stable in tuple-then-point order and a root's
// windows are whole pdfs, so its events are the sorted points themselves.
// Every root takes its lists from there (split/fractional_tuple.h: moved
// when the build owns the index, filtered by bag weight when it is
// shared), and every other node filters its parent's.
//
// Immutable once built, except that its owner may take the root lists;
// any number of concurrent scans and tree builds may share one index
// (ForestTrainer shares one across every tree).

#ifndef UDT_SPLIT_ATTRIBUTE_INDEX_H_
#define UDT_SPLIT_ATTRIBUTE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/default_init.h"
#include "common/status.h"
#include "table/dataset.h"

namespace udt {

class TaskPool;  // common/task_pool.h

// One (fractional tuple, effective sample point) of a numerical attribute,
// 16 bytes: the point's AttributeIndex rank, the tuple's position in its
// working set (tag >> 1) with a flag marking the first or last point of
// the tuple's window (tag & 1), and the point's raw pdf.mass(p).
struct SampleEvent {
  uint32_t rank;
  uint32_t tag;
  double mass;
};

// A working set's events on one numerical attribute, ordered by rank with
// ties in working-set order, and each tuple's window on the attribute: its
// constrained mass F(hi) - F(lo) and its number of events (0 when the
// window holds no mass — such a tuple has no events).
struct AttributeEvents {
  DefaultInitVector<SampleEvent> events;
  std::vector<double> window_mass;
  std::vector<uint32_t> window_size;
};

class AttributeIndex {
 public:
  // An empty index (no attributes); Build() produces the real thing.
  AttributeIndex() = default;

  // Ranks every numerical attribute of `data` (categorical attributes get
  // an empty column) and writes its root lists. The attributes build as
  // parallel tasks when `pool` is non-null; the index does not depend on
  // it. Requires fewer than 2^31 tuples (the event tag's tuple field).
  static AttributeIndex Build(const Dataset& data, TaskPool* pool = nullptr);

  int num_tuples() const { return num_tuples_; }

  // OK when this index can serve `data`: the same tuple and attribute
  // counts and, on every numerical attribute, the same number of sample
  // points per tuple. InvalidArgument otherwise — an index built from
  // another data set would be read out of bounds.
  Status CheckMatches(const Dataset& data) const;

  // The x value of `rank` (ascending in rank). -0.0 and +0.0 share one
  // rank and read back as +0.0.
  double value(int attribute, uint32_t rank) const {
    return columns_[static_cast<size_t>(attribute)].values[rank];
  }

  // Distinct x values on `attribute` (ranks are 0 .. num_values-1).
  int num_values(int attribute) const {
    return static_cast<int>(
        columns_[static_cast<size_t>(attribute)].values.size());
  }

  // The unweighted root's list on numerical `attribute`: every tuple's
  // whole-pdf window (its mass and point count, 0 points when it holds no
  // mass), and the window's points as events in rank order, ties in tuple
  // order, tagged with the tuple's data-set index and flagged at the
  // window's ends. Empty (no windows) once taken.
  const AttributeEvents& root_events(int attribute) const {
    return columns_[static_cast<size_t>(attribute)].root;
  }

  // Moves the root list of `attribute` out of the index, which keeps its
  // values: a build that owns its index hands the lists to its root
  // without a copy.
  AttributeEvents TakeRootEvents(int attribute) {
    return std::move(columns_[static_cast<size_t>(attribute)].root);
  }

 private:
  struct Column {
    std::vector<size_t> offsets;  // num_tuples + 1 starts of tuples' points
    std::vector<double> values;   // rank -> x, strictly ascending
    AttributeEvents root;
  };

  static Column BuildColumn(const Dataset& data, int attribute);

  std::vector<Column> columns_;
  int num_tuples_ = 0;
};

}  // namespace udt

#endif  // UDT_SPLIT_ATTRIBUTE_INDEX_H_
