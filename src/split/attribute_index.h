// AttributeIndex: the presort-once half of the split search (the idea of
// SLIQ, Mehta et al., EDBT 1996, fitted to sampled pdfs). Built once per
// training call, it gives every (tuple, sample point) of every numerical
// attribute a dense uint32 rank: equal x values share a rank, ranks ascend
// with x, and a per-attribute table maps each rank back to its x. A root's
// event lists are then ordered by rank with a linear radix sort instead of
// comparing doubles, and every other node's lists are filtered from its
// parent's in that order (split/fractional_tuple.h).
//
// Immutable once built; any number of concurrent scans and tree builds may
// share one index (ForestTrainer shares one across every tree).

#ifndef UDT_SPLIT_ATTRIBUTE_INDEX_H_
#define UDT_SPLIT_ATTRIBUTE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "table/dataset.h"

namespace udt {

class TaskPool;  // common/task_pool.h

class AttributeIndex {
 public:
  // An empty index (no attributes); Build() produces the real thing.
  AttributeIndex() = default;

  // Ranks every numerical attribute of `data` (categorical attributes get
  // an empty column). The attributes build as parallel tasks when `pool`
  // is non-null; the index does not depend on it.
  static AttributeIndex Build(const Dataset& data, TaskPool* pool = nullptr);

  int num_tuples() const { return num_tuples_; }

  // OK when this index can serve `data`: the same tuple and attribute
  // counts and, on every numerical attribute, the same number of sample
  // points per tuple. InvalidArgument otherwise — an index built from
  // another data set would be read out of bounds.
  Status CheckMatches(const Dataset& data) const;

  // Ranks of tuple `tuple`'s sample points on numerical attribute
  // `attribute`, aligned with its pdf: ranks(a, t)[p] is the rank of
  // data.tuple(t).values[a].pdf().point(p).
  const uint32_t* ranks(int attribute, int tuple) const {
    const Column& column = columns_[static_cast<size_t>(attribute)];
    return column.ranks.data() + column.offsets[static_cast<size_t>(tuple)];
  }

  // Number of sample points tuple `tuple` has on `attribute`.
  size_t num_points(int attribute, int tuple) const {
    const Column& column = columns_[static_cast<size_t>(attribute)];
    const size_t t = static_cast<size_t>(tuple);
    return column.offsets[t + 1] - column.offsets[t];
  }

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

 private:
  struct Column {
    std::vector<size_t> offsets;   // num_tuples + 1 starts into `ranks`
    std::vector<uint32_t> ranks;   // one per (tuple, sample point)
    std::vector<double> values;    // rank -> x, strictly ascending
  };

  static Column BuildColumn(const Dataset& data, int attribute);

  std::vector<Column> columns_;
  int num_tuples_ = 0;
};

}  // namespace udt

#endif  // UDT_SPLIT_ATTRIBUTE_INDEX_H_
