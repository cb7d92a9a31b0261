// The reference the build's event lists are tested against: gather a
// working set's events on an attribute (one window search per tuple) and
// sort them by rank, stably, so ties stay in working-set order. A build
// never gathers: its root lists come from the rank index and its
// children's are filtered from their parent's (split/fractional_tuple.h).
// The property tests compare those lists with this gather bit for bit, and
// tests whose working sets are constrained by hand, which no build makes,
// list them here.
//
// Header-only and test-only: nothing in src/, bench/ or examples/ may
// include it (tools/check_source_conventions.py, rule test-reference).

#ifndef UDT_TESTS_SPLIT_REFERENCE_H_
#define UDT_TESTS_SPLIT_REFERENCE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/default_init.h"
#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/task_pool.h"
#include "pdf/pdf_kernels.h"
#include "split/attribute_index.h"
#include "split/fractional_tuple.h"
#include "table/dataset.h"

namespace udt {

// Rank of `x` on numerical `attribute`: a binary search of the index's
// rank -> x table from rank `from` on. Requires x to be a sample point of
// the attribute with rank >= from; -0.0 and +0.0 share one rank.
inline uint32_t ReferenceRank(const AttributeIndex& index, int attribute,
                              double x, uint32_t from = 0) {
  uint32_t lo = from;
  uint32_t hi = static_cast<uint32_t>(index.num_values(attribute));
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (index.value(attribute, mid) < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  UDT_CHECK(lo < static_cast<uint32_t>(index.num_values(attribute)) &&
            index.value(attribute, lo) == x);
  return lo;
}

// `set`'s events on numerical attribute `attribute`, gathered and sorted.
// `index` must be AttributeIndex::Build(data). A tuple whose window holds
// no mass gets window size 0 and no events.
inline AttributeEvents GatherAttributeEvents(const Dataset& data,
                                             const AttributeIndex& index,
                                             const WorkingSet& set,
                                             int attribute) {
  UDT_CHECK(index.num_tuples() == data.num_tuples());
  UDT_CHECK(set.size() <= std::numeric_limits<uint32_t>::max() >> 1);
  const size_t j = static_cast<size_t>(attribute);

  AttributeEvents list;
  list.window_mass.resize(set.size());
  list.window_size.assign(set.size(), 0);
  DefaultInitVector<SampleEvent>& events = list.events;
  uint32_t min_rank = std::numeric_limits<uint32_t>::max();
  uint32_t max_rank = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    const FractionalTuple& ft = set[i];
    const SampledPdf& pdf = data.tuple(ft.tuple_index).values[j].pdf();
    const PdfWindow window = PdfConstrainedWindow(pdf, ft.lo[j], ft.hi[j]);
    list.window_mass[i] = window.mass;
    if (window.mass <= 0.0) continue;  // no mass under the constraint
    list.window_size[i] = static_cast<uint32_t>(window.end - window.begin);
    // A pdf's points ascend, so each search starts past the last rank.
    const uint32_t tag = static_cast<uint32_t>(i) << 1;
    uint32_t rank = 0;
    for (size_t p = window.begin; p < window.end; ++p) {
      const bool boundary = p == window.begin || p + 1 == window.end;
      rank = ReferenceRank(index, attribute, pdf.point(static_cast<int>(p)),
                           p == window.begin ? 0 : rank + 1);
      events.push_back(SampleEvent{rank, tag | (boundary ? 1u : 0u),
                                   pdf.mass(static_cast<int>(p))});
      if (p == window.begin) min_rank = std::min(min_rank, rank);
    }
    max_rank = std::max(max_rank, rank);
  }
  if (events.empty()) return list;

  // Order by rank over the set's rank span; stability keeps ties in
  // working-set order.
  DefaultInitVector<SampleEvent> scratch;
  RadixSortByKey(&events, &scratch, std::bit_width(max_rank - min_rank),
                 [min_rank](const SampleEvent& event) {
                   return static_cast<uint64_t>(event.rank - min_rank);
                 });
  return list;
}

// A NodeSet for any working set: `tuples` with their gathered lists for
// every numerical attribute. The attributes gather as parallel tasks when
// `pool` is non-null; the result does not depend on it.
inline NodeSet GatherNodeSet(const Dataset& data, const AttributeIndex& index,
                             WorkingSet tuples, TaskPool* pool = nullptr) {
  NodeSet set;
  set.tuples = std::move(tuples);
  set.lists.resize(static_cast<size_t>(data.num_attributes()));
  ForEachIndex(pool, set.lists.size(), [&](size_t j) {
    if (data.schema().attribute(static_cast<int>(j)).kind !=
        AttributeKind::kNumerical) {
      return;
    }
    set.lists[j] = GatherAttributeEvents(data, index, set.tuples,
                                         static_cast<int>(j));
  });
  return set;
}

}  // namespace udt

#endif  // UDT_TESTS_SPLIT_REFERENCE_H_
