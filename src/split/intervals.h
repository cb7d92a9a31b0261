// Interval segmentation (Section 5.1): the end points Q_j partition the
// attribute axis into disjoint intervals (q_i, q_{i+1}], each classified as
//   empty         - no probability mass inside          (Definition 2)
//   homogeneous   - all mass inside from one class      (Definition 3)
//   heterogeneous - otherwise                           (Definition 4)
// Theorems 1 and 2 make the interiors of empty and homogeneous intervals
// safe to skip; heterogeneous interiors need evaluation or bounding.

#ifndef UDT_SPLIT_INTERVALS_H_
#define UDT_SPLIT_INTERVALS_H_

#include <vector>

#include "split/attribute_scan.h"

namespace udt {

enum class IntervalKind {
  kEmpty,
  kHomogeneous,
  kHeterogeneous,
};

const char* IntervalKindToString(IntervalKind kind);

// One end-point interval (x(a_idx), x(b_idx)] of a scan.
struct EndpointInterval {
  int a_idx = 0;  // position of the left end point (exclusive boundary)
  int b_idx = 0;  // position of the right end point (inclusive boundary)
  IntervalKind kind = IntervalKind::kEmpty;

  // Interior candidate positions are a_idx+1 .. b_idx-1.
  int num_interior() const { return b_idx - a_idx - 1; }
};

// Classifies the interval (x(a_idx), x(b_idx)] from its class masses.
IntervalKind ClassifyInterval(const AttributeScan& scan, int a_idx,
                              int b_idx);

// Builds the intervals between consecutive end points of `endpoints`
// (positions into `scan`, ascending). With v end points this yields v-1
// intervals.
std::vector<EndpointInterval> SegmentIntoIntervals(
    const AttributeScan& scan, const std::vector<int>& endpoints);

// SegmentIntoIntervals(scan, scan.endpoint_positions()), read from the
// interval classes the scan recorded while it was built instead of a sweep
// over its rows.
std::vector<EndpointInterval> EndpointIntervals(const AttributeScan& scan);

// Theorem 3: if every class's tuple count grows linearly inside a
// heterogeneous interval, an end point of the interval is also optimal and
// the interior may be skipped. With discrete sample masses, linear growth
// means: at every position in (a_idx, b_idx], each class's mass increment
// is proportional to the x-step with one slope per class. This holds for
// the uniform-pdf case the paper highlights (a uniform pdf's equally
// spaced, equally weighted samples) whenever one tuple's grid spans the
// interval, and for aligned combinations of such grids.
bool IntervalHasLinearGrowth(const AttributeScan& scan, int a_idx,
                             int b_idx);

}  // namespace udt

#endif  // UDT_SPLIT_INTERVALS_H_
