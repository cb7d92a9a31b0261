#include "split/intervals.h"

#include <cmath>

#include "common/logging.h"
#include "common/math.h"

namespace udt {

const char* IntervalKindToString(IntervalKind kind) {
  switch (kind) {
    case IntervalKind::kEmpty:
      return "empty";
    case IntervalKind::kHomogeneous:
      return "homogeneous";
    case IntervalKind::kHeterogeneous:
      return "heterogeneous";
  }
  return "unknown";
}

namespace {

// Kind of the interval whose end points hold the cumulative rows at_a and
// at_b (Definitions 2-4).
IntervalKind KindFromRows(const std::vector<double>& at_a,
                          const std::vector<double>& at_b) {
  int classes_with_mass = 0;
  for (size_t c = 0; c < at_a.size(); ++c) {
    double k = at_b[c] - at_a[c];
    if (k > kMassEpsilon) ++classes_with_mass;
  }
  if (classes_with_mass == 0) return IntervalKind::kEmpty;
  if (classes_with_mass == 1) return IntervalKind::kHomogeneous;
  return IntervalKind::kHeterogeneous;
}

}  // namespace

IntervalKind ClassifyInterval(const AttributeScan& scan, int a_idx,
                              int b_idx) {
  std::vector<double> at_a;
  std::vector<double> at_b;
  scan.LeftCounts(a_idx, &at_a);
  scan.LeftCounts(b_idx, &at_b);
  return KindFromRows(at_a, at_b);
}

bool IntervalHasLinearGrowth(const AttributeScan& scan, int a_idx,
                             int b_idx) {
  UDT_DCHECK(a_idx < b_idx);
  double x_a = scan.x(a_idx);
  double x_b = scan.x(b_idx);
  double span = x_b - x_a;
  if (span <= 0.0) return false;

  std::vector<double> prev;
  std::vector<double> at_b;
  scan.LeftCounts(a_idx, &prev);
  scan.LeftCounts(b_idx, &at_b);
  // Per-class slope implied by the interval totals: kc / span.
  std::vector<double> slope(prev.size());
  for (size_t c = 0; c < prev.size(); ++c) {
    slope[c] = (at_b[c] - prev[c]) / span;
  }
  // Every step inside the interval must match the slope, per class.
  ScanCursor cursor;
  for (int idx = a_idx + 1; idx <= b_idx; ++idx) {
    const std::vector<double>& row = cursor.Seek(scan, idx);
    double dx = scan.x(idx) - scan.x(idx - 1);
    for (size_t c = 0; c < row.size(); ++c) {
      double increment = row[c] - prev[c];
      if (std::fabs(increment - slope[c] * dx) > kMassEpsilon) {
        return false;
      }
    }
    prev = row;
  }
  return true;
}

std::vector<EndpointInterval> SegmentIntoIntervals(
    const AttributeScan& scan, const std::vector<int>& endpoints) {
  std::vector<EndpointInterval> intervals;
  if (endpoints.size() < 2) return intervals;
  intervals.reserve(endpoints.size() - 1);
  // One ascending cursor sweep over the end points' cumulative rows.
  ScanCursor cursor;
  std::vector<double> at_a = cursor.Seek(scan, endpoints[0]);
  for (size_t i = 0; i + 1 < endpoints.size(); ++i) {
    EndpointInterval interval;
    interval.a_idx = endpoints[i];
    interval.b_idx = endpoints[i + 1];
    UDT_DCHECK(interval.a_idx < interval.b_idx);
    const std::vector<double>& at_b = cursor.Seek(scan, interval.b_idx);
    interval.kind = KindFromRows(at_a, at_b);
    at_a = at_b;
    intervals.push_back(interval);
  }
  return intervals;
}

std::vector<EndpointInterval> EndpointIntervals(const AttributeScan& scan) {
  const std::vector<int>& endpoints = scan.endpoint_positions();
  const std::vector<uint8_t>& classes = scan.endpoint_interval_classes();
  UDT_DCHECK(classes.size() + 1 == endpoints.size() || endpoints.empty());
  std::vector<EndpointInterval> intervals(classes.size());
  for (size_t i = 0; i < classes.size(); ++i) {
    EndpointInterval& interval = intervals[i];
    interval.a_idx = endpoints[i];
    interval.b_idx = endpoints[i + 1];
    interval.kind = classes[i] == 0   ? IntervalKind::kEmpty
                    : classes[i] == 1 ? IntervalKind::kHomogeneous
                                      : IntervalKind::kHeterogeneous;
  }
  return intervals;
}

}  // namespace udt
