#include "pdf/pdf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/math.h"
#include "common/string_util.h"

namespace udt {

StatusOr<SampledPdf> SampledPdf::Create(std::vector<double> points,
                                        std::vector<double> masses) {
  if (points.size() != masses.size()) {
    return Status::InvalidArgument("points/masses size mismatch");
  }
  if (points.empty()) {
    return Status::InvalidArgument("pdf requires at least one sample point");
  }
  // Input that is already canonical — strictly ascending points, every
  // mass positive — needs no sort, merge or drop. Every grid factory, the
  // calibrator and the storage decode hand over such input, so it is
  // normalised in place; anything else goes through the sort below.
  bool canonical = true;
  for (size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i]) || !std::isfinite(masses[i])) {
      return Status::InvalidArgument("pdf sample points must be finite");
    }
    if (masses[i] < 0.0) {
      return Status::InvalidArgument("pdf masses must be non-negative");
    }
    if (!(masses[i] > 0.0) || (i > 0 && !(points[i - 1] < points[i]))) {
      canonical = false;
    }
  }

  if (canonical) {
    // The sort path would have copied into exactly-sized vectors; keep
    // the same footprint (MemoryUsageBytes counts capacity).
    points.shrink_to_fit();
    masses.shrink_to_fit();
  } else {
    // Sort jointly by point, then merge duplicates and drop zero masses.
    std::vector<size_t> order(points.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return points[a] < points[b]; });

    std::vector<double> sorted_points;
    std::vector<double> sorted_masses;
    sorted_points.reserve(points.size());
    sorted_masses.reserve(points.size());
    for (size_t idx : order) {
      double x = points[idx];
      double m = masses[idx];
      if (m <= 0.0) continue;
      if (!sorted_points.empty() && sorted_points.back() == x) {
        sorted_masses.back() += m;
      } else {
        sorted_points.push_back(x);
        sorted_masses.push_back(m);
      }
    }
    if (sorted_points.empty()) {
      return Status::InvalidArgument("pdf carries no positive mass");
    }
    points = std::move(sorted_points);
    masses = std::move(sorted_masses);
  }

  double total = std::accumulate(masses.begin(), masses.end(), 0.0);
  UDT_DCHECK(total > 0.0);

  std::vector<double> cumulative(masses.size());
  KahanSum running;
  KahanSum mean_sum;
  for (size_t i = 0; i < masses.size(); ++i) {
    masses[i] /= total;
    running.Add(masses[i]);
    cumulative[i] = running.value();
    mean_sum.Add(points[i] * masses[i]);
  }
  // Force exact normalisation at the top so F(support_max) == 1.
  cumulative.back() = 1.0;

  return SampledPdf(std::move(points), std::move(masses),
                    std::move(cumulative), mean_sum.value());
}

SampledPdf SampledPdf::PointMass(double x) {
  UDT_CHECK(std::isfinite(x));
  return SampledPdf({x}, {1.0}, {1.0}, x);
}

double SampledPdf::Variance() const {
  KahanSum sum;
  for (size_t i = 0; i < points_.size(); ++i) {
    double d = points_[i] - mean_;
    sum.Add(d * d * masses_[i]);
  }
  return sum.value();
}

double SampledPdf::CdfAtOrBelow(double z) const {
  // Index of the last point <= z.
  auto it = std::upper_bound(points_.begin(), points_.end(), z);
  if (it == points_.begin()) return 0.0;
  size_t last = static_cast<size_t>(it - points_.begin()) - 1;
  return cumulative_[last];
}

double SampledPdf::MassInHalfOpen(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  return CdfAtOrBelow(hi) - CdfAtOrBelow(lo);
}

int SampledPdf::FirstPointAbove(double z) const {
  auto it = std::upper_bound(points_.begin(), points_.end(), z);
  return static_cast<int>(it - points_.begin());
}

size_t SampledPdf::MemoryUsageBytes() const {
  // Capacities, not sizes: the allocator handed out the capacity.
  return sizeof(SampledPdf) +
         sizeof(double) *
             (points_.capacity() + masses_.capacity() + cumulative_.capacity());
}

std::string SampledPdf::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%g:%g", points_[i], masses_[i]);
  }
  out += "}";
  return out;
}

}  // namespace udt
