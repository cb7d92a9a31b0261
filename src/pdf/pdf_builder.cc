#include "pdf/pdf_builder.h"

#include <cmath>

namespace udt {

namespace {

// Midpoints of s equal-width cells covering [lo, hi].
std::vector<double> MidpointGrid(double lo, double hi, int s) {
  std::vector<double> grid(static_cast<size_t>(s));
  double cell = (hi - lo) / s;
  for (int i = 0; i < s; ++i) {
    grid[static_cast<size_t>(i)] = lo + (i + 0.5) * cell;
  }
  return grid;
}

// True when the error interval [lo, hi] = [v - width/2, v + width/2] has
// no room for a grid: width 0, or a width so far below the ulp of a finite
// v that both ends round back onto v. Either way the pdf is a point mass.
bool ErrorSupportCollapses(double value, double width, double lo, double hi) {
  return width == 0.0 || (std::isfinite(value) && lo == hi);
}

}  // namespace

StatusOr<SampledPdf> MakeUniformPdf(double lo, double hi, int s) {
  if (s < 1) return Status::InvalidArgument("sample count must be >= 1");
  if (!(lo < hi)) return Status::InvalidArgument("requires lo < hi");
  std::vector<double> points = MidpointGrid(lo, hi, s);
  std::vector<double> masses(static_cast<size_t>(s), 1.0 / s);
  return SampledPdf::Create(std::move(points), std::move(masses));
}

StatusOr<SampledPdf> MakeTruncatedGaussianPdf(double mean, double stddev,
                                              double lo, double hi, int s) {
  if (s < 1) return Status::InvalidArgument("sample count must be >= 1");
  if (!(lo < hi)) return Status::InvalidArgument("requires lo < hi");
  if (!(stddev > 0.0)) return Status::InvalidArgument("requires stddev > 0");
  std::vector<double> points = MidpointGrid(lo, hi, s);
  std::vector<double> masses(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    double z = (points[i] - mean) / stddev;
    masses[i] = std::exp(-0.5 * z * z);  // Create() renormalises.
  }
  return SampledPdf::Create(std::move(points), std::move(masses));
}

StatusOr<SampledPdf> MakeGaussianErrorPdf(double value, double width, int s) {
  if (width < 0.0) return Status::InvalidArgument("width must be >= 0");
  const double lo = value - width / 2.0;
  const double hi = value + width / 2.0;
  if (ErrorSupportCollapses(value, width, lo, hi)) {
    return SampledPdf::PointMass(value);
  }
  // Section 4.3: interval width w*|A|, standard deviation a quarter of it.
  return MakeTruncatedGaussianPdf(value, width / 4.0, lo, hi, s);
}

StatusOr<SampledPdf> MakeUniformErrorPdf(double value, double width, int s) {
  if (width < 0.0) return Status::InvalidArgument("width must be >= 0");
  const double lo = value - width / 2.0;
  const double hi = value + width / 2.0;
  if (ErrorSupportCollapses(value, width, lo, hi)) {
    return SampledPdf::PointMass(value);
  }
  return MakeUniformPdf(lo, hi, s);
}

StatusOr<SampledPdf> MakePdfFromSamples(const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("cannot build a pdf from zero samples");
  }
  std::vector<double> masses(samples.size(), 1.0 / samples.size());
  return SampledPdf::Create(samples, std::move(masses));
}

}  // namespace udt
