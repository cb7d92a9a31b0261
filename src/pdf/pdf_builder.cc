#include "pdf/pdf_builder.h"

#include <algorithm>
#include <cmath>

namespace udt {

namespace {

// Writes the midpoints of s equal-width cells covering [lo, hi] to `grid`.
void MidpointGrid(double lo, double hi, int s, double* grid) {
  double cell = (hi - lo) / s;
  for (int i = 0; i < s; ++i) {
    grid[i] = lo + (i + 0.5) * cell;
  }
}

// True when the error interval [lo, hi] = [v - width/2, v + width/2] has
// no room for a grid: width 0, or a width so far below the ulp of a finite
// v that both ends round back onto v. Either way the pdf is a point mass.
bool ErrorSupportCollapses(double value, double width, double lo, double hi) {
  return width == 0.0 || (std::isfinite(value) && lo == hi);
}

Status AppendUniformPdf(double lo, double hi, int s, PdfBlockWriter* block) {
  if (s < 1) return Status::InvalidArgument("sample count must be >= 1");
  if (!(lo < hi)) return Status::InvalidArgument("requires lo < hi");
  const PdfBlockWriter::RawPdf raw = block->Stage(s);
  MidpointGrid(lo, hi, s, raw.points);
  std::fill(raw.masses, raw.masses + s, 1.0 / s);
  return block->Commit();
}

Status AppendTruncatedGaussianPdf(double mean, double stddev, double lo,
                                  double hi, int s, PdfBlockWriter* block) {
  if (s < 1) return Status::InvalidArgument("sample count must be >= 1");
  if (!(lo < hi)) return Status::InvalidArgument("requires lo < hi");
  if (!(stddev > 0.0)) return Status::InvalidArgument("requires stddev > 0");
  const PdfBlockWriter::RawPdf raw = block->Stage(s);
  MidpointGrid(lo, hi, s, raw.points);
  for (int i = 0; i < s; ++i) {
    double z = (raw.points[i] - mean) / stddev;
    raw.masses[i] = std::exp(-0.5 * z * z);  // Commit() renormalises.
  }
  return block->Commit();
}

// The pdf `append` writes, in a block of its own (Stage allocates it).
template <typename Append>
StatusOr<SampledPdf> BuildAlone(const Append& append) {
  PdfBlockWriter block;
  UDT_RETURN_NOT_OK(append(&block));
  block.Seal();
  return block.pdf(0);
}

}  // namespace

StatusOr<SampledPdf> MakeUniformPdf(double lo, double hi, int s) {
  return BuildAlone([&](PdfBlockWriter* block) {
    return AppendUniformPdf(lo, hi, s, block);
  });
}

StatusOr<SampledPdf> MakeTruncatedGaussianPdf(double mean, double stddev,
                                              double lo, double hi, int s) {
  return BuildAlone([&](PdfBlockWriter* block) {
    return AppendTruncatedGaussianPdf(mean, stddev, lo, hi, s, block);
  });
}

Status AppendGaussianErrorPdf(double value, double width, int s,
                              PdfBlockWriter* block) {
  if (width < 0.0) return Status::InvalidArgument("width must be >= 0");
  const double lo = value - width / 2.0;
  const double hi = value + width / 2.0;
  if (ErrorSupportCollapses(value, width, lo, hi)) {
    block->AppendPointMass(value);
    return Status::OK();
  }
  // Section 4.3: interval width w*|A|, standard deviation a quarter of it.
  return AppendTruncatedGaussianPdf(value, width / 4.0, lo, hi, s, block);
}

Status AppendUniformErrorPdf(double value, double width, int s,
                             PdfBlockWriter* block) {
  if (width < 0.0) return Status::InvalidArgument("width must be >= 0");
  const double lo = value - width / 2.0;
  const double hi = value + width / 2.0;
  if (ErrorSupportCollapses(value, width, lo, hi)) {
    block->AppendPointMass(value);
    return Status::OK();
  }
  return AppendUniformPdf(lo, hi, s, block);
}

StatusOr<SampledPdf> MakeGaussianErrorPdf(double value, double width, int s) {
  return BuildAlone([&](PdfBlockWriter* block) {
    return AppendGaussianErrorPdf(value, width, s, block);
  });
}

StatusOr<SampledPdf> MakeUniformErrorPdf(double value, double width, int s) {
  return BuildAlone([&](PdfBlockWriter* block) {
    return AppendUniformErrorPdf(value, width, s, block);
  });
}

StatusOr<SampledPdf> MakePdfFromSamples(const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("cannot build a pdf from zero samples");
  }
  std::vector<double> masses(samples.size(), 1.0 / samples.size());
  return SampledPdf::Create(samples, std::move(masses));
}

}  // namespace udt
