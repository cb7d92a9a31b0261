// Factories for the error models the paper evaluates (Section 4.3):
// uniform and truncated-Gaussian pdfs over a controlled-width interval, plus
// empirical pdfs built from raw repeated measurements (the "JapaneseVowel"
// pipeline) and point masses for certain data.

#ifndef UDT_PDF_PDF_BUILDER_H_
#define UDT_PDF_PDF_BUILDER_H_

#include <vector>

#include "common/statusor.h"
#include "pdf/pdf.h"

namespace udt {

// Uniform distribution over [lo, hi] discretised into `s` sample points at
// the midpoints of s equal-width cells, each with mass 1/s. The mean is
// exactly (lo+hi)/2. Requires lo < hi and s >= 1.
StatusOr<SampledPdf> MakeUniformPdf(double lo, double hi, int s);

// Gaussian with the given mean/stddev truncated to [lo, hi] and
// renormalised (the paper: "the Gaussian distribution is chopped at both
// ends symmetrically, and the remaining nonzero region around the mean is
// renormalized"). Discretised into `s` midpoint samples with mass
// proportional to the density. Requires lo < hi, stddev > 0, s >= 1.
StatusOr<SampledPdf> MakeTruncatedGaussianPdf(double mean, double stddev,
                                              double lo, double hi, int s);

// The paper's Gaussian error model for a recorded value v: support
// [v - width/2, v + width/2], stddev = width/4 (Section 4.3). A zero width
// yields a point mass at v, and so does a positive width too small to move
// either end of the support off v in floating point (e.g. v = 1e17, whose
// ulp is 16, with width 1.6).
StatusOr<SampledPdf> MakeGaussianErrorPdf(double value, double width, int s);

// The paper's uniform (quantisation) error model for a recorded value v:
// uniform over [v - width/2, v + width/2]. A zero width, or one too small to
// move either end of the support off v, yields a point mass.
StatusOr<SampledPdf> MakeUniformErrorPdf(double value, double width, int s);

// Write the pdf MakeGaussianErrorPdf / MakeUniformErrorPdf would return,
// bit for bit, as the next pdf of `block` (at most SliceSize(s) doubles),
// so that many pdfs can share one block.
Status AppendGaussianErrorPdf(double value, double width, int s,
                              PdfBlockWriter* block);
Status AppendUniformErrorPdf(double value, double width, int s,
                             PdfBlockWriter* block);

// Empirical distribution of raw repeated measurements, each sample weighted
// equally (duplicates merge). This is how the "JapaneseVowel" pdfs are
// modelled from the 7-29 raw samples per value. Fails on empty input.
StatusOr<SampledPdf> MakePdfFromSamples(const std::vector<double>& samples);

}  // namespace udt

#endif  // UDT_PDF_PDF_BUILDER_H_
