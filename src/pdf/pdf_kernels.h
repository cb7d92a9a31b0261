// Branchless CDF kernels over SampledPdf's raw arrays — the pdf
// mass/integration inner loops that dominate both batch classification and
// split search (the paper's Section 4.2 observation that every candidate
// split costs two cumulative lookups).
//
// Two ideas, both bitwise-faithful to the scalar reference path
// (SampledPdf::CdfAtOrBelow via std::upper_bound):
//
//  * Branchless binary search. The classic half-interval upper-bound loop
//    below touches a data-dependent branch once per probe; rewritten as a
//    conditional add it compiles to a cmov chain the CPU never
//    mispredicts. The loop's length sequence depends only on num_points(),
//    never on the key.
//
//  * Lockstep multi-search. Because the length sequence is key-independent,
//    several searches over the same points array advance through the same
//    iteration schedule and can share one loop: the three probes a
//    numerical tree node needs (F(lo), F(hi), F(z)) issue together, giving
//    the out-of-order core three independent load chains instead of one.
//
// No special cases for infinite bounds: searching +inf lands at
// num_points() and reads cumulative.back(), which SampledPdf::Create forces
// to exactly 1.0; searching -inf lands at 0 and yields exactly 0.0 — the
// same values the scalar code's `hi == inf ? 1.0 : ...` branches produce.

#ifndef UDT_PDF_PDF_KERNELS_H_
#define UDT_PDF_PDF_KERNELS_H_

#include <cstddef>

#include "pdf/pdf.h"

namespace udt {

// Index of the first point strictly greater than z (== std::upper_bound
// over [points, points + n)), branchless. Requires n >= 1.
inline size_t BranchlessUpperBound(const double* points, size_t n, double z) {
  size_t base = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base += points[base + half - 1] <= z ? half : 0;
    len -= half;
  }
  return base + (points[base] <= z ? 1 : 0);
}

// F(z) = P(X <= z) via the branchless search; bitwise-identical to
// SampledPdf::CdfAtOrBelow (same index, same cumulative read).
inline double PdfCdfAtOrBelow(const SampledPdf& pdf, double z) {
  const double* points = pdf.points_data();
  const size_t n = static_cast<size_t>(pdf.num_points());
  const size_t idx = BranchlessUpperBound(points, n, z);
  return idx == 0 ? 0.0 : pdf.cumulative_data()[idx - 1];
}

// The part of a pdf inside a path constraint (lo, hi]: the sample points
// with indices in [begin, end) and their total mass F(hi) - F(lo).
struct PdfWindow {
  size_t begin;  // first point > lo
  size_t end;    // first point > hi
  double mass;
};

// Two lockstep searches give both window ends and the constrained mass.
// `mass` is bitwise-identical to the scalar ConstrainedMass (F at +-inf
// resolves to the exact 1.0 / 0.0 the scalar branches return; see header
// comment); `begin` equals SampledPdf::FirstPointAbove(lo).
inline PdfWindow PdfConstrainedWindow(const SampledPdf& pdf, double lo,
                                      double hi) {
  const double* points = pdf.points_data();
  const double* cumulative = pdf.cumulative_data();
  const size_t n = static_cast<size_t>(pdf.num_points());
  size_t base_lo = 0;
  size_t base_hi = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base_lo += points[base_lo + half - 1] <= lo ? half : 0;
    base_hi += points[base_hi + half - 1] <= hi ? half : 0;
    len -= half;
  }
  const size_t idx_lo = base_lo + (points[base_lo] <= lo ? 1 : 0);
  const size_t idx_hi = base_hi + (points[base_hi] <= hi ? 1 : 0);
  const double lower = idx_lo == 0 ? 0.0 : cumulative[idx_lo - 1];
  const double upper = idx_hi == 0 ? 0.0 : cumulative[idx_hi - 1];
  return PdfWindow{idx_lo, idx_hi, upper - lower};
}

// P(lo < X <= hi) under the path constraint.
inline double PdfConstrainedMass(const SampledPdf& pdf, double lo, double hi) {
  return PdfConstrainedWindow(pdf, lo, hi).mass;
}

// Everything a numerical tree node needs from one tuple's pdf: the
// remaining constrained mass and the conditional probability of the left
// branch. `p_left` is meaningful only when mass > 0 (the traversal prunes
// the node otherwise — same contract as the scalar ConditionalCdf, whose
// Debug DCHECK fires on mass <= 0).
struct PdfSplitEval {
  double mass;
  double p_left;
};

// Fused ConstrainedMass + ConditionalCdf: three lockstep searches (lo, hi,
// z) in one loop. Bitwise-identical to calling the two scalar functions in
// sequence: identical index -> cumulative reads, identical subtraction /
// division / clamp order, and the scalar's early `z >= hi -> 1.0` and
// `part <= 0 -> 0.0` returns become selects over the same values.
inline PdfSplitEval PdfEvalNumericalSplit(const SampledPdf& pdf, double lo,
                                          double hi, double z) {
  const double* points = pdf.points_data();
  const double* cumulative = pdf.cumulative_data();
  const size_t n = static_cast<size_t>(pdf.num_points());
  size_t base_lo = 0;
  size_t base_hi = 0;
  size_t base_z = 0;
  size_t len = n;
  while (len > 1) {
    const size_t half = len / 2;
    base_lo += points[base_lo + half - 1] <= lo ? half : 0;
    base_hi += points[base_hi + half - 1] <= hi ? half : 0;
    base_z += points[base_z + half - 1] <= z ? half : 0;
    len -= half;
  }
  const size_t idx_lo = base_lo + (points[base_lo] <= lo ? 1 : 0);
  const size_t idx_hi = base_hi + (points[base_hi] <= hi ? 1 : 0);
  const size_t idx_z = base_z + (points[base_z] <= z ? 1 : 0);
  const double lower = idx_lo == 0 ? 0.0 : cumulative[idx_lo - 1];
  const double upper = idx_hi == 0 ? 0.0 : cumulative[idx_hi - 1];
  const double at_z = idx_z == 0 ? 0.0 : cumulative[idx_z - 1];

  PdfSplitEval eval;
  eval.mass = upper - lower;
  const double part = at_z - lower;
  double p = part <= 0.0 ? 0.0 : part / eval.mass;
  if (p > 1.0) p = 1.0;
  if (z >= hi) p = 1.0;
  eval.p_left = p;
  return eval;
}

}  // namespace udt

#endif  // UDT_PDF_PDF_KERNELS_H_
