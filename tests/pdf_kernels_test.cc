// Pins the branchless pdf kernels (pdf/pdf_kernels.h) to the scalar
// std::upper_bound formulation they replaced, bit for bit: the batch and
// scalar traversals both route ConstrainedMass / ConditionalCdf through
// these kernels, so any divergence here would silently break the
// serving stack's bitwise-identity guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "pdf/pdf.h"
#include "pdf/pdf_builder.h"
#include "pdf/pdf_kernels.h"
#include "split/fractional_tuple.h"

namespace udt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SampledPdf RandomPdf(Rng* rng, int n) {
  std::vector<double> points;
  std::vector<double> masses;
  double x = rng->Uniform(-5.0, 5.0);
  for (int i = 0; i < n; ++i) {
    x += rng->Uniform(0.01, 1.0);
    points.push_back(x);
    masses.push_back(rng->Uniform(0.05, 1.0));
  }
  auto pdf = SampledPdf::Create(std::move(points), std::move(masses));
  UDT_CHECK(pdf.ok());
  return *pdf;
}

// Query values that stress every boundary the searches can land on: the
// sample points themselves, their floating-point neighbours, midpoints,
// both support edges, values outside the support, and +-infinity (the
// root constraint defaults).
std::vector<double> InterestingQueries(const SampledPdf& pdf) {
  std::vector<double> qs = {-kInf,
                            kInf,
                            pdf.support_min() - 1.0,
                            pdf.support_max() + 1.0};
  for (int i = 0; i < pdf.num_points(); ++i) {
    double x = pdf.point(i);
    qs.push_back(x);
    qs.push_back(std::nextafter(x, -kInf));
    qs.push_back(std::nextafter(x, kInf));
    if (i + 1 < pdf.num_points()) {
      qs.push_back(0.5 * (x + pdf.point(i + 1)));
    }
  }
  return qs;
}

// The scalar ConditionalCdf chain the fused kernel replaced; the fused
// select sequence must reproduce it exactly, including the z >= hi and
// part <= 0 short-circuits.
double ReferenceConditionalCdf(const SampledPdf& pdf, double lo, double hi,
                               double z) {
  double mass = pdf.CdfAtOrBelow(hi) - pdf.CdfAtOrBelow(lo);
  if (z >= hi) return 1.0;
  double part = pdf.CdfAtOrBelow(z) - pdf.CdfAtOrBelow(lo);
  if (part <= 0.0) return 0.0;
  double p = part / mass;
  return p > 1.0 ? 1.0 : p;
}

TEST(BranchlessUpperBoundTest, MatchesStdUpperBoundExhaustively) {
  Rng rng(1234);
  for (int n = 1; n <= 48; ++n) {
    std::vector<double> points;
    double x = rng.Uniform(-10.0, 10.0);
    for (int i = 0; i < n; ++i) {
      x += rng.Uniform(0.01, 2.0);
      points.push_back(x);
    }
    std::vector<double> queries = {-kInf, kInf, points.front() - 1.0,
                                   points.back() + 1.0};
    for (int i = 0; i < n; ++i) {
      queries.push_back(points[static_cast<size_t>(i)]);
      queries.push_back(
          std::nextafter(points[static_cast<size_t>(i)], -kInf));
      queries.push_back(std::nextafter(points[static_cast<size_t>(i)], kInf));
    }
    for (double z : queries) {
      const size_t expected = static_cast<size_t>(
          std::upper_bound(points.begin(), points.end(), z) - points.begin());
      EXPECT_EQ(BranchlessUpperBound(points.data(), points.size(), z),
                expected)
          << "n=" << n << " z=" << z;
    }
  }
}

TEST(PdfKernelsTest, CdfAtOrBelowBitwiseEqual) {
  Rng rng(99);
  for (int n : {1, 2, 3, 7, 16, 33}) {
    SampledPdf pdf = RandomPdf(&rng, n);
    for (double z : InterestingQueries(pdf)) {
      const double expected = pdf.CdfAtOrBelow(z);
      const double got = PdfCdfAtOrBelow(pdf, z);
      EXPECT_EQ(got, expected) << "n=" << n << " z=" << z;
    }
  }
}

TEST(PdfKernelsTest, ConstrainedMassBitwiseEqual) {
  Rng rng(7);
  for (int n : {1, 2, 5, 12, 27}) {
    SampledPdf pdf = RandomPdf(&rng, n);
    std::vector<double> queries = InterestingQueries(pdf);
    for (double lo : queries) {
      for (double hi : queries) {
        if (lo > hi) continue;
        const double expected = pdf.CdfAtOrBelow(hi) - pdf.CdfAtOrBelow(lo);
        EXPECT_EQ(PdfConstrainedMass(pdf, lo, hi), expected)
            << "lo=" << lo << " hi=" << hi;
        // The public traversal entry point delegates to the kernel.
        EXPECT_EQ(ConstrainedMass(pdf, lo, hi), expected);
      }
    }
  }
}

// The split scans' window search: both ends match the scalar searches and
// the mass matches PdfConstrainedMass bit for bit.
TEST(PdfKernelsTest, ConstrainedWindowMatchesScalarSearches) {
  Rng rng(23);
  for (int n : {1, 2, 5, 12, 27}) {
    SampledPdf pdf = RandomPdf(&rng, n);
    std::vector<double> queries = InterestingQueries(pdf);
    for (double lo : queries) {
      for (double hi : queries) {
        if (lo > hi) continue;
        const PdfWindow window = PdfConstrainedWindow(pdf, lo, hi);
        EXPECT_EQ(window.begin,
                  static_cast<size_t>(pdf.FirstPointAbove(lo)));
        EXPECT_EQ(window.end, static_cast<size_t>(pdf.FirstPointAbove(hi)));
        EXPECT_EQ(window.mass, PdfConstrainedMass(pdf, lo, hi))
            << "lo=" << lo << " hi=" << hi;
      }
    }
  }
}

TEST(PdfKernelsTest, NumericalSplitEvalMatchesReferenceChain) {
  Rng rng(51);
  for (int n : {1, 2, 5, 12, 27}) {
    SampledPdf pdf = RandomPdf(&rng, n);
    std::vector<double> queries = InterestingQueries(pdf);
    for (double lo : queries) {
      for (double hi : queries) {
        if (lo > hi) continue;
        const double mass = pdf.CdfAtOrBelow(hi) - pdf.CdfAtOrBelow(lo);
        for (double z : queries) {
          const PdfSplitEval eval = PdfEvalNumericalSplit(pdf, lo, hi, z);
          EXPECT_EQ(eval.mass, mass) << "lo=" << lo << " hi=" << hi;
          if (mass <= 0.0) continue;  // traversal never asks for p then
          const double expected = ReferenceConditionalCdf(pdf, lo, hi, z);
          EXPECT_EQ(eval.p_left, expected)
              << "lo=" << lo << " hi=" << hi << " z=" << z;
          EXPECT_EQ(ConditionalCdf(pdf, lo, hi, z), expected);
        }
      }
    }
  }
}

TEST(PdfKernelsTest, EdgeCases) {
  Rng rng(3);
  SampledPdf pdf = RandomPdf(&rng, 9);

  // Degenerate interval: lo == hi carries zero mass, exactly.
  for (int i = 0; i < pdf.num_points(); ++i) {
    const double x = pdf.point(i);
    EXPECT_EQ(PdfConstrainedMass(pdf, x, x), 0.0);
  }

  // The unconstrained root interval carries the full mass, exactly 1.0
  // (SampledPdf::Create forces the final cumulative entry to 1.0).
  EXPECT_EQ(PdfConstrainedMass(pdf, -kInf, kInf), 1.0);

  // A split below the support sends nothing left; at or above the upper
  // bound everything goes left.
  const double below = pdf.support_min() - 1.0;
  const double above = pdf.support_max() + 1.0;
  EXPECT_EQ(PdfEvalNumericalSplit(pdf, -kInf, kInf, below).p_left, 0.0);
  EXPECT_EQ(PdfEvalNumericalSplit(pdf, -kInf, kInf, above).p_left, 1.0);
  EXPECT_EQ(PdfEvalNumericalSplit(pdf, -kInf, above, above).p_left, 1.0);

  // A point mass is all-or-nothing around its location.
  SampledPdf point = SampledPdf::PointMass(2.0);
  EXPECT_EQ(PdfEvalNumericalSplit(point, -kInf, kInf, 2.0).p_left, 1.0);
  EXPECT_EQ(
      PdfEvalNumericalSplit(point, -kInf, kInf, std::nextafter(2.0, -kInf))
          .p_left,
      0.0);
  EXPECT_EQ(PdfConstrainedMass(point, -kInf, kInf), 1.0);
}

}  // namespace
}  // namespace udt
