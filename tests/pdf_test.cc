// Unit and property tests for the SampledPdf substrate and its builders.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "pdf/pdf.h"
#include "pdf/pdf_builder.h"
#include "table/dataset.h"

namespace udt {
namespace {

TEST(SampledPdfTest, CreateSortsAndNormalises) {
  auto pdf = SampledPdf::Create({3.0, 1.0, 2.0}, {2.0, 1.0, 1.0});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), 3);
  EXPECT_DOUBLE_EQ(pdf->point(0), 1.0);
  EXPECT_DOUBLE_EQ(pdf->point(2), 3.0);
  EXPECT_NEAR(pdf->mass(0), 0.25, 1e-12);
  EXPECT_NEAR(pdf->mass(2), 0.5, 1e-12);
}

TEST(SampledPdfTest, CreateMergesDuplicatePoints) {
  auto pdf = SampledPdf::Create({1.0, 1.0, 2.0}, {1.0, 1.0, 2.0});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), 2);
  EXPECT_NEAR(pdf->mass(0), 0.5, 1e-12);
}

TEST(SampledPdfTest, CreateDropsZeroMass) {
  auto pdf = SampledPdf::Create({1.0, 2.0, 3.0}, {1.0, 0.0, 1.0});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), 2);
  EXPECT_DOUBLE_EQ(pdf->point(1), 3.0);
}

TEST(SampledPdfTest, CreateRejectsBadInput) {
  EXPECT_FALSE(SampledPdf::Create({}, {}).ok());
  EXPECT_FALSE(SampledPdf::Create({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(SampledPdf::Create({1.0}, {-1.0}).ok());
  EXPECT_FALSE(SampledPdf::Create({1.0, 2.0}, {0.0, 0.0}).ok());
  double nan = std::nan("");
  EXPECT_FALSE(SampledPdf::Create({nan}, {1.0}).ok());
  double inf = INFINITY;
  EXPECT_FALSE(SampledPdf::Create({inf}, {1.0}).ok());
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-level equality of two pdfs: points, masses, cumulative masses, mean
// and footprint.
void ExpectSamePdf(const SampledPdf& a, const SampledPdf& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (int i = 0; i < a.num_points(); ++i) {
    EXPECT_EQ(BitsOf(a.point(i)), BitsOf(b.point(i))) << "point " << i;
    EXPECT_EQ(BitsOf(a.mass(i)), BitsOf(b.mass(i))) << "mass " << i;
    EXPECT_EQ(BitsOf(a.cumulative_data()[i]), BitsOf(b.cumulative_data()[i]))
        << "cumulative " << i;
  }
  EXPECT_EQ(BitsOf(a.Mean()), BitsOf(b.Mean()));
  EXPECT_EQ(a.MemoryUsageBytes(), b.MemoryUsageBytes());
}

TEST(SampledPdfTest, CopiesShareTheSlice) {
  auto pdf = MakeGaussianErrorPdf(3.0, 2.0, 20);
  ASSERT_TRUE(pdf.ok());
  const SampledPdf copy = *pdf;
  EXPECT_EQ(copy.slice(), pdf->slice());
  const UncertainValue value = UncertainValue::Numerical(*pdf);
  // The copy is what is under test.
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const UncertainValue copied = value;
  EXPECT_EQ(copied.pdf_instance(), value.pdf_instance());
  EXPECT_EQ(copied.pdf_instance(), pdf->slice());
  EXPECT_EQ(pdf->MemoryUsageBytes(),
            sizeof(double) * SampledPdf::SliceSize(20));
}

TEST(PdfBlockWriterTest, PdfsShareOneBlockAndMatchTheirFactories) {
  auto shuffled = SampledPdf::Create({2.0, 1.0, 2.0}, {1.0, 1.0, 2.0});
  ASSERT_TRUE(shuffled.ok());
  PdfBlockWriter block;
  // Room for two 8-point pdfs only: the third pdf grows the block.
  block.Open(2 * SampledPdf::SliceSize(8));
  ASSERT_TRUE(AppendGaussianErrorPdf(1.0, 0.5, 8, &block).ok());
  block.AppendPointMass(-2.0);
  ASSERT_TRUE(AppendUniformErrorPdf(5.0, 1.0, 8, &block).ok());
  block.Append(*shuffled);
  // A pdf that fails to commit leaves the block as it was.
  const PdfBlockWriter::RawPdf raw = block.Stage(2);
  raw.points[0] = 0.0;
  raw.points[1] = 1.0;
  raw.masses[0] = -1.0;
  raw.masses[1] = 1.0;
  EXPECT_FALSE(block.Commit().ok());
  block.Seal();
  ASSERT_EQ(block.num_pdfs(), 4);
  ExpectSamePdf(block.pdf(0), *MakeGaussianErrorPdf(1.0, 0.5, 8));
  ExpectSamePdf(block.pdf(1), SampledPdf::PointMass(-2.0));
  ExpectSamePdf(block.pdf(2), *MakeUniformErrorPdf(5.0, 1.0, 8));
  ExpectSamePdf(block.pdf(3), *shuffled);
  for (int i = 1; i < block.num_pdfs(); ++i) {
    const SampledPdf before = block.pdf(i - 1);
    EXPECT_EQ(block.pdf(i).slice(),
              before.slice() + SampledPdf::SliceSize(before.num_points()));
  }
  // Handles keep their block alive after the writer moves on.
  const SampledPdf kept = block.pdf(2);
  block.Open(0);
  ExpectSamePdf(kept, *MakeUniformErrorPdf(5.0, 1.0, 8));
}

TEST(SampledPdfTest, SortedInputMatchesTheSortPathBitForBit) {
  // Strictly ascending input with positive masses skips the sort; a
  // shuffled copy of the same input takes it. Both must agree exactly.
  uint64_t state = 4242;
  auto next = [&state] {
    const uint64_t out = SplitMix64(state);
    state += 0x9E3779B97F4A7C15ULL;
    return out;
  };
  auto unit = [&next] {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + next() % 150;
    std::vector<double> points;
    points.reserve(n);
    const int scale = static_cast<int>(next() % 40);
    double x = (unit() - 0.5) * std::ldexp(1.0, scale);
    for (size_t i = 0; i < n; ++i) {
      x += 1e-3 + unit();
      points.push_back(x);
    }
    std::vector<double> masses;
    masses.reserve(n);
    for (size_t i = 0; i < n; ++i) masses.push_back(1e-6 + unit());

    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
    std::vector<double> shuffled_points;
    std::vector<double> shuffled_masses;
    shuffled_points.reserve(n);
    shuffled_masses.reserve(n);
    for (size_t idx : order) {
      shuffled_points.push_back(points[idx]);
      shuffled_masses.push_back(masses[idx]);
    }

    auto fast = SampledPdf::Create(points, masses);
    auto sorted = SampledPdf::Create(shuffled_points, shuffled_masses);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(sorted.ok());
    ExpectSamePdf(*fast, *sorted);
  }
}

TEST(SampledPdfTest, PointMass) {
  SampledPdf pdf = SampledPdf::PointMass(4.5);
  EXPECT_TRUE(pdf.is_point());
  EXPECT_EQ(pdf.num_points(), 1);
  EXPECT_DOUBLE_EQ(pdf.Mean(), 4.5);
  EXPECT_DOUBLE_EQ(pdf.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(pdf.CdfAtOrBelow(4.5), 1.0);
  EXPECT_DOUBLE_EQ(pdf.CdfAtOrBelow(4.4999), 0.0);
}

TEST(SampledPdfTest, PaperTuple3Distribution) {
  // Tuple 3 of Table 1: values -1, +1, +10 with probabilities 5/8, 1/8, 2/8;
  // the paper quotes its mean as +2.0.
  auto pdf = SampledPdf::Create({-1.0, 1.0, 10.0},
                                {5.0 / 8, 1.0 / 8, 2.0 / 8});
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(pdf->Mean(), 2.0, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(-1.0), 0.625, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(0.0), 0.625, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(1.0), 0.75, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(10.0), 1.0, 1e-12);
}

TEST(SampledPdfTest, CdfIsMonotoneStepFunction) {
  auto pdf = SampledPdf::Create({0.0, 1.0, 2.0}, {0.2, 0.3, 0.5});
  ASSERT_TRUE(pdf.ok());
  EXPECT_DOUBLE_EQ(pdf->CdfAtOrBelow(-0.5), 0.0);
  EXPECT_NEAR(pdf->CdfAtOrBelow(0.0), 0.2, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(0.99), 0.2, 1e-12);
  EXPECT_NEAR(pdf->CdfAtOrBelow(1.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(pdf->CdfAtOrBelow(5.0), 1.0);
}

TEST(SampledPdfTest, MassInHalfOpen) {
  auto pdf = SampledPdf::Create({0.0, 1.0, 2.0}, {0.2, 0.3, 0.5});
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(pdf->MassInHalfOpen(0.0, 1.0), 0.3, 1e-12);
  EXPECT_NEAR(pdf->MassInHalfOpen(-1.0, 2.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pdf->MassInHalfOpen(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(pdf->MassInHalfOpen(2.0, 1.0), 0.0);  // hi < lo
}

TEST(SampledPdfTest, FirstPointAbove) {
  auto pdf = SampledPdf::Create({0.0, 1.0, 2.0}, {0.2, 0.3, 0.5});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->FirstPointAbove(-1.0), 0);
  EXPECT_EQ(pdf->FirstPointAbove(0.0), 1);
  EXPECT_EQ(pdf->FirstPointAbove(1.5), 2);
  EXPECT_EQ(pdf->FirstPointAbove(2.0), 3);
}

TEST(SampledPdfTest, VarianceMatchesHandComputation) {
  auto pdf = SampledPdf::Create({0.0, 2.0}, {0.5, 0.5});
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(pdf->Mean(), 1.0, 1e-12);
  EXPECT_NEAR(pdf->Variance(), 1.0, 1e-12);
}

TEST(SampledPdfTest, ToStringReadable) {
  auto pdf = SampledPdf::Create({-1.0, 1.0}, {0.25, 0.75});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->ToString(), "{-1:0.25, 1:0.75}");
}

// ---------- builders ----------

TEST(PdfBuilderTest, UniformPdfMeanAndSupport) {
  auto pdf = MakeUniformPdf(2.0, 6.0, 100);
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), 100);
  EXPECT_NEAR(pdf->Mean(), 4.0, 1e-9);
  EXPECT_GT(pdf->support_min(), 2.0);
  EXPECT_LT(pdf->support_max(), 6.0);
  // Uniform: every mass equal.
  for (int i = 0; i < pdf->num_points(); ++i) {
    EXPECT_NEAR(pdf->mass(i), 0.01, 1e-12);
  }
}

TEST(PdfBuilderTest, UniformPdfRejectsBadArgs) {
  EXPECT_FALSE(MakeUniformPdf(1.0, 1.0, 10).ok());
  EXPECT_FALSE(MakeUniformPdf(2.0, 1.0, 10).ok());
  EXPECT_FALSE(MakeUniformPdf(0.0, 1.0, 0).ok());
}

TEST(PdfBuilderTest, TruncatedGaussianPeaksAtMean) {
  auto pdf = MakeTruncatedGaussianPdf(0.0, 1.0, -2.0, 2.0, 101);
  ASSERT_TRUE(pdf.ok());
  // The heaviest sample should be the one closest to the mean.
  int heaviest = 0;
  for (int i = 1; i < pdf->num_points(); ++i) {
    if (pdf->mass(i) > pdf->mass(heaviest)) heaviest = i;
  }
  EXPECT_NEAR(pdf->point(heaviest), 0.0, 0.05);
  EXPECT_NEAR(pdf->Mean(), 0.0, 1e-9);
}

TEST(PdfBuilderTest, TruncatedGaussianSymmetricMasses) {
  auto pdf = MakeTruncatedGaussianPdf(5.0, 0.5, 4.0, 6.0, 50);
  ASSERT_TRUE(pdf.ok());
  for (int i = 0; i < pdf->num_points() / 2; ++i) {
    EXPECT_NEAR(pdf->mass(i), pdf->mass(pdf->num_points() - 1 - i), 1e-9);
  }
}

TEST(PdfBuilderTest, GaussianErrorPdfConventions) {
  // Section 4.3: support width w*|A|, stddev a quarter of the width.
  auto pdf = MakeGaussianErrorPdf(10.0, 4.0, 200);
  ASSERT_TRUE(pdf.ok());
  EXPECT_GE(pdf->support_min(), 8.0);
  EXPECT_LE(pdf->support_max(), 12.0);
  EXPECT_NEAR(pdf->Mean(), 10.0, 1e-9);
  // Truncation at +-2 sigma keeps the sample stddev a bit under 1.0.
  double sd = std::sqrt(pdf->Variance());
  EXPECT_GT(sd, 0.7);
  EXPECT_LT(sd, 1.0);
}

TEST(PdfBuilderTest, ZeroWidthErrorPdfIsPointMass) {
  auto g = MakeGaussianErrorPdf(3.0, 0.0, 100);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->is_point());
  auto u = MakeUniformErrorPdf(3.0, 0.0, 100);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->is_point());
}

TEST(PdfBuilderTest, WidthBelowTheUlpIsPointMass) {
  // The ulp of 1e17 is 16: v +- 0.8 rounds back onto v, so the support
  // collapses and the pdf is a point mass, as for width 0.
  for (double v : {1e17, 1e17 + 16.0, -1e17}) {
    auto g = MakeGaussianErrorPdf(v, 1.6, 100);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_TRUE(g->is_point());
    EXPECT_EQ(g->Mean(), v);
    auto u = MakeUniformErrorPdf(v, 1.6, 100);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    EXPECT_TRUE(u->is_point());
    EXPECT_EQ(u->Mean(), v);
  }
  // A width that does move the ends still builds a grid (duplicate grid
  // points merge).
  auto wide = MakeUniformErrorPdf(1e17, 64.0, 100);
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(wide->num_points(), 1);
  // Non-finite values still fail rather than becoming point masses.
  EXPECT_FALSE(MakeGaussianErrorPdf(std::nan(""), 1.0, 10).ok());
  EXPECT_FALSE(MakeUniformErrorPdf(INFINITY, 1.0, 10).ok());
}

TEST(PdfBuilderTest, NegativeWidthRejected) {
  EXPECT_FALSE(MakeGaussianErrorPdf(0.0, -1.0, 10).ok());
  EXPECT_FALSE(MakeUniformErrorPdf(0.0, -1.0, 10).ok());
}

TEST(PdfBuilderTest, PdfFromSamplesEmpirical) {
  auto pdf = MakePdfFromSamples({1.0, 2.0, 2.0, 3.0});
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), 3);
  EXPECT_NEAR(pdf->mass(1), 0.5, 1e-12);  // duplicate 2.0 merged
  EXPECT_NEAR(pdf->Mean(), 2.0, 1e-12);
}

TEST(PdfBuilderTest, PdfFromSamplesRejectsEmpty) {
  EXPECT_FALSE(MakePdfFromSamples({}).ok());
}

// Property sweep over the sample count s: normalisation, mean centring and
// CDF boundary behaviour hold for all discretisations.
class PdfSampleCountTest : public ::testing::TestWithParam<int> {};

TEST_P(PdfSampleCountTest, GaussianErrorPdfWellFormed) {
  int s = GetParam();
  auto pdf = MakeGaussianErrorPdf(1.0, 0.5, s);
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), s);
  double total = 0.0;
  for (int i = 0; i < pdf->num_points(); ++i) total += pdf->mass(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(pdf->Mean(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(pdf->CdfAtOrBelow(pdf->support_max()), 1.0);
  EXPECT_DOUBLE_EQ(pdf->CdfAtOrBelow(pdf->support_min() - 1e-9), 0.0);
}

TEST_P(PdfSampleCountTest, UniformErrorPdfWellFormed) {
  int s = GetParam();
  auto pdf = MakeUniformErrorPdf(-2.0, 1.0, s);
  ASSERT_TRUE(pdf.ok());
  EXPECT_EQ(pdf->num_points(), s);
  EXPECT_NEAR(pdf->Mean(), -2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, PdfSampleCountTest,
                         ::testing::Values(1, 2, 3, 10, 50, 100, 200));

}  // namespace
}  // namespace udt
