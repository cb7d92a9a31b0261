// Tests for the Section 4.3/4.4 data-preparation pipeline: uncertainty
// injection (w, s, error model) and controlled perturbation (u).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/task_pool.h"
#include "pdf/pdf_builder.h"
#include "table/csv.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

PointDataset MakeGrid(int n) {
  PointDataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < n; ++i) {
    // Attribute ranges: A1 in [0, n-1], A2 in [0, 10*(n-1)].
    EXPECT_TRUE(ds.AddRow({double(i), 10.0 * i}, i % 2).ok());
  }
  return ds;
}

TEST(InjectorTest, PdfMeansMatchPointValues) {
  PointDataset points = MakeGrid(11);
  UncertaintyOptions options;
  options.width_fraction = 0.1;
  options.samples_per_pdf = 64;
  options.error_model = ErrorModel::kGaussian;
  auto ds = InjectUncertainty(points, options);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->num_tuples(), 11);
  for (int i = 0; i < ds->num_tuples(); ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_NEAR(ds->tuple(i).values[static_cast<size_t>(j)].pdf().Mean(),
                  points.value(i, j), 1e-9);
    }
  }
}

TEST(InjectorTest, WidthScalesWithAttributeRange) {
  PointDataset points = MakeGrid(11);  // ranges 10 and 100
  UncertaintyOptions options;
  options.width_fraction = 0.2;
  options.samples_per_pdf = 50;
  options.error_model = ErrorModel::kUniform;
  auto ds = InjectUncertainty(points, options);
  ASSERT_TRUE(ds.ok());
  const SampledPdf& a = ds->tuple(5).values[0].pdf();
  const SampledPdf& b = ds->tuple(5).values[1].pdf();
  double width_a = a.support_max() - a.support_min();
  double width_b = b.support_max() - b.support_min();
  // w * |A1| = 2.0, w * |A2| = 20.0 (minus one grid cell of midpointing).
  EXPECT_NEAR(width_a, 2.0, 0.1);
  EXPECT_NEAR(width_b, 20.0, 1.0);
}

TEST(InjectorTest, ZeroWidthYieldsPointMasses) {
  PointDataset points = MakeGrid(5);
  UncertaintyOptions options;
  options.width_fraction = 0.0;
  options.samples_per_pdf = 32;
  auto ds = InjectUncertainty(points, options);
  ASSERT_TRUE(ds.ok());
  for (int i = 0; i < ds->num_tuples(); ++i) {
    EXPECT_TRUE(ds->tuple(i).values[0].pdf().is_point());
  }
}

TEST(InjectorTest, SampleCountRespected) {
  PointDataset points = MakeGrid(5);
  UncertaintyOptions options;
  options.width_fraction = 0.1;
  options.samples_per_pdf = 33;
  auto ds = InjectUncertainty(points, options);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->tuple(0).values[0].pdf().num_points(), 33);
}

TEST(InjectorTest, GaussianVersusUniformShape) {
  PointDataset points = MakeGrid(3);
  UncertaintyOptions options;
  options.width_fraction = 0.5;
  options.samples_per_pdf = 101;
  options.error_model = ErrorModel::kGaussian;
  auto gaussian = InjectUncertainty(points, options);
  options.error_model = ErrorModel::kUniform;
  auto uniform = InjectUncertainty(points, options);
  ASSERT_TRUE(gaussian.ok() && uniform.ok());
  const SampledPdf& g = gaussian->tuple(1).values[0].pdf();
  const SampledPdf& u = uniform->tuple(1).values[0].pdf();
  // Same support width, but Gaussian concentrates mass centrally:
  // its variance is strictly smaller than the uniform's.
  EXPECT_NEAR(g.support_max() - g.support_min(),
              u.support_max() - u.support_min(), 1e-9);
  EXPECT_LT(g.Variance(), u.Variance());
}

TEST(InjectorTest, RejectsBadOptions) {
  PointDataset points = MakeGrid(3);
  UncertaintyOptions options;
  options.width_fraction = -0.1;
  EXPECT_FALSE(InjectUncertainty(points, options).ok());
  options.width_fraction = 0.1;
  options.samples_per_pdf = 0;
  EXPECT_FALSE(InjectUncertainty(points, options).ok());
  PointDataset empty(Schema::Numerical(1, {"A", "B"}));
  EXPECT_FALSE(InjectUncertainty(empty, UncertaintyOptions{}).ok());
}

TEST(InjectorTest, MissingCellIsNamedNotAGridError) {
  auto points = ReadCsvFromString(
      "a,b,class\n"
      "1.0,2.0,x\n"
      "3.0,?,y\n"
      "5.0,6.0,x\n");
  ASSERT_TRUE(points.ok());
  auto ds = InjectUncertainty(*points, UncertaintyOptions{});
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = ds.status().message();
  EXPECT_NE(message.find("row 2"), std::string::npos) << message;
  EXPECT_NE(message.find("attribute b"), std::string::npos) << message;
  EXPECT_NE(message.find("InjectUncertaintyWithMissing"), std::string::npos)
      << message;
}

TEST(InjectorTest, RangeBelowTheUlpYieldsPointMasses) {
  // |A| = 16 is one ulp of 1e17, so w * |A| = 1.6 cannot move v +- width/2
  // off v: those values become point masses instead of failing.
  PointDataset points(Schema::Numerical(2, {"A", "B"}));
  ASSERT_TRUE(points.AddRow({1e17, 0.0}, 0).ok());
  ASSERT_TRUE(points.AddRow({1e17 + 16.0, 1.0}, 1).ok());
  for (ErrorModel model : {ErrorModel::kGaussian, ErrorModel::kUniform}) {
    UncertaintyOptions options;
    options.error_model = model;
    auto ds = InjectUncertainty(points, options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    for (int i = 0; i < 2; ++i) {
      const SampledPdf& big = ds->tuple(i).values[0].pdf();
      EXPECT_TRUE(big.is_point());
      EXPECT_EQ(big.Mean(), points.value(i, 0));
      EXPECT_EQ(ds->tuple(i).values[1].pdf().num_points(),
                options.samples_per_pdf);
    }
  }
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Bit-level equality of two pdfs.
void ExpectSamePdf(const SampledPdf& a, const SampledPdf& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (int i = 0; i < a.num_points(); ++i) {
    EXPECT_EQ(BitsOf(a.point(i)), BitsOf(b.point(i))) << "point " << i;
    EXPECT_EQ(BitsOf(a.mass(i)), BitsOf(b.mass(i))) << "mass " << i;
    EXPECT_EQ(BitsOf(a.cumulative_data()[i]), BitsOf(b.cumulative_data()[i]))
        << "cumulative " << i;
  }
  EXPECT_EQ(BitsOf(a.Mean()), BitsOf(b.Mean()));
}

// One value through the error model's factory, as the injector calls it.
StatusOr<SampledPdf> MakeErrorPdf(ErrorModel model, double v, double width,
                                  int s) {
  return model == ErrorModel::kGaussian ? MakeGaussianErrorPdf(v, width, s)
                                        : MakeUniformErrorPdf(v, width, s);
}

TEST(InjectorTest, ParallelInjectionMatchesPerValueFactories) {
  // Large enough to take the parallel fan-out on a multi-core host.
  constexpr int kTuples = 400;
  constexpr int kAttributes = 3;
  PointDataset points(Schema::Numerical(kAttributes, {"A", "B", "C"}));
  Rng rng(97);
  for (int i = 0; i < kTuples; ++i) {
    const double a = rng.Uniform(-5.0, 5.0);
    const double b = rng.Gaussian(100.0, 30.0);
    const double c = std::floor(rng.Uniform(0.0, 8.0));
    ASSERT_TRUE(points.AddRow({a, b, c}, rng.UniformInt(3)).ok());
  }
  for (ErrorModel model : {ErrorModel::kGaussian, ErrorModel::kUniform}) {
    UncertaintyOptions options;
    options.error_model = model;
    options.width_fraction = 0.2;
    options.samples_per_pdf = 60;
    const int s = options.samples_per_pdf;
    ASSERT_GE(int64_t{kTuples} * kAttributes * s,
              kMinSamplePointsForParallelInject);
    auto ds = InjectUncertainty(points, options);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ASSERT_EQ(ds->num_tuples(), kTuples);
    for (int j = 0; j < kAttributes; ++j) {
      auto [lo, hi] = points.AttributeRange(j);
      const double width = options.width_fraction * (hi - lo);
      for (int i = 0; i < kTuples; ++i) {
        auto want = MakeErrorPdf(model, points.value(i, j), width, s);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(ds->tuple(i).label, points.label(i));
        ExpectSamePdf(ds->tuple(i).values[static_cast<size_t>(j)].pdf(),
                      *want);
      }
    }
  }
}

TEST(InjectorTest, EveryPdfMatchesItsFactoryAtOneThreadAndOnEveryCore) {
  // Above the parallel cutoff. Attribute C is constant, so its pdfs are
  // point masses and its tuples' blocks end up shorter than reserved.
  constexpr int kTuples = 300;
  constexpr int kAttributes = 4;
  PointDataset points(Schema::Numerical(kAttributes, {"A", "B"}));
  Rng rng(2024);
  for (int i = 0; i < kTuples; ++i) {
    const double a = rng.Uniform(-5.0, 5.0);
    const double b = rng.Gaussian(100.0, 30.0);
    const double d = std::floor(rng.Uniform(0.0, 8.0));
    ASSERT_TRUE(points.AddRow({a, b, 7.0, d}, rng.UniformInt(2)).ok());
  }
  for (ErrorModel model : {ErrorModel::kGaussian, ErrorModel::kUniform}) {
    UncertaintyOptions options;
    options.error_model = model;
    options.width_fraction = 0.1;
    options.samples_per_pdf = 60;
    const int s = options.samples_per_pdf;
    ASSERT_GE(int64_t{kTuples} * kAttributes * s,
              kMinSamplePointsForParallelInject);
    for (int threads : {1, TaskPool::EffectiveConcurrency(0)}) {
      SCOPED_TRACE(StrFormat("%s, %d threads", ErrorModelToString(model),
                             threads));
      auto ds = InjectUncertainty(points, options, threads);
      ASSERT_TRUE(ds.ok()) << ds.status().ToString();
      ASSERT_EQ(ds->num_tuples(), kTuples);
      for (int i = 0; i < kTuples; ++i) {
        const UncertainTuple& tuple = ds->tuple(i);
        EXPECT_EQ(tuple.label, points.label(i));
        for (int j = 0; j < kAttributes; ++j) {
          auto [lo, hi] = points.AttributeRange(j);
          const double width = options.width_fraction * (hi - lo);
          auto want = MakeErrorPdf(model, points.value(i, j), width, s);
          ASSERT_TRUE(want.ok());
          const SampledPdf& got = tuple.values[static_cast<size_t>(j)].pdf();
          ExpectSamePdf(got, *want);
          EXPECT_EQ(got.MemoryUsageBytes(), want->MemoryUsageBytes());
          // One block per tuple: its slices sit back to back.
          if (j > 0) {
            const SampledPdf& before =
                tuple.values[static_cast<size_t>(j - 1)].pdf();
            EXPECT_EQ(got.slice(), before.slice() + SampledPdf::SliceSize(
                                                        before.num_points()));
          }
        }
      }
    }
  }
}

TEST(InjectorTest, FanOutReturnsTheFirstErrorInTupleOrder) {
  constexpr int kTuples = 2000;
  PointDataset points(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(points.AddRow({static_cast<double>(i)}, i % 2).ok());
  }
  // Every tuple from 700 on fails; whichever chunk fails first in time,
  // tuple 700's error is the one reported.
  auto ds = BuildUncertainTuples(
      points, /*samples_per_pdf=*/100,
      [&](int i, int /*j*/, PdfBlockWriter* block) -> Status {
        if (i >= 700) return Status::InvalidArgument(StrFormat("tuple %d", i));
        block->AppendPointMass(i);
        return Status::OK();
      });
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().message(), "tuple 700");
}

TEST(PerturbTest, ZeroUIsIdentity) {
  PointDataset points = MakeGrid(7);
  Rng rng(1);
  PointDataset perturbed = PerturbPointData(points, 0.0, &rng);
  for (int i = 0; i < points.num_tuples(); ++i) {
    EXPECT_DOUBLE_EQ(perturbed.value(i, 0), points.value(i, 0));
    EXPECT_DOUBLE_EQ(perturbed.value(i, 1), points.value(i, 1));
  }
}

TEST(PerturbTest, NoiseScalesWithUAndRange) {
  // sigma = u * |Aj| / 4; measure the empirical deviation.
  PointDataset points(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(points.AddRow({double(i % 101)}, i % 2).ok());  // range 100
  }
  Rng rng(5);
  double u = 0.2;  // sigma should be 0.2 * 100 / 4 = 5.0
  PointDataset perturbed = PerturbPointData(points, u, &rng);
  double sum_sq = 0.0;
  for (int i = 0; i < points.num_tuples(); ++i) {
    double d = perturbed.value(i, 0) - points.value(i, 0);
    sum_sq += d * d;
  }
  double sd = std::sqrt(sum_sq / points.num_tuples());
  EXPECT_NEAR(sd, 5.0, 0.3);
}

TEST(PerturbTest, LabelsUnchanged) {
  PointDataset points = MakeGrid(9);
  Rng rng(2);
  PointDataset perturbed = PerturbPointData(points, 0.3, &rng);
  for (int i = 0; i < points.num_tuples(); ++i) {
    EXPECT_EQ(perturbed.label(i), points.label(i));
  }
}

TEST(ErrorModelTest, Names) {
  EXPECT_STREQ(ErrorModelToString(ErrorModel::kGaussian), "Gaussian");
  EXPECT_STREQ(ErrorModelToString(ErrorModel::kUniform), "Uniform");
}

}  // namespace
}  // namespace udt
