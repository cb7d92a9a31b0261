// Property tests for the interval lower bounds (eq. 3 and its Gini/gain-
// ratio analogues): on randomised uncertain data sets, every interval's
// bound must not exceed the true minimum score over the interval's interior
// candidates. This is the safety condition that makes LP/GP/ES pruning
// exact.

#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/fractional_tuple.h"
#include "split/intervals.h"

namespace udt {
namespace {

Dataset RandomUncertainDataset(int tuples, int classes, int s,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
  Dataset ds(Schema::Numerical(1, names));
  for (int i = 0; i < tuples; ++i) {
    double center = rng.Uniform(0.0, 10.0);
    double width = rng.Uniform(0.5, 3.0);
    StatusOr<SampledPdf> pdf =
        rng.Bernoulli(0.5) ? MakeGaussianErrorPdf(center, width, s)
                           : MakeUniformErrorPdf(center, width, s);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))},
                     i % classes};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

// The true minimum of the score over interior candidates of (a_idx, b_idx].
double TrueInteriorMinimum(const AttributeScan& scan,
                           const SplitScorer& scorer, int a_idx, int b_idx) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<double> left, right;
  for (int idx = a_idx + 1; idx < b_idx; ++idx) {
    scan.LeftCounts(idx, &left);
    scan.RightCounts(idx, &right);
    best = std::min(best, scorer.Score(left, right));
  }
  return best;
}

struct BoundCase {
  DispersionMeasure measure;
  uint64_t seed;
};

class BoundPropertyTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(BoundPropertyTest, BoundNeverExceedsInteriorMinimum) {
  const BoundCase& param = GetParam();
  Dataset ds = RandomUncertainDataset(24, 3, 12, param.seed);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  AttributeScan scan =
      AttributeScan::Build(ds, index, set, 0, ds.num_classes());
  SplitScorer scorer(param.measure, ClassCounts(ds, set, ds.num_classes()));

  std::vector<EndpointInterval> intervals =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  int checked = 0;
  IntervalMassStats stats;
  for (const EndpointInterval& interval : intervals) {
    if (interval.num_interior() == 0) continue;
    scan.IntervalStats(interval.a_idx, interval.b_idx, &stats.nc, &stats.kc,
                       &stats.mc);
    double bound = ScoreLowerBound(scorer, stats);
    double true_min =
        TrueInteriorMinimum(scan, scorer, interval.a_idx, interval.b_idx);
    EXPECT_LE(bound, true_min + 1e-9)
        << "interval (" << scan.x(interval.a_idx) << ", "
        << scan.x(interval.b_idx) << "] measure "
        << DispersionMeasureToString(param.measure);
    ++checked;
  }
  EXPECT_GT(checked, 0) << "degenerate test data: no interior candidates";
}

// Also check *coarse* intervals (spanning several end points), the shape
// UDT-ES bounds in its first pass.
TEST_P(BoundPropertyTest, BoundHoldsOnCoarseIntervals) {
  const BoundCase& param = GetParam();
  Dataset ds = RandomUncertainDataset(20, 2, 10, param.seed + 1000);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  AttributeScan scan =
      AttributeScan::Build(ds, index, set, 0, ds.num_classes());
  SplitScorer scorer(param.measure, ClassCounts(ds, set, ds.num_classes()));

  const std::vector<int>& eps = scan.endpoint_positions();
  IntervalMassStats stats;
  for (size_t i = 0; i + 3 < eps.size(); i += 3) {
    int a_idx = eps[i];
    int b_idx = eps[i + 3];
    if (b_idx - a_idx <= 1) continue;
    scan.IntervalStats(a_idx, b_idx, &stats.nc, &stats.kc, &stats.mc);
    double bound = ScoreLowerBound(scorer, stats);
    double true_min = TrueInteriorMinimum(scan, scorer, a_idx, b_idx);
    EXPECT_LE(bound, true_min + 1e-9);
  }
}

std::vector<BoundCase> BoundCases() {
  std::vector<BoundCase> cases;
  for (DispersionMeasure measure :
       {DispersionMeasure::kEntropy, DispersionMeasure::kGini,
        DispersionMeasure::kGainRatio}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      cases.push_back({measure, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Randomised, BoundPropertyTest, ::testing::ValuesIn(BoundCases()),
    [](const ::testing::TestParamInfo<BoundCase>& info) {
      std::string name =
          std::string(DispersionMeasureToString(info.param.measure)) +
          "_seed" + std::to_string(info.param.seed);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(BoundUnitTest, EmptyIntervalBoundEqualsEndpointScore) {
  // With k == 0 the bound degenerates to the exact score at the left end
  // point (sanity anchor for eq. 3).
  IntervalMassStats stats;
  stats.nc = {3.0, 1.0};
  stats.kc = {0.0, 0.0};
  stats.mc = {1.0, 3.0};
  SplitScorer scorer(DispersionMeasure::kEntropy, {4.0, 4.0});
  double bound = EntropyLowerBound(stats);
  double exact = scorer.Score({3.0, 1.0}, {1.0, 3.0});
  EXPECT_NEAR(bound, exact, 1e-9);
}

TEST(BoundUnitTest, GiniEmptyIntervalExact) {
  IntervalMassStats stats;
  stats.nc = {2.0, 0.0};
  stats.kc = {0.0, 0.0};
  stats.mc = {0.0, 2.0};
  SplitScorer scorer(DispersionMeasure::kGini, {2.0, 2.0});
  EXPECT_NEAR(GiniLowerBound(stats), 0.0, 1e-9);  // perfect split
}

TEST(BoundUnitTest, BoundsNonNegative) {
  IntervalMassStats stats;
  stats.nc = {1.0, 2.0};
  stats.kc = {0.5, 0.5};
  stats.mc = {2.0, 1.0};
  EXPECT_GE(EntropyLowerBound(stats), 0.0);
  EXPECT_GE(GiniLowerBound(stats), 0.0);
}

TEST(BoundUnitTest, GainRatioBoundDegeneratesWithoutLeftMass) {
  // n == 0: one side can be arbitrarily light inside the interval, split
  // info approaches 0 and no finite bound is safe.
  IntervalMassStats stats;
  stats.nc = {0.0, 0.0};
  stats.kc = {1.0, 1.0};
  stats.mc = {2.0, 2.0};
  SplitScorer scorer(DispersionMeasure::kGainRatio, {3.0, 3.0});
  double bound = ScoreLowerBound(scorer, stats);
  EXPECT_TRUE(std::isinf(bound) && bound < 0.0);
}

}  // namespace
}  // namespace udt
