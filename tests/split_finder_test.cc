// Behavioural tests for the split finders: correct optima on crafted data,
// counter semantics, degenerate inputs, and the percentile-end-point mode.

#include <gtest/gtest.h>

#include "pdf/pdf_builder.h"
#include "split/finders.h"
#include "split/percentile_endpoints.h"
#include "split/split_finder.h"

namespace udt {
namespace {

// Two point-valued clusters, perfectly separable at x = 2.
Dataset SeparablePointData() {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (double x : {0.0, 1.0, 2.0}) {
    UncertainTuple t{{UncertainValue::Numerical(SampledPdf::PointMass(x))}, 0};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  for (double x : {5.0, 6.0, 7.0}) {
    UncertainTuple t{{UncertainValue::Numerical(SampledPdf::PointMass(x))}, 1};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

SplitCandidate RunFinder(SplitAlgorithm algorithm, const Dataset& ds,
                         DispersionMeasure measure, SplitCounters* counters) {
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(measure, ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  options.measure = measure;
  return MakeSplitFinder(algorithm)
      ->FindBestSplit(ds, index, node, scorer, options, counters);
}

TEST(SplitFinderTest, AlgorithmNames) {
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kAvg), "AVG");
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kUdt), "UDT");
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kUdtBp), "UDT-BP");
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kUdtLp), "UDT-LP");
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kUdtGp), "UDT-GP");
  EXPECT_STREQ(SplitAlgorithmToString(SplitAlgorithm::kUdtEs), "UDT-ES");
  EXPECT_STREQ(MakeSplitFinder(SplitAlgorithm::kUdtEs)->name(), "UDT-ES");
}

TEST(SplitFinderTest, FindsPerfectSplitOnPointData) {
  Dataset ds = SeparablePointData();
  for (SplitAlgorithm algorithm :
       {SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtLp,
        SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
    SplitCandidate best =
        RunFinder(algorithm, ds, DispersionMeasure::kEntropy, nullptr);
    ASSERT_TRUE(best.valid) << SplitAlgorithmToString(algorithm);
    EXPECT_EQ(best.attribute, 0);
    EXPECT_NEAR(best.score, 0.0, 1e-9);
    EXPECT_GE(best.split_point, 2.0);
    EXPECT_LT(best.split_point, 5.0);
  }
}

TEST(SplitFinderTest, InvalidWhenNoSplitPossible) {
  // One distinct value only: no valid binary split.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 4; ++i) {
    UncertainTuple t{{UncertainValue::Numerical(SampledPdf::PointMass(3.0))},
                     i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  SplitCandidate best =
      RunFinder(SplitAlgorithm::kUdt, ds, DispersionMeasure::kEntropy,
                nullptr);
  EXPECT_FALSE(best.valid);
}

TEST(SplitFinderTest, ExhaustiveCountsEveryCandidate) {
  Dataset ds = SeparablePointData();
  SplitCounters counters;
  RunFinder(SplitAlgorithm::kUdt, ds, DispersionMeasure::kEntropy, &counters);
  // 6 distinct values -> 5 valid candidates; no bounds computed.
  EXPECT_EQ(counters.dispersion_evaluations, 5);
  EXPECT_EQ(counters.bound_evaluations, 0);
}

TEST(SplitFinderTest, UncertainDataHasMoreCandidates) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 4; ++i) {
    // Distinct centres so the four pdfs contribute distinct sample
    // positions (identical grids would merge).
    double center = (i < 2 ? 0.0 : 10.0) + 0.37 * i;
    auto pdf = MakeUniformErrorPdf(center, 2.0, 25);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i / 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  SplitCounters udt_counters, bp_counters;
  SplitCandidate udt_best = RunFinder(
      SplitAlgorithm::kUdt, ds, DispersionMeasure::kEntropy, &udt_counters);
  SplitCandidate bp_best = RunFinder(
      SplitAlgorithm::kUdtBp, ds, DispersionMeasure::kEntropy, &bp_counters);
  ASSERT_TRUE(udt_best.valid && bp_best.valid);
  // ~ms-1 candidates for UDT; BP prunes the all-A and all-B interval
  // interiors, so it must do strictly fewer evaluations here.
  EXPECT_GT(udt_counters.dispersion_evaluations, 90);
  EXPECT_LT(bp_counters.dispersion_evaluations,
            udt_counters.dispersion_evaluations);
  EXPECT_GT(bp_counters.intervals_pruned_homogeneous, 0);
  EXPECT_NEAR(udt_best.score, bp_best.score, 1e-9);
}

TEST(SplitFinderTest, GpPrunesAtLeastAsMuchAsLp) {
  Dataset ds(Schema::Numerical(3, {"A", "B", "C"}));
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < 3; ++j) {
      double center = (t.label == j) ? rng.Uniform(0.0, 2.0)
                                     : rng.Uniform(3.0, 8.0);
      auto pdf = MakeGaussianErrorPdf(center, 1.0, 16);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  SplitCounters lp, gp;
  SplitCandidate lp_best =
      RunFinder(SplitAlgorithm::kUdtLp, ds, DispersionMeasure::kEntropy, &lp);
  SplitCandidate gp_best =
      RunFinder(SplitAlgorithm::kUdtGp, ds, DispersionMeasure::kEntropy, &gp);
  ASSERT_TRUE(lp_best.valid && gp_best.valid);
  EXPECT_NEAR(lp_best.score, gp_best.score, 1e-9);
  // A global threshold can only prune more (or equal) interval interiors.
  EXPECT_LE(gp.dispersion_evaluations, lp.dispersion_evaluations);
}

TEST(SplitFinderTest, EsUsesFewerEndpointEvaluationsThanGp) {
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    for (int j = 0; j < 2; ++j) {
      double center = t.label == 0 ? rng.Uniform(0.0, 4.0)
                                   : rng.Uniform(3.0, 7.0);
      auto pdf = MakeGaussianErrorPdf(center, 1.5, 20);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  SplitCounters gp, es;
  SplitCandidate gp_best =
      RunFinder(SplitAlgorithm::kUdtGp, ds, DispersionMeasure::kEntropy, &gp);
  SplitCandidate es_best =
      RunFinder(SplitAlgorithm::kUdtEs, ds, DispersionMeasure::kEntropy, &es);
  ASSERT_TRUE(gp_best.valid && es_best.valid);
  EXPECT_NEAR(gp_best.score, es_best.score, 1e-9);
  EXPECT_LE(es.TotalEntropyCalculations(), gp.TotalEntropyCalculations());
}

TEST(SplitFinderTest, BetterThanOrdersByScoreThenAttributeThenPoint) {
  SplitCandidate a{true, 0, 1.0, 0.5};
  SplitCandidate b{true, 1, 0.0, 0.6};
  EXPECT_TRUE(a.BetterThan(b));
  EXPECT_FALSE(b.BetterThan(a));
  SplitCandidate tie_attr{true, 1, 1.0, 0.5};
  EXPECT_TRUE(a.BetterThan(tie_attr));
  SplitCandidate tie_point{true, 0, 2.0, 0.5};
  EXPECT_TRUE(a.BetterThan(tie_point));
  SplitCandidate invalid;
  EXPECT_TRUE(a.BetterThan(invalid));
}

TEST(SplitFinderTest, CountersAccumulate) {
  SplitCounters a, b;
  a.dispersion_evaluations = 3;
  a.bound_evaluations = 1;
  a.candidates_pruned = 10;
  b.dispersion_evaluations = 4;
  b.intervals_total = 2;
  a += b;
  EXPECT_EQ(a.dispersion_evaluations, 7);
  EXPECT_EQ(a.bound_evaluations, 1);
  EXPECT_EQ(a.intervals_total, 2);
  EXPECT_EQ(a.TotalEntropyCalculations(), 8);
}

TEST(PercentileEndpointTest, PositionsSortedAndBounded) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    auto pdf = MakeGaussianErrorPdf(rng.Uniform(0.0, 10.0), 2.0, 30);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<int> eps = ComputePercentileEndpoints(scan, 9);
  ASSERT_GE(eps.size(), 2u);
  EXPECT_EQ(eps.front(), 0);
  EXPECT_EQ(eps.back(), scan.num_positions() - 1);
  for (size_t i = 1; i < eps.size(); ++i) EXPECT_GT(eps[i], eps[i - 1]);
  // At most 9 per class + 2 boundary positions.
  EXPECT_LE(eps.size(), 9u * 2u + 2u);
}

TEST(PercentileEndpointTest, CrossingsHitTargets) {
  // Single class, uniform masses: the p-th decile must sit near p/10 of
  // the mass.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto pdf = MakeUniformPdf(0.0, 1.0, 100);
  UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<int> eps = ComputePercentileEndpoints(scan, 9);
  // 9 deciles + first + last = 11 positions.
  ASSERT_EQ(eps.size(), 11u);
  EXPECT_NEAR(scan.CumulativeMass(eps[1], 0), 0.1, 0.011);
  EXPECT_NEAR(scan.CumulativeMass(eps[5], 0), 0.5, 0.011);
  EXPECT_NEAR(scan.CumulativeMass(eps[9], 0), 0.9, 0.011);
}

TEST(PercentileEndpointTest, FindersAgreeInPercentileMode) {
  // Section 7.3: with pseudo-end-points the pruned finders must still find
  // the exhaustive optimum (pruning is by bounding only).
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  Rng rng(17);
  for (int i = 0; i < 24; ++i) {
    double center = i % 2 == 0 ? rng.Uniform(0.0, 4.0) : rng.Uniform(2.0, 6.0);
    auto pdf = MakeGaussianErrorPdf(center, 1.0, 20);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kEntropy,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;

  SplitCandidate exhaustive =
      MakeSplitFinder(SplitAlgorithm::kUdt)
          ->FindBestSplit(ds, index, node, scorer, options, nullptr);
  options.use_percentile_endpoints = true;
  for (SplitAlgorithm algorithm :
       {SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
    SplitCandidate best = MakeSplitFinder(algorithm)->FindBestSplit(
        ds, index, node, scorer, options, nullptr);
    ASSERT_TRUE(best.valid);
    EXPECT_NEAR(best.score, exhaustive.score, 1e-9)
        << SplitAlgorithmToString(algorithm);
  }
}

}  // namespace
}  // namespace udt
