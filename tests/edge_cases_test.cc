// Edge-case and failure-injection tests across the pipeline: degenerate
// attributes, constrained-away tuples, extreme weights, and boundary
// configurations that the main suites do not reach.

#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "api/trainer.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/split_finder.h"
#include "split_reference.h"
#include "table/uncertainty_injector.h"
#include "tree/classify.h"

namespace udt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EdgeCaseTest, ConstantAttributeInjectsPointMasses) {
  // w * |Aj| = 0 for a constant attribute: the injector must fall back to
  // point masses instead of failing.
  PointDataset points(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(points.AddRow({5.0, double(i)}, i % 2).ok());
  }
  UncertaintyOptions options;
  options.width_fraction = 0.2;
  options.samples_per_pdf = 16;
  auto ds = InjectUncertainty(points, options);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->tuple(0).values[0].pdf().is_point());
  EXPECT_EQ(ds->tuple(0).values[1].pdf().num_points(), 16);
}

TEST(EdgeCaseTest, ConstantAttributeNeverChosenForSplit) {
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 12; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    t.values.push_back(
        UncertainValue::Numerical(SampledPdf::PointMass(7.0)));  // constant
    t.values.push_back(UncertainValue::Numerical(
        SampledPdf::PointMass(t.label == 0 ? 0.0 + i : 10.0 + i)));
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kEntropy, ClassCounts(ds, set, 2));
  SplitCandidate best =
      MakeSplitFinder(SplitAlgorithm::kUdtGp)
          ->FindBestSplit(ds, index, node, scorer, SplitOptions{}, nullptr);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.attribute, 1);
}

TEST(EdgeCaseTest, ScanSkipsTuplesConstrainedOutOfSupport) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto pdf = SampledPdf::Create({0.0, 1.0}, {0.5, 0.5});
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t{{UncertainValue::Numerical(*pdf)}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  ASSERT_TRUE(ds.AddTuple(
      UncertainTuple{{UncertainValue::Numerical(SampledPdf::PointMass(5.0))},
                     1}).ok());

  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  // Constrain the first tuple to (10, inf): no mass remains. No build
  // constrains a root, so the lists come from the test reference.
  set[0].lo[0] = 10.0;
  const NodeSet node = GatherNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  EXPECT_EQ(scan.num_positions(), 1);  // only the point tuple survives
  EXPECT_NEAR(scan.total_mass(), 1.0, 1e-12);
}

TEST(EdgeCaseTest, TinyFractionalWeightsAreDropped) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  // 1e-12 of the mass below 0: partitioning at 0 must not create a
  // micro-fragment (kMinFractionWeight = 1e-9).
  auto pdf = SampledPdf::Create({-1.0, 1.0}, {1e-12, 1.0 - 1e-12});
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  const AttributeIndex index = AttributeIndex::Build(ds);
  NodeSet set = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  NodeSet left, right;
  PartitionNodeSet(ds, index, &set, 0, 0.0, &left, &right);
  EXPECT_TRUE(left.tuples.empty());
  ASSERT_EQ(right.tuples.size(), 1u);
  EXPECT_NEAR(right.tuples[0].weight, 1.0, 1e-9);
}

TEST(EdgeCaseTest, SingleTupleDataset) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto pdf = MakeUniformErrorPdf(0.0, 1.0, 8);
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  TreeConfig config;
  config.min_split_weight = 0.1;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  EXPECT_TRUE(classifier->tree().root().is_leaf());
  EXPECT_EQ(classifier->Predict(ds.tuple(0)), 0);
}

TEST(EdgeCaseTest, TwoTuplesSameValueDifferentClasses) {
  // Indistinguishable tuples: the tree must stay a leaf with a 50/50
  // distribution rather than splitting forever.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 2; ++i) {
    UncertainTuple t{{UncertainValue::Numerical(SampledPdf::PointMass(3.0))},
                     i};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig config;
  config.min_split_weight = 0.1;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  EXPECT_TRUE(classifier->tree().root().is_leaf());
  std::vector<double> p = classifier->ClassifyDistribution(ds.tuple(0));
  EXPECT_NEAR(p[0], 0.5, 1e-12);
}

TEST(EdgeCaseTest, ClassifyTupleOutsideTrainingRange) {
  // A test tuple far outside every training support still classifies
  // (follows the extreme branches) and returns a proper distribution.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    auto pdf = MakeUniformErrorPdf(i < 5 ? 0.0 : 10.0, 1.0, 8);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i < 5 ? 0
                                                                         : 1};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig config;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  UncertainTuple far{
      {UncertainValue::Numerical(SampledPdf::PointMass(1e6))}, 0};
  std::vector<double> p = classifier->ClassifyDistribution(far);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_EQ(classifier->Predict(far), 1);  // beyond the high cluster
}

TEST(EdgeCaseTest, HighlySkewedClassWeights) {
  // 1 tuple of class A vs 40 of class B: pre-pruning must not erase the
  // minority leaf when the split is genuinely informative.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  ASSERT_TRUE(ds.AddTuple(UncertainTuple{
      {UncertainValue::Numerical(SampledPdf::PointMass(-100.0))}, 0}).ok());
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(ds.AddTuple(UncertainTuple{
        {UncertainValue::Numerical(
            SampledPdf::PointMass(rng.Uniform(0.0, 1.0)))},
        1}).ok());
  }
  TreeConfig config;
  config.min_split_weight = 2.0;
  config.post_prune = false;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  EXPECT_EQ(classifier->Predict(ds.tuple(0)), 0);
}

TEST(EdgeCaseTest, ManyClassesFewTuples) {
  Dataset ds(Schema::Numerical(1, {"a", "b", "c", "d", "e", "f", "g", "h"}));
  for (int c = 0; c < 8; ++c) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(double(c)))}, c};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig config;
  config.min_split_weight = 0.5;
  config.post_prune = false;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  EXPECT_NEAR(EvaluateAccuracy(*classifier, ds), 1.0, 1e-9);
}

TEST(EdgeCaseTest, UnconstrainedConditionalHelpersMatchPlain) {
  auto pdf = MakeGaussianErrorPdf(2.0, 1.0, 33);
  ASSERT_TRUE(pdf.ok());
  EXPECT_DOUBLE_EQ(ConstrainedMass(*pdf, -kInf, kInf), 1.0);
  EXPECT_DOUBLE_EQ(ConditionalCdf(*pdf, -kInf, kInf, 2.0),
                   pdf->CdfAtOrBelow(2.0));
}

TEST(EdgeCaseTest, EsSampleRateOneMatchesGpExactly) {
  Rng rng(7);
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 20; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    for (int j = 0; j < 2; ++j) {
      auto pdf = MakeGaussianErrorPdf(rng.Gaussian(t.label, 1.0), 1.0, 10);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kEntropy, ClassCounts(ds, set, 2));
  SplitOptions options;
  options.es_endpoint_sample_rate = 1.0;
  SplitCounters es_counters, gp_counters;
  SplitCandidate es = MakeSplitFinder(SplitAlgorithm::kUdtEs)
                          ->FindBestSplit(ds, index, node, scorer, options,
                                          &es_counters);
  SplitCandidate gp = MakeSplitFinder(SplitAlgorithm::kUdtGp)
                          ->FindBestSplit(ds, index, node, scorer, options,
                                          &gp_counters);
  ASSERT_TRUE(es.valid && gp.valid);
  EXPECT_DOUBLE_EQ(es.score, gp.score);
  EXPECT_EQ(es_counters.TotalEntropyCalculations(),
            gp_counters.TotalEntropyCalculations());
}

}  // namespace
}  // namespace udt
