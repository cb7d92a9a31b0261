// Tests for the evaluation substrate: confusion matrices, accuracy and
// cross-validation.

#include <gtest/gtest.h>

#include "api/trainer.h"
#include "eval/cross_validation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

TEST(ConfusionMatrixTest, AccumulatesAndScores) {
  ConfusionMatrix m(2);
  m.Add(0, 0);
  m.Add(0, 0);
  m.Add(0, 1);
  m.Add(1, 1);
  EXPECT_EQ(m.total(), 4);
  EXPECT_EQ(m.count(0, 0), 2);
  EXPECT_EQ(m.count(0, 1), 1);
  EXPECT_NEAR(m.Accuracy(), 0.75, 1e-12);
  std::vector<double> recalls = m.Recalls();
  EXPECT_NEAR(recalls[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(recalls[1], 1.0, 1e-12);
}

TEST(ConfusionMatrixTest, EmptyMatrix) {
  ConfusionMatrix m(3);
  EXPECT_EQ(m.total(), 0);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.0);
  for (double r : m.Recalls()) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(ConfusionMatrixTest, ToStringContainsNames) {
  ConfusionMatrix m(2);
  m.Add(0, 1);
  std::string text = m.ToString({"cat", "dog"});
  EXPECT_NE(text.find("cat"), std::string::npos);
  EXPECT_NE(text.find("dog"), std::string::npos);
}

Dataset EasyDataset(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < n; ++i) {
    int label = i % 2;
    double center = label == 0 ? rng.Uniform(0.0, 1.0) : rng.Uniform(3.0, 4.0);
    auto pdf = MakeGaussianErrorPdf(center, 0.5, 10);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, label};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

TEST(EvaluateTest, PerfectClassifierScoresOne) {
  Dataset ds = EasyDataset(40, 1);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto classifier = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(classifier.ok());
  EXPECT_NEAR(EvaluateAccuracy(*classifier, ds), 1.0, 1e-9);
  ConfusionMatrix m = EvaluateConfusion(*classifier, ds);
  EXPECT_EQ(m.count(0, 1) + m.count(1, 0), 0);
}

TEST(CrossValidationTest, SeparableDataScoresHigh) {
  Dataset ds = EasyDataset(80, 2);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtGp;
  Rng rng(3);
  auto result =
      RunCrossValidation(ds, config, ModelKind::kUdt, 5, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fold_accuracies.size(), 5u);
  EXPECT_GT(result->mean_accuracy, 0.9);
  EXPECT_GE(result->stddev_accuracy, 0.0);
  EXPECT_GT(result->total_build_stats.nodes, 0);
}

TEST(CrossValidationTest, AveragingKindRuns) {
  Dataset ds = EasyDataset(60, 4);
  TreeConfig config;
  Rng rng(5);
  auto result = RunCrossValidation(ds, config, ModelKind::kAveraging, 4,
                                   &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->mean_accuracy, 0.8);
}

TEST(CrossValidationTest, RejectsBadArguments) {
  Dataset ds = EasyDataset(10, 6);
  TreeConfig config;
  Rng rng(1);
  EXPECT_FALSE(RunCrossValidation(ds, config, ModelKind::kUdt, 1, &rng)
                   .ok());
  EXPECT_FALSE(RunCrossValidation(ds, config, ModelKind::kUdt, 11, &rng)
                   .ok());
}

TEST(CrossValidationTest, DeterministicInSeed) {
  Dataset ds = EasyDataset(50, 7);
  TreeConfig config;
  Rng rng_a(9), rng_b(9);
  auto a = RunCrossValidation(ds, config, ModelKind::kUdt, 5, &rng_a);
  auto b = RunCrossValidation(ds, config, ModelKind::kUdt, 5, &rng_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->mean_accuracy, b->mean_accuracy);
}

TEST(ForestCrossValidationTest, ReportsAccuracyAndOob) {
  Dataset ds = EasyDataset(80, 8);
  ForestConfig config;
  config.num_trees = 5;
  config.seed = 11;
  config.tree.algorithm = SplitAlgorithm::kUdtEs;
  Rng rng(3);
  auto result = RunForestCrossValidation(ds, config, ModelKind::kUdt, 4,
                                         &rng);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->cv.fold_accuracies.size(), 4u);
  EXPECT_GT(result->cv.mean_accuracy, 0.9);
  EXPECT_GT(result->cv.total_build_stats.nodes, 0);
  EXPECT_GE(result->mean_oob_error, 0.0);
  EXPECT_LE(result->mean_oob_error, 1.0);
  EXPECT_GT(result->mean_oob_coverage, 0.5);

  // Deterministic in the rng state and the forest seed.
  Rng rng_b(3);
  auto again = RunForestCrossValidation(ds, config, ModelKind::kUdt, 4,
                                        &rng_b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->cv.mean_accuracy, again->cv.mean_accuracy);
  EXPECT_EQ(result->mean_oob_error, again->mean_oob_error);
}

TEST(ForestCrossValidationTest, RejectsBadArguments) {
  Dataset ds = EasyDataset(10, 9);
  ForestConfig config;
  Rng rng(1);
  EXPECT_FALSE(
      RunForestCrossValidation(ds, config, ModelKind::kUdt, 1, &rng).ok());
  config.num_trees = 0;
  EXPECT_FALSE(
      RunForestCrossValidation(ds, config, ModelKind::kUdt, 4, &rng).ok());
}

TEST(ExperimentTest, PrepareUncertainDatasetInjector) {
  auto spec = datagen::FindUciSpec("Iris");
  ASSERT_TRUE(spec.ok());
  auto ds = PrepareUncertainDataset(*spec, 0.5, 0.1, 16,
                                    ErrorModel::kGaussian);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_tuples(), 75);
  EXPECT_EQ(ds->num_attributes(), 4);
  EXPECT_EQ(ds->tuple(0).values[0].pdf().num_points(), 16);
}

TEST(ExperimentTest, PrepareUncertainDatasetRawSamples) {
  auto spec = datagen::FindUciSpec("JapaneseVowel");
  ASSERT_TRUE(spec.ok());
  auto ds = PrepareUncertainDataset(*spec, 0.1, 0.0, 1,
                                    ErrorModel::kGaussian);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->num_classes(), 9);
  // Raw-sample pdfs, not injector grids.
  EXPECT_GE(ds->tuple(0).values[0].pdf().num_points(), 7);
}

TEST(ExperimentTest, MeasureTreeBuildReportsWork) {
  Dataset ds = EasyDataset(40, 8);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtBp;
  auto stats = MeasureTreeBuild(ds, config);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->counters.TotalEntropyCalculations(), 0);
  EXPECT_GE(stats->build_seconds, 0.0);
}

TEST(ExperimentTest, CvAccuracyHelper) {
  Dataset ds = EasyDataset(60, 10);
  TreeConfig config;
  auto acc = CvAccuracy(ds, config, ModelKind::kUdt, 4,
                        123);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.85);
}

TEST(AbstentionTest, ZeroThresholdDegeneratesToPlainAccuracy) {
  const Dataset ds = EasyDataset(80, 6);
  ForestConfig config;
  config.num_trees = 3;
  auto forest = ForestTrainer(config).Train(TrainRequest::For(ds));
  ASSERT_TRUE(forest.ok());

  PredictOptions options;
  options.abstain_threshold = 0.0;
  const AbstentionReport report = EvaluateWithAbstention(*forest, ds, options);
  EXPECT_EQ(report.total, ds.num_tuples());
  EXPECT_EQ(report.answered, ds.num_tuples());
  EXPECT_EQ(report.abstained, 0);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_DOUBLE_EQ(report.accuracy_on_answered, report.accuracy_overall);
  EXPECT_DOUBLE_EQ(report.accuracy_overall, EvaluateAccuracy(*forest, ds));

  // Selective classification: raising the bar may only shrink coverage
  // and may only help the answered subset.
  options.abstain_threshold = 0.9;
  const AbstentionReport strict = EvaluateWithAbstention(*forest, ds, options);
  EXPECT_EQ(strict.answered + strict.abstained, strict.total);
  EXPECT_LE(strict.coverage, 1.0);
  EXPECT_GE(strict.accuracy_on_answered, strict.accuracy_overall);
}

}  // namespace
}  // namespace udt
