// The paper's central safe-pruning claim (Section 5): "the pruning
// algorithms do not affect the resulting decision tree ... [they] only
// eliminate suboptimal candidates". This suite sweeps data sets x measures
// x algorithms and asserts that every pruned finder returns a split with
// the same optimal score as the exhaustive UDT search, and that full tree
// builds choose identical structures on tie-free data.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "core/builder.h"
#include "pdf/pdf_builder.h"
#include "split/split_finder.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

// A generic uncertain data set with continuous (tie-free) values: mixture
// of Gaussian/uniform pdfs, several attributes, overlapping classes.
Dataset GenericDataset(int tuples, int attributes, int classes, int s,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      double center = rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0);
      double width = rng.Uniform(0.5, 2.0);
      StatusOr<SampledPdf> pdf =
          rng.Bernoulli(0.5) ? MakeGaussianErrorPdf(center, width, s)
                             : MakeUniformErrorPdf(center, width, s);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

struct EquivalenceCase {
  DispersionMeasure measure;
  SplitAlgorithm algorithm;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  std::string name = DispersionMeasureToString(info.param.measure);
  name += "_";
  name += SplitAlgorithmToString(info.param.algorithm);
  name += "_seed";
  name += std::to_string(info.param.seed);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class SplitEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

// The full equivalence matrix of Theorems 2/3: on tie-free data every
// pruned finder must return the *same split* as the exhaustive search —
// same attribute, same split point, entropy within 1e-12 — not merely an
// equally-scored one.
TEST_P(SplitEquivalenceTest, PrunedFinderMatchesExhaustiveChoice) {
  const EquivalenceCase& param = GetParam();
  Dataset ds = GenericDataset(24, 4, 3, 12, param.seed + 9000);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  SplitScorer scorer(param.measure, ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  options.measure = param.measure;

  SplitCandidate exhaustive =
      MakeSplitFinder(SplitAlgorithm::kUdt)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);
  SplitCandidate pruned =
      MakeSplitFinder(param.algorithm)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);

  ASSERT_EQ(exhaustive.valid, pruned.valid);
  if (exhaustive.valid) {
    EXPECT_EQ(pruned.attribute, exhaustive.attribute);
    EXPECT_DOUBLE_EQ(pruned.split_point, exhaustive.split_point);
    EXPECT_NEAR(pruned.score, exhaustive.score, 1e-12);
  }
}

// The attribute-parallel scan path must pick the identical candidate —
// the engine's ordered reduction makes the pool invisible to the result.
TEST_P(SplitEquivalenceTest, ParallelScanMatchesSerial) {
  const EquivalenceCase& param = GetParam();
  Dataset ds = GenericDataset(20, 4, 3, 10, param.seed + 12000);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  SplitScorer scorer(param.measure, ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  options.measure = param.measure;

  std::unique_ptr<SplitFinder> finder = MakeSplitFinder(param.algorithm);
  SplitCounters serial_counters;
  SplitCandidate serial =
      finder->FindBestSplit(ds, index, set, scorer, options, &serial_counters);

  TaskPool pool(3);
  SplitCounters pooled_counters;
  SplitCandidate pooled = finder->FindBestSplit(
      ds, index, set, scorer, options, &pooled_counters, &pool);

  ASSERT_EQ(pooled.valid, serial.valid);
  if (serial.valid) {
    EXPECT_EQ(pooled.attribute, serial.attribute);
    // Bitwise: the same code evaluates the same candidates either way.
    EXPECT_EQ(pooled.split_point, serial.split_point);
    EXPECT_EQ(pooled.score, serial.score);
  }
  // Same work too, not just the same answer.
  EXPECT_EQ(pooled_counters.dispersion_evaluations,
            serial_counters.dispersion_evaluations);
  EXPECT_EQ(pooled_counters.bound_evaluations,
            serial_counters.bound_evaluations);
  EXPECT_EQ(pooled_counters.candidates_pruned,
            serial_counters.candidates_pruned);
}

TEST_P(SplitEquivalenceTest, PrunedFinderMatchesExhaustiveScore) {
  const EquivalenceCase& param = GetParam();
  Dataset ds = GenericDataset(18, 3, 3, 10, param.seed);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  SplitScorer scorer(param.measure, ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  options.measure = param.measure;

  SplitCandidate exhaustive =
      MakeSplitFinder(SplitAlgorithm::kUdt)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);
  SplitCounters counters;
  SplitCandidate pruned =
      MakeSplitFinder(param.algorithm)
          ->FindBestSplit(ds, index, set, scorer, options, &counters);

  ASSERT_EQ(exhaustive.valid, pruned.valid);
  if (exhaustive.valid) {
    EXPECT_NEAR(pruned.score, exhaustive.score, 1e-9);
  }
}

TEST_P(SplitEquivalenceTest, FullTreeBuildsIdenticalStructure) {
  const EquivalenceCase& param = GetParam();
  // Continuous data: score ties across different split points have measure
  // zero, so identical scores imply identical chosen splits.
  Dataset ds = GenericDataset(15, 2, 2, 8, param.seed + 500);

  TreeConfig reference;
  reference.algorithm = SplitAlgorithm::kUdt;
  reference.measure = param.measure;
  reference.max_depth = 4;
  reference.min_split_weight = 2.0;
  reference.post_prune = false;

  TreeConfig candidate = reference;
  candidate.algorithm = param.algorithm;

  BuildStats stats_a, stats_b;
  auto tree_a = TreeBuilder(reference).Build(ds, &stats_a);
  auto tree_b = TreeBuilder(candidate).Build(ds, &stats_b);
  ASSERT_TRUE(tree_a.ok());
  ASSERT_TRUE(tree_b.ok());
  EXPECT_EQ(SerializeTree(*tree_a), SerializeTree(*tree_b))
      << "pruning changed the tree for "
      << SplitAlgorithmToString(param.algorithm);
}

std::vector<EquivalenceCase> AllCases() {
  std::vector<EquivalenceCase> cases;
  for (DispersionMeasure measure :
       {DispersionMeasure::kEntropy, DispersionMeasure::kGini,
        DispersionMeasure::kGainRatio}) {
    for (SplitAlgorithm algorithm :
         {SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtLp,
          SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
      for (uint64_t seed : {1, 2, 3, 4}) {
        cases.push_back({measure, algorithm, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// A second sweep axis: safe pruning must hold regardless of the pdf
// resolution s and the pdf width (which control how many candidates exist
// and how heterogeneous the intervals are).
struct ResolutionCase {
  int s;
  double width;
  SplitAlgorithm algorithm;
};

class ResolutionEquivalenceTest
    : public ::testing::TestWithParam<ResolutionCase> {};

TEST_P(ResolutionEquivalenceTest, MatchesExhaustiveAcrossResolutions) {
  const ResolutionCase& param = GetParam();
  Rng rng(1234);
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 16; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    for (int j = 0; j < 2; ++j) {
      double center = rng.Gaussian(t.label * 1.0, 0.8);
      StatusOr<SampledPdf> pdf =
          MakeGaussianErrorPdf(center, param.width, param.s);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  SplitScorer scorer(DispersionMeasure::kEntropy,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  SplitCandidate exhaustive =
      MakeSplitFinder(SplitAlgorithm::kUdt)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);
  SplitCandidate pruned =
      MakeSplitFinder(param.algorithm)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);
  ASSERT_EQ(exhaustive.valid, pruned.valid);
  if (exhaustive.valid) {
    EXPECT_NEAR(pruned.score, exhaustive.score, 1e-9);
  }
}

std::vector<ResolutionCase> ResolutionCases() {
  std::vector<ResolutionCase> cases;
  for (int s : {1, 2, 5, 25, 80}) {
    for (double width : {0.05, 0.5, 3.0}) {
      for (SplitAlgorithm algorithm :
           {SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtGp,
            SplitAlgorithm::kUdtEs}) {
        cases.push_back({s, width, algorithm});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, ResolutionEquivalenceTest,
    ::testing::ValuesIn(ResolutionCases()),
    [](const ::testing::TestParamInfo<ResolutionCase>& info) {
      std::string name = std::string("s") + std::to_string(info.param.s) +
                         "_w" + std::to_string(static_cast<int>(
                                    info.param.width * 100)) +
                         "_" + SplitAlgorithmToString(info.param.algorithm);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Point-mass data: every finder must reduce to the classical search and
// agree with AVG (Section 7.5's "application to point data").
TEST(SplitEquivalencePointTest, AllFindersAgreeOnPointData) {
  Rng rng(99);
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 40; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    for (int j = 0; j < 2; ++j) {
      t.values.push_back(UncertainValue::Numerical(SampledPdf::PointMass(
          rng.Gaussian(t.label == j ? 0.0 : 2.0, 1.0))));
    }
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  SplitScorer scorer(DispersionMeasure::kEntropy,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;

  SplitCandidate reference =
      MakeSplitFinder(SplitAlgorithm::kAvg)
          ->FindBestSplit(ds, index, set, scorer, options, nullptr);
  ASSERT_TRUE(reference.valid);
  for (SplitAlgorithm algorithm :
       {SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtLp,
        SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
    SplitCandidate best = MakeSplitFinder(algorithm)->FindBestSplit(
        ds, index, set, scorer, options, nullptr);
    ASSERT_TRUE(best.valid);
    EXPECT_NEAR(best.score, reference.score, 1e-9);
    EXPECT_EQ(best.attribute, reference.attribute);
    EXPECT_DOUBLE_EQ(best.split_point, reference.split_point);
  }
}

}  // namespace
}  // namespace udt
