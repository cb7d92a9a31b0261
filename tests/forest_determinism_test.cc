// The ensemble engine's core guarantees, cross-checked the same way
// tests/builder_determinism_test.cc checks the single-tree builder:
//
//   1. ForestTrainer with a fixed seed produces bitwise-identical saved
//      forests (both the pointer "udt-forest-model v1" container and the
//      compiled "udt-forest v1" container) at 1, 2, 4 and 8 threads, with
//      and without random subspaces, for both model kinds — every tree
//      reading the one AttributeIndex the trainer builds for the run (the
//      tie-heavy fixture makes that index's shared ranks carry many ties).
//   2. Different seeds produce different forests (seed sensitivity — the
//      determinism above is not the degenerate kind).
//   3. CompiledForest batch predictions are byte-identical to the
//      pointer-forest voting path on every determinism fixture, for both
//      vote rules, at 1 and 4 serving threads.

#include <gtest/gtest.h>

#include <cstring>
#include <cmath>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "common/random.h"
#include "datagen/japanese_vowel.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset SyntheticDataset(int tuples, int attributes, int classes, int s,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back("c" + std::to_string(c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      double center = rng.Gaussian(static_cast<double>(t.label) * 1.2, 1.0);
      auto pdf = MakeGaussianErrorPdf(center, rng.Uniform(0.5, 1.5), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// Numerical + categorical attributes: exercises the n-ary token chain.
Dataset MixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 4},
          {"y", AttributeKind::kNumerical, 0},
      },
      {"a", "b", "c"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    auto px = MakeGaussianErrorPdf(rng.Gaussian(t.label * 1.0, 0.8), 0.9, 10);
    UDT_CHECK(px.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*px)));
    std::vector<double> probs(4, 0.15);
    probs[static_cast<size_t>((i + t.label) % 4)] = 0.55;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    auto py = MakeUniformErrorPdf(rng.Gaussian(-t.label * 0.7, 0.9), 1.2, 10);
    UDT_CHECK(py.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*py)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// Tie-heavy data: integer-valued attributes with one fixed error width, so
// tuples sharing a value share their whole pdf grid and most x positions
// carry events of several tuples and classes — the tie order the split
// scans must keep fixed at every thread count.
Dataset TieHeavyDataset(int tuples, int attributes, int classes, int s,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back("c" + std::to_string(c));
  Dataset ds(Schema::Numerical(attributes, names));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % classes;
    for (int j = 0; j < attributes; ++j) {
      const double value = std::round(rng.Gaussian(t.label * 1.5, 1.5));
      auto pdf = MakeGaussianErrorPdf(value, 2.0, s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Dataset MakeCaseDataset(const std::string& which) {
  if (which == "synthetic") return SyntheticDataset(130, 4, 3, 8, 42);
  if (which == "mixed") return MixedDataset(120, 7);
  if (which == "ties") return TieHeavyDataset(130, 4, 3, 8, 19);
  datagen::JapaneseVowelConfig jv;
  jv.num_tuples = 100;
  jv.num_attributes = 6;
  jv.seed = 11;
  return datagen::GenerateJapaneseVowelLike(jv);
}

struct ForestCase {
  const char* dataset;
  ModelKind kind;
  int subspace;  // ForestConfig::subspace_attributes
};

std::string CaseName(const ::testing::TestParamInfo<ForestCase>& info) {
  std::string name = std::string(info.param.dataset) + "_" +
                     (info.param.kind == ModelKind::kUdt ? "udt" : "avg") +
                     (info.param.subspace != 0 ? "_subspace" : "_full");
  return name;
}

ForestConfig CaseConfig(const ForestCase& param) {
  ForestConfig config;
  config.num_trees = 6;
  config.seed = 99;
  config.subspace_attributes = param.subspace;
  config.tree.algorithm = SplitAlgorithm::kUdtEs;
  return config;
}

class ForestDeterminismTest : public ::testing::TestWithParam<ForestCase> {};

TEST_P(ForestDeterminismTest, ThreadCountsProduceIdenticalForests) {
  const ForestCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);
  ForestConfig config = CaseConfig(param);

  ForestTrainer trainer(config);
  trainer.SetNumThreads(1);
  auto baseline = trainer.Train(TrainRequest::For(ds, param.kind));
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();
  const std::string baseline_model = baseline->Serialize();
  const std::string baseline_compiled = baseline->Compile().Serialize();

  for (int threads : {2, 4, 8}) {
    ForestTrainer parallel(config);
    parallel.SetNumThreads(threads);
    auto forest = parallel.Train(TrainRequest::For(ds, param.kind));
    ASSERT_TRUE(forest.ok()) << forest.status().message();
    EXPECT_EQ(forest->Serialize(), baseline_model)
        << "pointer container differs at " << threads << " threads";
    EXPECT_EQ(forest->Compile().Serialize(), baseline_compiled)
        << "compiled container differs at " << threads << " threads";
  }
}

TEST_P(ForestDeterminismTest, SeedsChangeTheForest) {
  const ForestCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  ForestConfig config = CaseConfig(param);
  auto forest_a = ForestTrainer(config).Train(TrainRequest::For(ds, param.kind));
  ASSERT_TRUE(forest_a.ok());

  config.seed = 100;  // only the seed moves
  auto forest_b = ForestTrainer(config).Train(TrainRequest::For(ds, param.kind));
  ASSERT_TRUE(forest_b.ok());

  EXPECT_NE(forest_a->Serialize(), forest_b->Serialize());
}

TEST_P(ForestDeterminismTest, CompiledVotesMatchPointerVotesBitwise) {
  const ForestCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  for (ForestVote vote : {ForestVote::kAverage, ForestVote::kMajority}) {
    ForestConfig config = CaseConfig(param);
    config.vote = vote;
    auto forest = ForestTrainer(config).Train(TrainRequest::For(ds, param.kind));
    ASSERT_TRUE(forest.ok()) << forest.status().message();

    // Pointer-path reference distributions.
    std::vector<std::vector<double>> reference;
    reference.reserve(static_cast<size_t>(ds.num_tuples()));
    for (int i = 0; i < ds.num_tuples(); ++i) {
      reference.push_back(forest->ClassifyDistribution(ds.tuple(i)));
    }

    CompiledForest compiled = forest->Compile();
    const size_t k = static_cast<size_t>(compiled.num_classes());
    for (int threads : {1, 4}) {
      PredictSession session(compiled);
      FlatBatchResult flat;
      PredictOptions options;
      options.num_threads = threads;
      ASSERT_TRUE(session
                      .PredictBatchInto(
                          std::span<const UncertainTuple>(
                              ds.tuples().data(), ds.tuples().size()),
                          options, &flat)
                      .ok());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(0, std::memcmp(flat.distribution(i).data(),
                                 reference[i].data(), k * sizeof(double)))
            << "tuple " << i << " vote=" << ForestVoteToString(vote)
            << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ForestDeterminismTest,
    ::testing::Values(
        ForestCase{"synthetic", ModelKind::kUdt, 0},
        ForestCase{"synthetic", ModelKind::kUdt, 2},
        ForestCase{"synthetic", ModelKind::kAveraging, 2},
        ForestCase{"mixed", ModelKind::kUdt, 0},
        ForestCase{"mixed", ModelKind::kUdt, 2},
        ForestCase{"ties", ModelKind::kUdt, 0},
        ForestCase{"ties", ModelKind::kUdt, 2},
        ForestCase{"ties", ModelKind::kAveraging, 0},
        ForestCase{"vowel", ModelKind::kUdt,
                   ForestConfig::kSubspaceSqrt},
        ForestCase{"vowel", ModelKind::kAveraging, 0}),
    CaseName);

}  // namespace
}  // namespace udt
