// TrainRequest — the unified entry point (ISSUE 9 satellite; the old
// multi-signature wrappers finished their deprecation cycle and were
// removed in ISSUE 10). Contracts under test:
//   * request validation rejects a missing dataset and facade-mismatched
//     knobs (weights on forests, warm starts on single trees);
//   * the overrides do what they say: num_threads never changes bytes,
//     seed changes forest bags, warm_start carries incumbent trees
//     verbatim while fresh trees stay bitwise-identical to a cold run.

#include <gtest/gtest.h>

#include <vector>

#include "api/forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset SmallDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(2, {"neg", "pos"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    for (int j = 0; j < 2; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(t.label == 0 ? -1.0 : 1.0, 0.5), 0.8, 5);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

TEST(TrainRequestTest, ValidationRejectsInconsistentRequests) {
  const Dataset data = SmallDataset(24, 7);
  Trainer trainer;
  ForestTrainer forest_trainer;

  // No source at all.
  EXPECT_FALSE(trainer.Train(TrainRequest{}).ok());

  // Forest-only out-param on the single-tree facade.
  OobEstimate oob;
  TrainRequest with_oob = TrainRequest::For(data);
  with_oob.oob = &oob;
  EXPECT_FALSE(trainer.Train(with_oob).ok());

  // Warm start on the single-tree facade.
  auto incumbent = forest_trainer.Train(TrainRequest::For(data));
  ASSERT_TRUE(incumbent.ok());
  TrainRequest warm_tree = TrainRequest::For(data);
  warm_tree.warm_start = &incumbent.value();
  warm_tree.warm_trees = 1;
  EXPECT_FALSE(trainer.Train(warm_tree).ok());

  // Per-tuple weights on the forest facade (bags own tuple weighting).
  std::vector<double> weights(static_cast<size_t>(data.num_tuples()), 1.0);
  TrainRequest weighted = TrainRequest::For(data);
  weighted.weights = weights;
  EXPECT_FALSE(forest_trainer.Train(weighted).ok());

  // Weight arity mismatch on the single-tree facade.
  std::vector<double> short_weights(3, 1.0);
  TrainRequest mismatched = TrainRequest::For(data);
  mismatched.weights = short_weights;
  EXPECT_FALSE(trainer.Train(mismatched).ok());
}

TEST(TrainRequestTest, UnitWeightsMatchUnweighted) {
  const Dataset data = SmallDataset(40, 19);
  Trainer trainer;
  std::vector<double> unit(static_cast<size_t>(data.num_tuples()), 1.0);
  TrainRequest weighted = TrainRequest::For(data);
  weighted.weights = unit;
  auto with_weights = trainer.Train(weighted);
  auto without = trainer.Train(TrainRequest::For(data));
  ASSERT_TRUE(with_weights.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with_weights->Serialize(), without->Serialize());
}

TEST(TrainRequestTest, ThreadOverrideNeverChangesBytes) {
  const Dataset data = SmallDataset(48, 23);
  ForestConfig config;
  config.num_trees = 4;
  ForestTrainer trainer(config);

  TrainRequest serial = TrainRequest::For(data);
  serial.num_threads = 1;
  TrainRequest wide = TrainRequest::For(data);
  wide.num_threads = 3;
  auto a = trainer.Train(serial);
  auto b = trainer.Train(wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

TEST(TrainRequestTest, SeedOverrideChangesBagsWithoutMutatingTrainer) {
  const Dataset data = SmallDataset(48, 29);
  ForestConfig config;
  config.num_trees = 4;
  ForestTrainer trainer(config);

  auto base = trainer.Train(TrainRequest::For(data));
  TrainRequest reseeded = TrainRequest::For(data);
  reseeded.seed = config.seed + 1234;
  auto other = trainer.Train(reseeded);
  auto base_again = trainer.Train(TrainRequest::For(data));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(base_again.ok());
  EXPECT_NE(base->Serialize(), other->Serialize());
  // The override is per-request: the trainer's own seed is untouched.
  EXPECT_EQ(base->Serialize(), base_again->Serialize());
}

TEST(TrainRequestTest, WarmStartCarriesTreesVerbatimAndFreshTreesMatchCold) {
  const Dataset old_window = SmallDataset(48, 31);
  const Dataset new_window = SmallDataset(48, 37);
  ForestConfig config;
  config.num_trees = 5;
  ForestTrainer trainer(config);

  auto incumbent = trainer.Train(TrainRequest::For(old_window));
  ASSERT_TRUE(incumbent.ok());

  constexpr int kCarried = 2;
  TrainRequest warm = TrainRequest::For(new_window);
  warm.warm_start = &incumbent.value();
  warm.warm_trees = kCarried;
  auto warmed = trainer.Train(warm);
  ASSERT_TRUE(warmed.ok());
  ASSERT_EQ(warmed->num_trees(), config.num_trees);

  auto cold = trainer.Train(TrainRequest::For(new_window));
  ASSERT_TRUE(cold.ok());

  for (int t = 0; t < config.num_trees; ++t) {
    if (t < kCarried) {
      // Carried trees are the incumbent's, byte for byte.
      EXPECT_EQ(warmed->tree(t).Serialize(),
                incumbent->tree(t).Serialize())
          << "carried tree " << t;
    } else {
      // Fresh trees keep their by-index bag/subspace streams: tree t of
      // the warm run is bitwise tree t of a cold run on the same window.
      EXPECT_EQ(warmed->tree(t).Serialize(), cold->tree(t).Serialize())
          << "fresh tree " << t;
    }
  }

  // OOB over fresh trees only: a warm request still reports an estimate.
  OobEstimate oob;
  TrainRequest warm_oob = TrainRequest::For(new_window);
  warm_oob.warm_start = &incumbent.value();
  warm_oob.warm_trees = kCarried;
  warm_oob.oob = &oob;
  ASSERT_TRUE(trainer.Train(warm_oob).ok());
  EXPECT_GT(oob.evaluated_tuples, 0);
}

}  // namespace
}  // namespace udt
