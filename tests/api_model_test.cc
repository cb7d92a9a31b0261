// Tests for the udt::Model / udt::Trainer facade: batch inference through
// a session over Model::Compile() must be bitwise-identical to the model's
// per-tuple loop for any thread count, and Save -> Load must round-trip
// predictions exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_forest.h"
#include "api/model.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

// Classifies `ds` through a one-shot session over the compiled model and
// unwraps a result the test expects to succeed.
FlatBatchResult MustPredictBatch(const Model& model, const Dataset& ds,
                                 const PredictOptions& options = {}) {
  FlatBatchResult result;
  UDT_CHECK(PredictSession(model.Compile())
                .PredictBatchInto(ds.tuples(), options, &result)
                .ok());
  return result;
}

// A three-class data set with enough structure for a non-trivial tree.
Dataset MakeDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 2.0, 1.0), 1.5, 12);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// A mixed numerical + categorical data set exercising schema round-trips.
Dataset MakeMixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"reading", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 3},
      },
      {"low", "high"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    auto pdf = MakeGaussianErrorPdf(
        rng.Gaussian(t.label == 0 ? -1.0 : 1.0, 0.8), 1.0, 10);
    UDT_CHECK(pdf.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    std::vector<double> probs(3, 0.2);
    probs[static_cast<size_t>((i + t.label) % 3)] = 0.6;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Model TrainModel(const Dataset& ds, ModelKind kind) {
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).Train(TrainRequest::For(ds, kind));
  UDT_CHECK(model.ok());
  return std::move(*model);
}

// Batch output must equal the per-tuple loop exactly — same doubles, same
// labels — for every thread count (the sharding must not reorder, merge or
// otherwise touch results).
void ExpectBatchMatchesLoop(const Model& model, const Dataset& test,
                            int num_threads) {
  PredictOptions options;
  options.num_threads = num_threads;
  FlatBatchResult batch = MustPredictBatch(model, test, options);

  ASSERT_EQ(batch.size(), static_cast<size_t>(test.num_tuples()));
  ASSERT_EQ(batch.num_classes, model.num_classes());
  for (int i = 0; i < test.num_tuples(); ++i) {
    std::vector<double> expected = model.ClassifyDistribution(test.tuple(i));
    const auto ui = static_cast<size_t>(i);
    ASSERT_EQ(batch.distribution(ui).size(), expected.size());
    for (size_t c = 0; c < expected.size(); ++c) {
      // Bitwise equality, not EXPECT_NEAR: identical code must run.
      EXPECT_EQ(batch.distribution(ui)[c], expected[c])
          << "tuple " << i << " class " << c << " threads " << num_threads;
    }
    EXPECT_EQ(batch.labels[ui], model.Predict(test.tuple(i)));
  }
}

TEST(ModelPredictBatchTest, SingleThreadMatchesPerTupleLoop) {
  Dataset ds = MakeDataset(120, 3, 17);
  Model model = TrainModel(ds, ModelKind::kUdt);
  ExpectBatchMatchesLoop(model, ds, 1);
}

TEST(ModelPredictBatchTest, FourThreadsMatchPerTupleLoop) {
  Dataset ds = MakeDataset(120, 3, 17);
  Model model = TrainModel(ds, ModelKind::kUdt);
  ExpectBatchMatchesLoop(model, ds, 4);
}

TEST(ModelPredictBatchTest, ThreadCountsAgreeWithEachOther) {
  Dataset ds = MakeDataset(90, 2, 23);
  Model model = TrainModel(ds, ModelKind::kUdt);
  FlatBatchResult one = MustPredictBatch(model, ds, {.num_threads = 1});
  for (int threads : {2, 3, 4, 7}) {
    FlatBatchResult many =
        MustPredictBatch(model, ds, {.num_threads = threads});
    EXPECT_EQ(many.labels, one.labels) << "threads=" << threads;
    EXPECT_EQ(many.distributions, one.distributions)
        << "threads=" << threads;
  }
}

TEST(ModelPredictBatchTest, AveragingKindReducesTuplesToMeans) {
  Dataset ds = MakeDataset(90, 2, 31);
  Model model = TrainModel(ds, ModelKind::kAveraging);
  EXPECT_EQ(model.kind(), ModelKind::kAveraging);
  // The batch path must apply the same means reduction as the scalar path.
  ExpectBatchMatchesLoop(model, ds, 4);
}

TEST(ModelPredictBatchTest, ThreadCountClampedToBatchSize) {
  Dataset ds = MakeDataset(6, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  // Six tuples seat at most six threads: the caller plus five workers.
  PredictSession session(model.Compile());
  FlatBatchResult result;
  ASSERT_TRUE(
      session.PredictBatchInto(ds.tuples(), {.num_threads = 64}, &result)
          .ok());
  EXPECT_EQ(session.executor_workers(), 5);
  ExpectBatchMatchesLoop(model, ds, 64);
}

TEST(ModelPredictBatchTest, NegativeThreadCountRejected) {
  Dataset ds = MakeDataset(12, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  FlatBatchResult result;
  Status status = PredictSession(model.Compile())
                      .PredictBatchInto(ds.tuples(), {.num_threads = -1},
                                        &result);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ModelPredictBatchTest, ZeroThreadsMeansHardwareConcurrency) {
  Dataset ds = MakeDataset(40, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  PredictSession session(model.Compile());
  FlatBatchResult zero;
  ASSERT_TRUE(
      session.PredictBatchInto(ds.tuples(), {.num_threads = 0}, &zero).ok());
  // One thread per hardware thread, the caller among them.
  EXPECT_EQ(session.executor_workers(),
            std::min(TaskPool::EffectiveConcurrency(0), 40) - 1);
  FlatBatchResult one = MustPredictBatch(model, ds, {.num_threads = 1});
  EXPECT_EQ(zero.labels, one.labels);
  EXPECT_EQ(zero.distributions, one.distributions);
}

TEST(ModelPredictBatchTest, EmptyBatch) {
  Dataset ds = MakeDataset(30, 2, 5);
  Model model = TrainModel(ds, ModelKind::kUdt);
  PredictSession session(model.Compile());
  FlatBatchResult result;
  ASSERT_TRUE(session
                  .PredictBatchInto(std::span<const UncertainTuple>(),
                                    {.num_threads = 4}, &result)
                  .ok());
  EXPECT_TRUE(result.distributions.empty());
  EXPECT_TRUE(result.labels.empty());
  EXPECT_EQ(session.executor_workers(), 0);
}

TEST(ModelPersistenceTest, SerializeDeserializeRoundTrip) {
  Dataset ds = MakeDataset(100, 3, 41);
  Model model = TrainModel(ds, ModelKind::kUdt);

  auto restored = Model::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->kind(), ModelKind::kUdt);
  EXPECT_EQ(restored->tree().num_nodes(), model.tree().num_nodes());
  EXPECT_EQ(restored->class_names(), model.class_names());
  EXPECT_EQ(restored->config().algorithm, model.config().algorithm);
  EXPECT_EQ(restored->config().max_depth, model.config().max_depth);

  // Predictions must be identical tuple by tuple, batch vs batch.
  FlatBatchResult before = MustPredictBatch(model, ds, {.num_threads = 4});
  FlatBatchResult after = MustPredictBatch(*restored, ds, {.num_threads = 4});
  EXPECT_EQ(before.labels, after.labels);
  EXPECT_EQ(before.distributions, after.distributions);
}

TEST(ModelPersistenceTest, SaveLoadFileRoundTrip) {
  Dataset ds = MakeMixedDataset(120, 53);
  Model model = TrainModel(ds, ModelKind::kUdt);

  std::string path = testing::TempDir() + "/udt_api_model_test.model";
  ASSERT_TRUE(model.Save(path).ok());
  auto restored = Model::Load(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::remove(path.c_str());

  // Schema (including the categorical attribute) travels with the file.
  EXPECT_EQ(restored->schema().num_attributes(), 2);
  EXPECT_EQ(restored->schema().attribute(1).kind,
            AttributeKind::kCategorical);
  EXPECT_EQ(restored->schema().attribute(1).num_categories, 3);
  EXPECT_EQ(restored->schema().attribute(0).name, "reading");

  FlatBatchResult before = MustPredictBatch(model, ds);
  FlatBatchResult after = MustPredictBatch(*restored, ds, {.num_threads = 4});
  EXPECT_EQ(before.labels, after.labels);
  EXPECT_EQ(before.distributions, after.distributions);
}

TEST(ModelPersistenceTest, AveragingKindSurvivesRoundTrip) {
  Dataset ds = MakeDataset(90, 2, 61);
  Model model = TrainModel(ds, ModelKind::kAveraging);

  auto restored = Model::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->kind(), ModelKind::kAveraging);
  // A reloaded averaging model must keep reducing tuples to their means.
  FlatBatchResult before = MustPredictBatch(model, ds);
  FlatBatchResult after = MustPredictBatch(*restored, ds);
  EXPECT_EQ(before.labels, after.labels);
}

TEST(ModelPersistenceTest, SplitOptionsSurviveRoundTrip) {
  Dataset ds = MakeDataset(90, 2, 77);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtGp;
  config.split_options.use_percentile_endpoints = true;
  config.split_options.percentiles_per_class = 5;
  config.split_options.es_endpoint_sample_rate = 0.25;
  config.split_options.min_side_mass = 1e-6;
  auto model = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(model.ok());

  auto restored = Model::Deserialize(model->Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const SplitOptions& opts = restored->config().split_options;
  EXPECT_TRUE(opts.use_percentile_endpoints);
  EXPECT_EQ(opts.percentiles_per_class, 5);
  EXPECT_EQ(opts.es_endpoint_sample_rate, 0.25);
  EXPECT_EQ(opts.min_side_mass, 1e-6);
}

TEST(ModelPersistenceTest, DeserializeAcceptsCrlfLineEndings) {
  Dataset ds = MakeDataset(60, 2, 83);
  Model model = TrainModel(ds, ModelKind::kUdt);
  // Simulate a file written through a text-mode stream on Windows.
  std::string text = model.Serialize();
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto restored = Model::Deserialize(crlf);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->tree().num_nodes(), model.tree().num_nodes());
}

TEST(ModelPersistenceTest, DeserializeRejectsMalformed) {
  EXPECT_FALSE(Model::Deserialize("").ok());
  EXPECT_FALSE(Model::Deserialize("not-a-model").ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind bogus\n").ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind udt\n").ok());
  EXPECT_FALSE(
      Model::Deserialize("udt-model v1\nkind udt\nclasses 2\nA\nB\n").ok());
  // Hostile counts must fail with a Status, not a bad_alloc.
  EXPECT_FALSE(
      Model::Deserialize("udt-model v1\nkind udt\nclasses 2000000000\n")
          .ok());
  EXPECT_FALSE(Model::Deserialize("udt-model v1\nkind udt\nclasses 2\nA\nB\n"
                                  "attributes 2000000000\n")
                   .ok());
}

// strtod parses "nan"; the loaded config must still pass Validate().
TEST(ModelPersistenceTest, LoadRejectsNanConfig) {
  Dataset ds = MakeDataset(60, 2, 89);
  Model model = TrainModel(ds, ModelKind::kUdt);
  const std::string text = model.Serialize();
  const std::string key = "pruning_confidence=";
  const size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const size_t end = text.find(' ', at);
  std::string poisoned = text;
  poisoned.replace(at, end - at, key + "nan");
  EXPECT_FALSE(Model::Deserialize(poisoned).ok());

  std::string path = testing::TempDir() + "/udt_api_model_test_nan.model";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(poisoned.data(), 1, poisoned.size(), file);
    std::fclose(file);
  }
  auto restored = Model::Load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("pruning_confidence"),
            std::string::npos)
      << restored.status().message();
}

TEST(ModelPersistenceTest, LoadMissingFileFails) {
  auto missing = Model::Load("/nonexistent/path/model.txt");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

TEST(TrainerTest, SharedTreeIsImmutableAndShared) {
  Dataset ds = MakeDataset(60, 2, 3);
  Model model = TrainModel(ds, ModelKind::kUdt);
  std::shared_ptr<const DecisionTree> tree = model.shared_tree();
  Model copy = model;  // copies pointers, not trees
  EXPECT_EQ(&copy.tree(), tree.get());
}

TEST(TrainerTest, AveragingOverridesAlgorithm) {
  Dataset ds = MakeDataset(60, 2, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainAveraging(ds);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->config().algorithm, SplitAlgorithm::kAvg);
}

TEST(TrainerTest, ConcurrentTrainingSharesDatasetSafely) {
  // Concurrent Trainer::Train calls on distinct configs aliasing one
  // read-only Dataset must be safe — including trainers that themselves
  // run multi-threaded builds (nested pools). Each result must equal the
  // tree the same config trains serially in isolation.
  Dataset ds = MakeDataset(130, 3, 19);
  const std::vector<SplitAlgorithm> algorithms = {
      SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtGp,
      SplitAlgorithm::kUdtEs};

  std::vector<std::string> expected(algorithms.size());
  for (size_t i = 0; i < algorithms.size(); ++i) {
    TreeConfig config;
    config.algorithm = algorithms[i];
    auto model = Trainer(config).TrainUdt(ds);
    ASSERT_TRUE(model.ok());
    expected[i] = SerializeTree(model->tree());
  }

  std::vector<std::string> actual(algorithms.size());
  std::vector<std::string> errors(algorithms.size());
  {
    std::vector<std::thread> trainers;
    trainers.reserve(algorithms.size());
    for (size_t i = 0; i < algorithms.size(); ++i) {
      trainers.emplace_back([&ds, &algorithms, &actual, &errors, i] {
        TreeConfig config;
        config.algorithm = algorithms[i];
        config.num_threads = 2;  // nested parallelism inside each trainer
        auto model = Trainer(config).TrainUdt(ds);
        if (!model.ok()) {
          errors[i] = model.status().ToString();
          return;
        }
        actual[i] = SerializeTree(model->tree());
      });
    }
    for (std::thread& t : trainers) t.join();
  }

  for (size_t i = 0; i < algorithms.size(); ++i) {
    ASSERT_TRUE(errors[i].empty()) << errors[i];
    EXPECT_EQ(actual[i], expected[i])
        << "algorithm " << SplitAlgorithmToString(algorithms[i]);
  }
}

TEST(TrainerTest, EmptyDatasetFails) {
  Dataset empty(Schema::Numerical(2, {"A", "B"}));
  auto model = Trainer().TrainUdt(empty);
  EXPECT_FALSE(model.ok());
}

}  // namespace
}  // namespace udt
