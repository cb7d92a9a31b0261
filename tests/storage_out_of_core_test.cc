// The storage tier's end-to-end acceptance: train a tree AND a forest
// from a chunk-streamed "udt-dataset v1" file whose exact decoded size
// exceeds the configured memory budget, and land within 1% of in-memory
// exact training on held-out data. The integer-domain synthetic generator
// plus the deterministic uncertainty injector give the file a bounded
// value vocabulary, so the dictionary pool keeps the materialised working
// set far below the exact footprint — that gap is what makes the budget
// satisfiable at all.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "api/forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "storage/dataset_file.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

// One shared corpus for the whole suite: an integer-domain synthetic data
// set (PenDigits-style) with injected Gaussian error pdfs, split into
// train/test once, the train half converted to a "udt-dataset v1" file.
class OutOfCoreTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::SyntheticConfig config;
    config.name = "ooc";
    config.num_tuples = 3000;
    config.num_attributes = 4;
    config.num_classes = 2;
    config.integer_domain = true;
    config.integer_levels = 100;
    config.seed = 17;
    const PointDataset points = datagen::GenerateSynthetic(config);

    UncertaintyOptions inject;
    inject.width_fraction = 0.10;
    inject.samples_per_pdf = 100;
    auto uncertain = InjectUncertainty(points, inject);
    ASSERT_TRUE(uncertain.ok());

    Rng rng(5);
    auto split = uncertain->RandomSplit(0.25, &rng);
    train_ = new Dataset(std::move(split.first));
    test_ = new Dataset(std::move(split.second));

    path_ = testing::TempDir() + "/out_of_core.udtds";
    QuantizationOptions options;  // default 64 bins
    options.chunk_tuples = 256;
    auto stats = ConvertDatasetToFile(*train_, path_, options);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    stats_ = new DatasetFileStats(*stats);

    // The budget the demo trains under: well below the exact decoded
    // footprint (~22.2 MB) AND below what even the decoded quantized
    // tuples would cost as private copies (~2.0 MB), yet well above the
    // pooled working set (~0.5 MB) — slice sharing is what makes the
    // budget satisfiable, not just quantization.
    budget_ = new StorageBudget();
    budget_->max_materialized_bytes = stats_->source_decoded_bytes / 16;
  }

  static void TearDownTestSuite() {
    std::remove(path_.c_str());
    delete train_;
    delete test_;
    delete stats_;
    delete budget_;
    train_ = nullptr;
    test_ = nullptr;
    stats_ = nullptr;
    budget_ = nullptr;
  }

  static Dataset* train_;
  static Dataset* test_;
  static DatasetFileStats* stats_;
  static StorageBudget* budget_;
  static std::string path_;
};

Dataset* OutOfCoreTest::train_ = nullptr;
Dataset* OutOfCoreTest::test_ = nullptr;
DatasetFileStats* OutOfCoreTest::stats_ = nullptr;
StorageBudget* OutOfCoreTest::budget_ = nullptr;
std::string OutOfCoreTest::path_;

TEST_F(OutOfCoreTest, SourceExceedsBudgetButPooledWorkingSetFits) {
  ASSERT_GT(stats_->source_decoded_bytes, budget_->max_materialized_bytes);

  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader->source_decoded_bytes(), stats_->source_decoded_bytes);
  // The reader's resident state (grids + dictionaries) is a sliver of the
  // decoded data.
  EXPECT_LT(reader->MemoryUsageBytes(), budget_->max_materialized_bytes / 4);

  auto pooled = MaterializeDataset(&*reader, *budget_);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  EXPECT_EQ(pooled->num_tuples(), train_->num_tuples());
  EXPECT_LE(pooled->MemoryUsageBytes(), budget_->max_materialized_bytes);
  // ... while the same tuples without slice sharing would burst it.
  EXPECT_GT(pooled->MemoryBreakdown().unshared_total_bytes,
            budget_->max_materialized_bytes);
}

TEST_F(OutOfCoreTest, TreeFromFileMatchesExactTrainingWithinOnePercent) {
  Trainer trainer;
  auto exact = trainer.TrainUdt(*train_);
  ASSERT_TRUE(exact.ok());
  const double exact_accuracy = EvaluateAccuracy(*exact, *test_);

  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto pooled = MaterializeDataset(&*reader, *budget_);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  auto from_file = trainer.TrainUdt(*pooled);
  ASSERT_TRUE(from_file.ok()) << from_file.status().message();
  const double file_accuracy = EvaluateAccuracy(*from_file, *test_);

  EXPECT_NEAR(file_accuracy, exact_accuracy, 0.01)
      << "exact=" << exact_accuracy << " quantized=" << file_accuracy;
}

TEST_F(OutOfCoreTest, ForestFromFileMatchesExactTrainingWithinOnePercent) {
  ForestConfig config;
  config.num_trees = 8;
  config.seed = 3;
  config.num_threads = 0;
  ForestTrainer trainer(config);

  auto exact = trainer.TrainUdt(*train_);
  ASSERT_TRUE(exact.ok());
  const double exact_accuracy = EvaluateAccuracy(*exact, *test_);

  // One pooled materialisation feeds every tree: the bags reweight the
  // shared working set, they never duplicate it.
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  auto pooled = MaterializeDataset(&*reader, *budget_);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  OobEstimate oob;
  auto from_file = trainer.TrainUdt(*pooled, &oob);
  ASSERT_TRUE(from_file.ok()) << from_file.status().message();
  EXPECT_EQ(from_file->num_trees(), 8);
  const double file_accuracy = EvaluateAccuracy(*from_file, *test_);

  EXPECT_NEAR(file_accuracy, exact_accuracy, 0.01)
      << "exact=" << exact_accuracy << " quantized=" << file_accuracy;
  // Bootstrap bags were on, so the out-of-bag estimate is live.
  EXPECT_GT(oob.evaluated_tuples, 0);
}

// MaterializeDataset checks its budget against a running footprint; it
// must equal the full recount after every chunk.
TEST_F(OutOfCoreTest, RunningFootprintEqualsRecountAfterEveryChunk) {
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  ASSERT_GT(reader->num_chunks(), 1);
  Dataset pooled(reader->schema());
  DatasetFootprint footprint;
  for (int64_t c = 0; c < reader->num_chunks(); ++c) {
    ASSERT_TRUE(reader->AppendChunk(c, &pooled).ok());
    EXPECT_EQ(footprint.Update(pooled), pooled.MemoryUsageBytes())
        << "after chunk " << c;
  }

  // The exact source too, grown in uneven steps: its pdfs share per-tuple
  // blocks but never a slice.
  Dataset exact(train_->schema());
  DatasetFootprint exact_footprint;
  int added = 0;
  for (int step = 1; added < train_->num_tuples(); step *= 3) {
    for (int i = 0; i < step && added < train_->num_tuples(); ++i) {
      ASSERT_TRUE(exact.AddTuple(train_->tuple(added++)).ok());
    }
    EXPECT_EQ(exact_footprint.Update(exact), exact.MemoryUsageBytes())
        << "after " << added << " tuples";
  }
}

TEST_F(OutOfCoreTest, TooTightBudgetFailsCleanly) {
  auto reader = DatasetReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  StorageBudget tiny;
  tiny.max_materialized_bytes = 4096;
  auto pooled = MaterializeDataset(&*reader, tiny);
  ASSERT_FALSE(pooled.ok());
  EXPECT_NE(pooled.status().message().find("memory budget"),
            std::string::npos);
}

}  // namespace
}  // namespace udt
