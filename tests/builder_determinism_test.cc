// The construction engine's core guarantee: the tree built with
// num_threads = N is bitwise-identical to the serial build for every N,
// on every algorithm, including data with categorical attributes and
// tie-heavy data whose tuples share pdf grids. The suite serialises trees
// through tree_io and compares the bytes, and checks training-set
// accuracy matches the serial baseline exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/trainer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/builder.h"
#include "datagen/japanese_vowel.h"
#include "pdf/pdf_builder.h"
#include "tree/classify.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

// A synthetic uncertain data set in the paper's mould: Gaussian error pdfs
// around class-dependent centres, several attributes, overlapping classes.
Dataset SyntheticDataset(int tuples, int attributes, int classes, int s,
                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
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

// Numerical + categorical attributes: exercises the n-ary scheduling path.
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
  for (int c = 0; c < classes; ++c) names.push_back(StrFormat("c%d", c));
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

double TrainAccuracy(const DecisionTree& tree, const Dataset& ds) {
  int correct = 0;
  for (int i = 0; i < ds.num_tuples(); ++i) {
    if (PredictLabel(tree, ds.tuple(i)) == ds.tuple(i).label) ++correct;
  }
  return static_cast<double>(correct) / ds.num_tuples();
}

struct DeterminismCase {
  const char* dataset;
  SplitAlgorithm algorithm;
};

std::string CaseName(const ::testing::TestParamInfo<DeterminismCase>& info) {
  std::string name = std::string(info.param.dataset) + "_" +
                     SplitAlgorithmToString(info.param.algorithm);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

Dataset MakeCaseDataset(const std::string& which) {
  if (which == "synthetic") return SyntheticDataset(150, 4, 3, 8, 42);
  if (which == "mixed") return MixedDataset(140, 7);
  if (which == "ties") return TieHeavyDataset(160, 4, 3, 8, 19);
  // Japanese-vowel-like: pdfs from raw repeated measurements.
  datagen::JapaneseVowelConfig jv;
  jv.num_tuples = 120;
  jv.num_attributes = 6;
  jv.seed = 11;
  return datagen::GenerateJapaneseVowelLike(jv);
}

class BuilderDeterminismTest
    : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(BuilderDeterminismTest, ThreadCountsProduceIdenticalTrees) {
  const DeterminismCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = param.algorithm;
  config.num_threads = 1;

  BuildStats serial_stats;
  auto serial = TreeBuilder(config).Build(ds, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string serial_bytes = SerializeTree(*serial);
  const double serial_accuracy = TrainAccuracy(*serial, ds);

  for (int threads : {2, 3, 4, 8}) {
    config.num_threads = threads;
    BuildStats stats;
    auto parallel = TreeBuilder(config).Build(ds, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    // Byte-identical serialisation: same structure, same split points,
    // same leaf statistics down to the last bit of every double.
    EXPECT_EQ(SerializeTree(*parallel), serial_bytes)
        << "threads=" << threads;
    // Identical trees must classify identically.
    EXPECT_EQ(TrainAccuracy(*parallel, ds), serial_accuracy)
        << "threads=" << threads;
    // The engine does the same conceptual work in any schedule.
    EXPECT_EQ(stats.nodes, serial_stats.nodes) << "threads=" << threads;
    EXPECT_EQ(stats.leaves, serial_stats.leaves) << "threads=" << threads;
  }
}

TEST_P(BuilderDeterminismTest, AutoThreadCountMatchesSerial) {
  const DeterminismCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = param.algorithm;
  config.num_threads = 1;
  auto serial = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(serial.ok());

  config.num_threads = 0;  // one per hardware thread
  auto parallel = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(SerializeTree(*parallel), SerializeTree(*serial));
}

std::vector<DeterminismCase> AllCases() {
  std::vector<DeterminismCase> cases;
  for (const char* dataset : {"synthetic", "vowel", "mixed", "ties"}) {
    for (SplitAlgorithm algorithm :
         {SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtLp,
          SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
      cases.push_back({dataset, algorithm});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BuilderDeterminismTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// The facade must thread the knob through: a Trainer with num_threads set
// produces the same model bytes as the serial Trainer.
TEST(TrainerThreadsTest, FacadeRespectsNumThreads) {
  Dataset ds = SyntheticDataset(120, 3, 3, 8, 77);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;

  auto serial = Trainer(config).TrainUdt(ds);
  ASSERT_TRUE(serial.ok());
  TreeConfig parallel_config = config;
  parallel_config.num_threads = 4;
  auto parallel = Trainer(parallel_config).TrainUdt(ds);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->config().num_threads, 4);
  EXPECT_EQ(SerializeTree(parallel->tree()), SerializeTree(serial->tree()));

  // The averaging family runs through the same engine.
  auto avg_serial = Trainer(config).TrainAveraging(ds);
  parallel_config.num_threads = 3;
  auto avg_parallel = Trainer(parallel_config).TrainAveraging(ds);
  ASSERT_TRUE(avg_serial.ok() && avg_parallel.ok());
  EXPECT_EQ(SerializeTree(avg_parallel->tree()),
            SerializeTree(avg_serial->tree()));
}

TEST(TrainerThreadsTest, NegativeThreadCountRejected) {
  Dataset ds = SyntheticDataset(30, 2, 2, 6, 5);
  TreeConfig config;
  config.num_threads = -1;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
}

}  // namespace
}  // namespace udt
