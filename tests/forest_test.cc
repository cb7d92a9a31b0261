// Functional coverage for the ensemble subsystem: config validation, the
// two voting rules, bootstrap-bag structure, out-of-bag estimation, the
// degenerate no-diversity forest, and both persistence containers
// (udt-forest-model v1 pointer forests, udt-forest v1 compiled forests)
// including hostile-input rejection. The cross-thread bitwise guarantees
// live in tests/forest_determinism_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "api/train_request.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/node_build.h"
#include "pdf/pdf_builder.h"
#include "tree/classify.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

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

ForestConfig SmallConfig(int trees = 5) {
  ForestConfig config;
  config.num_trees = trees;
  config.seed = 7;
  config.tree.algorithm = SplitAlgorithm::kUdtEs;
  return config;
}

TEST(ForestConfigTest, ValidatesRanges) {
  ForestConfig config = SmallConfig();
  EXPECT_TRUE(config.Validate().ok());

  config.num_trees = 0;
  EXPECT_FALSE(config.Validate().ok());

  config = SmallConfig();
  config.subspace_attributes = -2;
  EXPECT_FALSE(config.Validate().ok());
  config.subspace_attributes = ForestConfig::kSubspaceSqrt;
  EXPECT_TRUE(config.Validate().ok());

  config = SmallConfig();
  config.num_threads = -1;
  EXPECT_FALSE(config.Validate().ok());

  // The embedded tree config is validated too.
  config = SmallConfig();
  config.tree.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ForestConfigTest, RejectsEmptyDataset) {
  Dataset empty(Schema::Numerical(2, {"a", "b"}));
  ForestTrainer trainer(SmallConfig());
  EXPECT_FALSE(trainer.TrainUdt(empty).ok());
}

TEST(BootstrapBagTest, IsDeterministicAndConservesDraws) {
  std::vector<double> bag = ForestBootstrapBag(/*seed=*/3, /*tree_index=*/2,
                                               /*num_tuples=*/64);
  ASSERT_EQ(bag.size(), 64u);
  double total = 0.0;
  for (double w : bag) {
    EXPECT_GE(w, 0.0);
    EXPECT_EQ(w, std::floor(w)) << "bag weights are multiplicities";
    total += w;
  }
  EXPECT_DOUBLE_EQ(total, 64.0) << "N draws with replacement";

  EXPECT_EQ(bag, ForestBootstrapBag(3, 2, 64)) << "pure function of inputs";
  EXPECT_NE(bag, ForestBootstrapBag(3, 3, 64)) << "trees get distinct bags";
  EXPECT_NE(bag, ForestBootstrapBag(4, 2, 64)) << "seeds get distinct bags";
}

TEST(SubspaceSampleTest, MaskHasExactlyKAttributes) {
  for (uint64_t token : {uint64_t{1}, uint64_t{999}, kRootNodeToken}) {
    std::vector<uint8_t> mask = SampleAttributeSubspace(/*seed=*/5, token,
                                                        /*num_attributes=*/10,
                                                        /*k=*/3);
    ASSERT_EQ(mask.size(), 10u);
    int set = 0;
    for (uint8_t m : mask) set += m != 0 ? 1 : 0;
    EXPECT_EQ(set, 3);
    EXPECT_EQ(mask, SampleAttributeSubspace(5, token, 10, 3));
  }
  // Different tokens disagree somewhere (overwhelmingly likely over many
  // tokens; assert over a family to keep flakiness at zero).
  bool any_difference = false;
  std::vector<uint8_t> first = SampleAttributeSubspace(5, 1, 10, 3);
  for (uint64_t token = 2; token < 40; ++token) {
    if (SampleAttributeSubspace(5, token, 10, 3) != first) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ForestVoteTest, AverageIsMeanOfTreeDistributions) {
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 21);
  ForestConfig config = SmallConfig(4);
  config.vote = ForestVote::kAverage;
  ForestTrainer trainer(config);
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  const UncertainTuple& tuple = ds.tuple(0);
  std::vector<double> expected(3, 0.0);
  for (int t = 0; t < forest->num_trees(); ++t) {
    std::vector<double> dist = forest->tree(t).ClassifyDistribution(tuple);
    for (int c = 0; c < 3; ++c) expected[static_cast<size_t>(c)] += dist[c];
  }
  for (double& v : expected) v /= forest->num_trees();
  EXPECT_EQ(forest->ClassifyDistribution(tuple), expected);
}

TEST(ForestVoteTest, MajorityIsNormalisedVoteHistogram) {
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 22);
  ForestConfig config = SmallConfig(5);
  config.vote = ForestVote::kMajority;
  ForestTrainer trainer(config);
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  const UncertainTuple& tuple = ds.tuple(1);
  std::vector<double> expected(3, 0.0);
  for (int t = 0; t < forest->num_trees(); ++t) {
    expected[static_cast<size_t>(forest->tree(t).Predict(tuple))] += 1.0;
  }
  for (double& v : expected) v /= forest->num_trees();
  std::vector<double> actual = forest->ClassifyDistribution(tuple);
  EXPECT_EQ(actual, expected);
  double mass = 0.0;
  for (double v : actual) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(ForestTrainerTest, NoDiversityForestEqualsSingleTree) {
  // bootstrap off + subspaces off => every tree IS the single-trainer
  // tree, so forest predictions agree with it (up to the vote's divide,
  // which rounds: (d+d+d)/3 is within an ulp of d, not bitwise d).
  Dataset ds = SyntheticDataset(80, 3, 3, 8, 23);
  ForestConfig config = SmallConfig(3);
  config.bootstrap = false;
  config.subspace_attributes = 0;
  ForestTrainer trainer(config);
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  Trainer single_trainer(config.tree);
  auto single = single_trainer.TrainUdt(ds);
  ASSERT_TRUE(single.ok());

  const std::string single_tree = SerializeTree(single->tree());
  for (int t = 0; t < forest->num_trees(); ++t) {
    EXPECT_EQ(SerializeTree(forest->tree(t).tree()), single_tree)
        << "tree " << t;
  }
  for (int i = 0; i < 10; ++i) {
    std::vector<double> fd = forest->ClassifyDistribution(ds.tuple(i));
    std::vector<double> sd = single->ClassifyDistribution(ds.tuple(i));
    ASSERT_EQ(fd.size(), sd.size());
    for (size_t c = 0; c < fd.size(); ++c) {
      EXPECT_NEAR(fd[c], sd[c], 1e-15) << "tuple " << i << " class " << c;
    }
  }
}

TEST(ForestTrainerTest, SubspaceForestsDiversify) {
  Dataset ds = SyntheticDataset(100, 6, 3, 8, 24);
  ForestConfig config = SmallConfig(4);
  config.bootstrap = false;
  config.subspace_attributes = 2;
  ForestTrainer trainer(config);
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  // With bags off, any disagreement between trees must come from the
  // random subspaces.
  bool trees_differ = false;
  for (int t = 1; t < forest->num_trees() && !trees_differ; ++t) {
    trees_differ = forest->tree(t).Serialize() !=
                   forest->tree(0).Serialize();
  }
  EXPECT_TRUE(trees_differ);
}

TEST(ForestTrainerTest, OobEstimateIsSane) {
  Dataset ds = SyntheticDataset(120, 3, 3, 8, 25);
  ForestConfig config = SmallConfig(8);
  ForestTrainer trainer(config);
  OobEstimate oob;
  BuildStats stats;
  auto forest = trainer.TrainUdt(ds, &oob, &stats);
  ASSERT_TRUE(forest.ok());

  EXPECT_EQ(oob.total_tuples, 120);
  // With 8 bags, P(no bag leaves tuple i out) is tiny; expect wide
  // coverage but tolerate the tail.
  EXPECT_GT(oob.evaluated_tuples, 60);
  EXPECT_LE(oob.evaluated_tuples, 120);
  EXPECT_GE(oob.accuracy, 0.0);
  EXPECT_LE(oob.accuracy, 1.0);
  EXPECT_NEAR(oob.error, 1.0 - oob.accuracy, 1e-12);
  EXPECT_NEAR(oob.coverage,
              static_cast<double>(oob.evaluated_tuples) / 120.0, 1e-12);
  EXPECT_GT(stats.nodes, 0);
  EXPECT_GT(stats.leaves, 0);

  // Without bootstrap bags there is nothing out of bag: the rates carry
  // the documented NaN "no estimate" sentinel, never a fake 0.0.
  ForestConfig full = config;
  full.bootstrap = false;
  OobEstimate no_oob;
  auto forest2 = ForestTrainer(full).TrainUdt(ds, &no_oob);
  ASSERT_TRUE(forest2.ok());
  EXPECT_EQ(no_oob.evaluated_tuples, 0);
  EXPECT_EQ(no_oob.coverage, 0.0);
  EXPECT_TRUE(std::isnan(no_oob.accuracy));
  EXPECT_TRUE(std::isnan(no_oob.error));
}

TEST(ForestTrainerTest, OobWithEveryTupleInBagIsNaNNotZero) {
  // A 1-tree forest whose single bag drew every tuple evaluates nothing
  // out of bag. The old behaviour left accuracy/error at 0.0 — reading as
  // a catastrophically wrong (or, via error, perfect) forest; the
  // contract now says NaN rates with coverage == 0. Bags are a pure
  // function of (seed, tree, n), so scan for a seed whose bag covers both
  // tuples instead of hoping.
  Dataset ds = SyntheticDataset(2, 2, 2, 6, 11);
  uint64_t covering_seed = 0;
  bool found = false;
  for (uint64_t seed = 1; seed < 200 && !found; ++seed) {
    std::vector<double> bag = ForestBootstrapBag(seed, 0, 2);
    if (bag[0] > 0.0 && bag[1] > 0.0) {
      covering_seed = seed;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [1, 200) draws both of two tuples?";

  ForestConfig config = SmallConfig(1);
  config.seed = covering_seed;
  OobEstimate oob;
  auto forest = ForestTrainer(config).TrainUdt(ds, &oob);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(oob.evaluated_tuples, 0);
  EXPECT_EQ(oob.total_tuples, 2);
  EXPECT_EQ(oob.coverage, 0.0);
  EXPECT_TRUE(std::isnan(oob.accuracy));
  EXPECT_TRUE(std::isnan(oob.error));
}

// Recomputes the out-of-bag estimate of `forest` independently of the
// trainer: bags from ForestBootstrapBag, one pointer-tree distribution per
// out-of-bag (tree, tuple) pair, votes folded in tree order, first-max
// argmax. Only trees [carried, num_trees) vote.
OobEstimate OobOracle(const ForestModel& forest, const Dataset& data,
                      uint64_t seed, ForestVote vote, int carried) {
  const int n = data.num_tuples();
  const int k = forest.num_classes();
  std::vector<std::vector<double>> votes(static_cast<size_t>(n),
                                         std::vector<double>(k, 0.0));
  std::vector<int> voters(static_cast<size_t>(n), 0);
  for (int t = carried; t < forest.num_trees(); ++t) {
    std::vector<double> bag = ForestBootstrapBag(seed, t, n);
    for (int i = 0; i < n; ++i) {
      if (bag[static_cast<size_t>(i)] > 0.0) continue;
      std::vector<double> dist =
          forest.tree(t).ClassifyDistribution(data.tuple(i));
      AccumulateForestVote(vote, dist.data(), k,
                           votes[static_cast<size_t>(i)].data());
      ++voters[static_cast<size_t>(i)];
    }
  }
  OobEstimate oob;
  oob.total_tuples = n;
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    if (voters[static_cast<size_t>(i)] == 0) continue;
    ++oob.evaluated_tuples;
    const std::vector<double>& row = votes[static_cast<size_t>(i)];
    if (std::max_element(row.begin(), row.end()) - row.begin() ==
        data.tuple(i).label) {
      ++correct;
    }
  }
  if (oob.evaluated_tuples > 0) {
    oob.accuracy = static_cast<double>(correct) /
                   static_cast<double>(oob.evaluated_tuples);
    oob.error = 1.0 - oob.accuracy;
    oob.coverage = static_cast<double>(oob.evaluated_tuples) /
                   static_cast<double>(n);
  }
  return oob;
}

void ExpectSameOob(const OobEstimate& actual, const OobEstimate& expected) {
  EXPECT_EQ(actual.total_tuples, expected.total_tuples);
  EXPECT_EQ(actual.evaluated_tuples, expected.evaluated_tuples);
  EXPECT_GT(actual.evaluated_tuples, 0);
  // Bit-equal, not near: the estimate is a count ratio over the same
  // argmaxes, so any difference is a different vote somewhere.
  EXPECT_EQ(actual.accuracy, expected.accuracy);
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_EQ(actual.coverage, expected.coverage);
}

TEST(ForestTrainerTest, OobEstimateMatchesIndependentOracle) {
  Dataset ds = SyntheticDataset(96, 3, 3, 8, 41);
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    for (ForestVote vote : {ForestVote::kAverage, ForestVote::kMajority}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(StrFormat("kind %s vote %d threads %d",
                               ModelKindToString(kind),
                               static_cast<int>(vote), threads));
        ForestConfig config = SmallConfig(6);
        config.vote = vote;
        config.subspace_attributes = 2;
        config.num_threads = threads;
        TrainRequest request = TrainRequest::For(ds, kind);
        OobEstimate oob;
        request.oob = &oob;
        auto forest = ForestTrainer(config).Train(request);
        ASSERT_TRUE(forest.ok()) << forest.status().ToString();
        ExpectSameOob(oob, OobOracle(*forest, ds, config.seed, vote, 0));
      }
    }
  }
}

TEST(ForestTrainerTest, WarmStartOobCountsFreshTreesOnly) {
  // The incumbent trained on another window, so its carried trees would
  // vote differently from the fresh ones if they were counted.
  Dataset old_window = SyntheticDataset(96, 3, 3, 8, 42);
  Dataset new_window = SyntheticDataset(96, 3, 3, 8, 43);
  ForestConfig config = SmallConfig(6);
  ForestTrainer trainer(config);
  auto incumbent = trainer.TrainUdt(old_window);
  ASSERT_TRUE(incumbent.ok());

  constexpr int kCarried = 3;
  TrainRequest request = TrainRequest::For(new_window);
  request.warm_start = &incumbent.value();
  request.warm_trees = kCarried;
  OobEstimate oob;
  request.oob = &oob;
  auto forest = trainer.Train(request);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ExpectSameOob(oob, OobOracle(*forest, new_window, config.seed, config.vote,
                               kCarried));
  // The case discriminates: letting the carried trees vote moves the
  // estimate.
  OobEstimate with_carried =
      OobOracle(*forest, new_window, config.seed, config.vote, 0);
  EXPECT_TRUE(with_carried.evaluated_tuples != oob.evaluated_tuples ||
              with_carried.accuracy != oob.accuracy);
}

TEST(ForestTrainerTest, AveragingForestTrains) {
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 26);
  ForestTrainer trainer(SmallConfig(4));
  auto forest = trainer.TrainAveraging(ds);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->kind(), ModelKind::kAveraging);
  for (int t = 0; t < forest->num_trees(); ++t) {
    EXPECT_EQ(forest->tree(t).config().algorithm, SplitAlgorithm::kAvg);
  }
  // Distributions remain normalised through the vote.
  std::vector<double> dist = forest->ClassifyDistribution(ds.tuple(0));
  double mass = 0.0;
  for (double v : dist) mass += v;
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(ForestModelTest, SerializeRoundTripsExactly) {
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 27);
  ForestTrainer trainer(SmallConfig(3));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  std::string text = forest->Serialize();
  auto loaded = ForestModel::Deserialize(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->Serialize(), text);
  EXPECT_EQ(loaded->num_trees(), forest->num_trees());
  EXPECT_EQ(loaded->vote(), forest->vote());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(loaded->ClassifyDistribution(ds.tuple(i)),
              forest->ClassifyDistribution(ds.tuple(i)));
  }
}

TEST(ForestModelTest, SaveLoadRoundTrips) {
  Dataset ds = SyntheticDataset(80, 3, 3, 8, 28);
  ForestTrainer trainer(SmallConfig(3));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  std::string path = ::testing::TempDir() + "/forest_model.udtf";
  ASSERT_TRUE(forest->Save(path).ok());
  auto loaded = ForestModel::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Serialize(), forest->Serialize());
  std::remove(path.c_str());
}

TEST(ForestModelTest, RejectsHostileInput) {
  Dataset ds = SyntheticDataset(60, 3, 3, 8, 29);
  ForestTrainer trainer(SmallConfig(2));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());
  std::string good = forest->Serialize();

  EXPECT_FALSE(ForestModel::Deserialize("").ok());
  EXPECT_FALSE(ForestModel::Deserialize("not a forest").ok());
  EXPECT_FALSE(
      ForestModel::Deserialize("udt-forest-model v1\nvote avg\ntrees 0\n")
          .ok());
  // Truncated mid tree body.
  EXPECT_FALSE(
      ForestModel::Deserialize(good.substr(0, good.size() / 2)).ok());
  // Frame length pointing past the end.
  std::string bad = good;
  size_t frame = bad.find("tree 0 ");
  ASSERT_NE(frame, std::string::npos);
  bad.replace(frame, 7, "tree 0 999999999 ");
  EXPECT_FALSE(ForestModel::Deserialize(bad).ok());
  // Frame index 2^32: must not wrap onto tree 0.
  std::string wrapped = good;
  wrapped.replace(frame, 7, "tree 4294967296 ");
  auto parsed = ForestModel::Deserialize(wrapped);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 4: bad tree frame"),
            std::string::npos)
      << parsed.status().message();
}

TEST(CompiledForestTest, CompileRoundTripsLayout) {
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 30);
  ForestTrainer trainer(SmallConfig(4));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  CompiledForest compiled = forest->Compile();
  EXPECT_EQ(compiled.num_trees(), forest->num_trees());
  EXPECT_EQ(compiled.kind(), forest->kind());
  EXPECT_EQ(compiled.vote(), forest->vote());
  EXPECT_GT(compiled.num_nodes(), 0);

  std::string text = compiled.Serialize();
  auto loaded = CompiledForest::Deserialize(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->LayoutEquals(compiled));
  EXPECT_EQ(loaded->Serialize(), text);

  std::string path = ::testing::TempDir() + "/forest_compiled.udtf";
  ASSERT_TRUE(compiled.Save(path).ok());
  auto from_file = CompiledForest::Load(path);
  ASSERT_TRUE(from_file.ok());
  EXPECT_TRUE(from_file->LayoutEquals(compiled));
  std::remove(path.c_str());
}

TEST(CompiledForestTest, RejectsHostileInput) {
  Dataset ds = SyntheticDataset(60, 3, 3, 8, 31);
  ForestTrainer trainer(SmallConfig(2));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());
  std::string good = forest->Compile().Serialize();

  EXPECT_FALSE(CompiledForest::Deserialize("").ok());
  EXPECT_FALSE(CompiledForest::Deserialize("udt-forest-model v1\n").ok());
  EXPECT_FALSE(
      CompiledForest::Deserialize(good.substr(0, good.size() / 2)).ok());

  // A child id pointing out of range must be caught by validation.
  std::string bad = good;
  size_t n_line = bad.find("\nn 1 ");
  if (n_line != std::string::npos) {
    bad.replace(n_line + 1, 4, "n 9 ");
    EXPECT_FALSE(CompiledForest::Deserialize(bad).ok());
  }
}

// One batch over all of `ds` into a fresh result; the batch is expected
// to succeed.
FlatBatchResult MustPredict(PredictSession* session, const Dataset& ds,
                            const PredictOptions& options = {}) {
  FlatBatchResult out;
  Status status = session->PredictBatchInto(ds.tuples(), options, &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(ForestSessionTest, MatchesPointerPathAndSingleThreadBatch) {
  Dataset ds = SyntheticDataset(100, 3, 3, 8, 32);
  ForestTrainer trainer(SmallConfig(4));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());

  PredictSession session(forest->Compile());
  std::vector<double> single(static_cast<size_t>(session.num_classes()));
  for (int i = 0; i < 20; ++i) {
    session.ClassifyInto(ds.tuple(i), single.data());
    EXPECT_EQ(single, forest->ClassifyDistribution(ds.tuple(i)))
        << "tuple " << i;
  }

  FlatBatchResult batch = MustPredict(&session, ds);
  ASSERT_EQ(batch.labels.size(), static_cast<size_t>(ds.num_tuples()));
  for (int i = 0; i < ds.num_tuples(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    std::span<const double> row = batch.distribution(ui);
    EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
              forest->ClassifyDistribution(ds.tuple(i)));
    EXPECT_EQ(batch.labels[ui], forest->Predict(ds.tuple(i)));
  }
}

TEST(ForestSessionTest, RejectsNegativeThreads) {
  Dataset ds = SyntheticDataset(30, 3, 3, 8, 33);
  ForestTrainer trainer(SmallConfig(2));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());
  PredictSession session(forest->Compile());
  FlatBatchResult out;
  EXPECT_FALSE(
      session.PredictBatchInto(ds.tuples(), {.num_threads = -2}, &out).ok());
}

TEST(ForestSessionTest, PersistentExecutorSpawnsOncePerSession) {
  // The forest-session half of the executor v3 guarantee: workers are
  // created at the first multi-threaded batch, reused by every later
  // call, and the votes stay byte-identical to the inline loop at every
  // thread count.
  Dataset ds = SyntheticDataset(90, 3, 3, 8, 34);
  ForestTrainer trainer(SmallConfig(4));
  auto forest = trainer.TrainUdt(ds);
  ASSERT_TRUE(forest.ok());
  PredictSession session(forest->Compile());

  FlatBatchResult reference = MustPredict(&session, ds);
  EXPECT_EQ(session.executor_workers(), 0);

  MustPredict(&session, ds, {.num_threads = 4});
  EXPECT_EQ(session.executor_workers(), 3);
  for (int round = 0; round < 30; ++round) {
    FlatBatchResult batch =
        MustPredict(&session, ds, {.num_threads = 1 + round % 4});
    ASSERT_EQ(session.executor_workers(), 3) << "round " << round;
    ASSERT_EQ(batch.labels, reference.labels) << "round " << round;
    ASSERT_EQ(batch.distributions, reference.distributions)
        << "round " << round;
  }
  MustPredict(&session, ds, {.num_threads = 8});
  EXPECT_EQ(session.executor_workers(), 7);
}

TEST(ForestModelTest, DeserializeErrorsReportAbsoluteLineNumbers) {
  // Regression: tree bodies are byte-framed and consumed with raw reads,
  // invisible to the LineReader. Without AccountRawLines every error past
  // the first frame reported a line number frozen at that frame's header;
  // a corrupted second frame must name its true absolute line.
  Dataset ds = SyntheticDataset(60, 2, 3, 6, 77);
  ForestConfig config;
  config.num_trees = 3;
  auto forest = ForestTrainer(config).Train(TrainRequest::For(ds));
  ASSERT_TRUE(forest.ok());

  const std::string body0 = forest->tree(0).Serialize();
  const std::string body1 = forest->tree(1).Serialize();
  const std::string header1 = "tree 1 " + std::to_string(body1.size()) + "\n";
  std::string text = forest->Serialize();
  const size_t at = text.find(header1);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "tree ?");

  auto broken = ForestModel::Deserialize(text);
  ASSERT_FALSE(broken.ok());
  // magic + vote + trees + "tree 0" header, then tree 0's raw body lines.
  const int body0_lines =
      static_cast<int>(std::count(body0.begin(), body0.end(), '\n'));
  const int expected_line = 4 + body0_lines + 1;
  const std::string want = "line " + std::to_string(expected_line);
  EXPECT_NE(broken.status().message().find(want), std::string::npos)
      << "expected '" << want << "' in: " << broken.status().message();
  // The frame header really does sit beyond tree 0's body, so a frozen
  // counter could not have produced this number.
  ASSERT_GT(expected_line, body0_lines);
}

}  // namespace
}  // namespace udt
