// The serving API's core guarantee: predictions through the compiled flat
// layout (CompiledForest + PredictSession) are byte-identical to the
// pointer-tree traversal, for every tree the builder-determinism fixtures
// produce (synthetic Gaussian, Japanese-vowel-like, mixed categorical), on
// every split algorithm, for both model kinds, at 1 and 4 threads, through
// every session entry point (batch, flat batch, single tuple).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/compiled_forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/japanese_vowel.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

// Fixture data sets, mirroring tests/builder_determinism_test.cc.
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

Dataset MakeCaseDataset(const std::string& which) {
  if (which == "synthetic") return SyntheticDataset(150, 4, 3, 8, 42);
  if (which == "mixed") return MixedDataset(140, 7);
  datagen::JapaneseVowelConfig jv;
  jv.num_tuples = 120;
  jv.num_attributes = 6;
  jv.seed = 11;
  return datagen::GenerateJapaneseVowelLike(jv);
}

// Byte-level equality: memcmp, not operator==, so that representation
// differences (e.g. -0.0 vs 0.0) would be caught, per the acceptance
// criterion that distributions are *byte*-identical.
bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct EquivalenceCase {
  const char* dataset;
  SplitAlgorithm algorithm;
  ModelKind model_kind;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  std::string name = std::string(info.param.dataset) + "_" +
                     SplitAlgorithmToString(info.param.algorithm) +
                     (info.param.model_kind == ModelKind::kAveraging ? "_avg"
                                                                     : "_udt");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

std::vector<EquivalenceCase> AllCases() {
  std::vector<EquivalenceCase> cases;
  for (const char* dataset : {"synthetic", "vowel", "mixed"}) {
    for (SplitAlgorithm algorithm :
         {SplitAlgorithm::kUdt, SplitAlgorithm::kUdtBp, SplitAlgorithm::kUdtLp,
          SplitAlgorithm::kUdtGp, SplitAlgorithm::kUdtEs}) {
      cases.push_back({dataset, algorithm, ModelKind::kUdt});
    }
    // The averaging family exercises the means fast path (incl. the
    // certain-categorical branch on the mixed fixture).
    cases.push_back({dataset, SplitAlgorithm::kUdtEs, ModelKind::kAveraging});
  }
  return cases;
}

class CompiledEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(CompiledEquivalenceTest, SessionMatchesPointerTraversalByteForByte) {
  const EquivalenceCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = param.algorithm;
  auto model = Trainer(config).Train(TrainRequest::For(ds, param.model_kind));
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  // Reference: the pointer-tree per-tuple traversal.
  std::vector<std::vector<double>> expected;
  expected.reserve(static_cast<size_t>(ds.num_tuples()));
  for (int i = 0; i < ds.num_tuples(); ++i) {
    expected.push_back(model->ClassifyDistribution(ds.tuple(i)));
  }

  PredictSession session(model->Compile());
  for (int threads : {1, 4}) {
    PredictOptions options;
    options.num_threads = threads;
    auto batch = session.PredictBatch(ds, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->distributions.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(BytesEqual(batch->distributions[i], expected[i]))
          << "tuple " << i << " threads " << threads;
      EXPECT_EQ(batch->labels[i],
                model->Predict(ds.tuple(static_cast<int>(i))));
    }
  }
}

TEST_P(CompiledEquivalenceTest, AllSessionEntryPointsAgree) {
  const EquivalenceCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = param.algorithm;
  auto model = Trainer(config).Train(TrainRequest::For(ds, param.model_kind));
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  PredictSession session(model->Compile());
  auto batch = session.PredictBatch(ds);
  ASSERT_TRUE(batch.ok());

  // Flat batch output (the zero-allocation serving path).
  FlatBatchResult flat;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(ds.tuples().data(),
                                                      ds.tuples().size()),
                      {.num_threads = 4}, &flat)
                  .ok());
  ASSERT_EQ(flat.size(), batch->distributions.size());
  ASSERT_EQ(flat.labels, batch->labels);

  // Single-tuple paths, interleaved with the batch results.
  const size_t k = static_cast<size_t>(session.num_classes());
  for (int i = 0; i < ds.num_tuples(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    std::vector<double> single = session.ClassifyDistribution(ds.tuple(i));
    EXPECT_TRUE(BytesEqual(single, batch->distributions[ui])) << i;
    std::span<const double> row = flat.distribution(ui);
    EXPECT_EQ(std::memcmp(row.data(), single.data(), k * sizeof(double)), 0)
        << i;
    EXPECT_EQ(session.Predict(ds.tuple(i)), batch->labels[ui]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompiledEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(PredictSessionTest, NegativeThreadCountIsInvalidArgument) {
  Dataset ds = SyntheticDataset(40, 2, 2, 6, 5);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  auto batch = session.PredictBatch(ds, {.num_threads = -1});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);

  FlatBatchResult flat;
  Status into = session.PredictBatchInto(
      std::span<const UncertainTuple>(ds.tuples().data(), ds.tuples().size()),
      {.num_threads = -7}, &flat);
  EXPECT_EQ(into.code(), StatusCode::kInvalidArgument);
}

TEST(PredictSessionTest, ZeroThreadsResolvesToHardwareConcurrency) {
  Dataset ds = SyntheticDataset(40, 2, 2, 6, 5);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());
  auto batch = session.PredictBatch(ds, {.num_threads = 0});
  ASSERT_TRUE(batch.ok());
  EXPECT_GE(batch->num_threads_used, 1);
}

TEST(PredictSessionTest, SessionIsReusableAcrossBatches) {
  Dataset ds = SyntheticDataset(60, 3, 3, 6, 19);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  auto first = session.PredictBatch(ds);
  ASSERT_TRUE(first.ok());
  // Warm scratch must not leak state between calls: re-running the same
  // batch (and a sub-batch, and different thread counts) stays identical.
  auto again = session.PredictBatch(ds, {.num_threads = 3});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->labels, again->labels);
  for (size_t i = 0; i < first->distributions.size(); ++i) {
    EXPECT_TRUE(BytesEqual(first->distributions[i], again->distributions[i]))
        << i;
  }
  auto sub = session.PredictBatch(
      std::span<const UncertainTuple>(ds.tuples().data(), 10));
  ASSERT_TRUE(sub.ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(BytesEqual(sub->distributions[i], first->distributions[i]))
        << i;
  }
}

TEST(PredictSessionTest, AveragingHandlesOverWideCategoricalPdf) {
  // A tuple whose categorical pdf has more categories than the schema
  // attribute, peaked beyond the node's arity: the pointer traversal sees
  // zero probability on every in-range category and falls back to the
  // uniform distribution; the means fast path must do the same instead of
  // reading past the child table.
  Dataset ds = MixedDataset(100, 13);
  auto model = Trainer().TrainAveraging(ds);
  ASSERT_TRUE(model.ok());

  UncertainTuple wide = ds.tuple(0);
  auto cat = CategoricalPdf::Create({0.01, 0.01, 0.01, 0.01, 0.96});
  ASSERT_TRUE(cat.ok());
  wide.values[1] = UncertainValue::Categorical(std::move(*cat));

  PredictSession session(model->Compile());
  std::vector<double> flat_out = session.ClassifyDistribution(wide);
  std::vector<double> pointer_out = model->ClassifyDistribution(wide);
  EXPECT_TRUE(BytesEqual(flat_out, pointer_out));
}

TEST(PredictSessionTest, PersistentExecutorSpawnsOncePerSession) {
  // The executor v3 guarantee: workers are created at the first
  // multi-threaded batch and reused by every later call — steady-state
  // serving spawns zero threads per PredictBatch.
  Dataset ds = SyntheticDataset(120, 3, 3, 6, 23);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  // Single-threaded batches never build a pool.
  ASSERT_TRUE(session.PredictBatch(ds).ok());
  EXPECT_EQ(session.executor_workers(), 0);

  auto reference = session.PredictBatch(ds);
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE(session.PredictBatch(ds, {.num_threads = 4}).ok());
  EXPECT_EQ(session.executor_workers(), 3);
  // Steady state: many batches of assorted sizes and narrower widths, all
  // on the same three workers.
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(1 + (round * 7) % 40);
    auto batch = session.PredictBatch(
        std::span<const UncertainTuple>(ds.tuples().data(), n),
        {.num_threads = 1 + round % 4});
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(session.executor_workers(), 3) << "round " << round;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          BytesEqual(batch->distributions[i], reference->distributions[i]))
          << "round " << round << " tuple " << i;
    }
  }
  // A wider request grows the pool (once); narrower requests reuse it.
  ASSERT_TRUE(session.PredictBatch(ds, {.num_threads = 8}).ok());
  EXPECT_EQ(session.executor_workers(), 7);
  ASSERT_TRUE(session.PredictBatch(ds, {.num_threads = 2}).ok());
  EXPECT_EQ(session.executor_workers(), 7);
}

TEST(PredictSessionTest, ByteIdenticalAcrossThreadCountsAndBatchSizes) {
  // The acceptance criterion of the executor refactor: every thread count
  // produces byte-identical output to the inline loop. The batch sizes
  // straddle the 8-tuple shard grain (one tuple, a partial chunk, exactly
  // one chunk, one past it, many chunks), so every chunk geometry is run.
  Dataset ds = SyntheticDataset(150, 4, 3, 8, 42);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  FlatBatchResult reference;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(ds.tuples().data(),
                                                      ds.tuples().size()),
                      {.num_threads = 1}, &reference)
                  .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);
  for (int threads : {2, 4, 8}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{150}}) {
      FlatBatchResult flat;
      ASSERT_TRUE(session
                      .PredictBatchInto(
                          std::span<const UncertainTuple>(ds.tuples().data(),
                                                          n),
                          {.num_threads = threads}, &flat)
                      .ok());
      const std::vector<int> labels(reference.labels.begin(),
                                    reference.labels.begin() +
                                        static_cast<std::ptrdiff_t>(n));
      const std::vector<double> distributions(
          reference.distributions.begin(),
          reference.distributions.begin() +
              static_cast<std::ptrdiff_t>(n * k));
      EXPECT_EQ(flat.labels, labels) << "threads " << threads << " n " << n;
      EXPECT_TRUE(BytesEqual(flat.distributions, distributions))
          << "threads " << threads << " n " << n;
    }
  }
}

TEST(PredictSessionTest, NumThreadsUsedReflectsGrainClamping) {
  Dataset ds = SyntheticDataset(64, 2, 2, 6, 9);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  // 8 tuples at the default grain of 8 make one chunk: the batch runs
  // inline and num_threads_used reports that honestly instead of echoing
  // the request.
  auto small = session.PredictBatch(
      std::span<const UncertainTuple>(ds.tuples().data(), 8),
      {.num_threads = 4});
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_threads_used, 1);

  // 64 tuples at grain 8 fan out across the full requested width.
  auto big = session.PredictBatch(ds, {.num_threads = 4});
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->num_threads_used, 4);
}

TEST(PredictSessionTest, SharedCompiledTreeAcrossSessions) {
  // One compiled artifact, many sessions (the per-worker deployment
  // shape): results agree and the artifact is never copied.
  Dataset ds = MixedDataset(80, 3);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  CompiledForest compiled = model->Compile();
  PredictSession a(compiled);
  PredictSession b(compiled);
  EXPECT_EQ(&a.forest().tree(0), &b.forest().tree(0));
  auto ra = a.PredictBatch(ds);
  auto rb = b.PredictBatch(ds, {.num_threads = 2});
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->labels, rb->labels);
}

}  // namespace
}  // namespace udt
