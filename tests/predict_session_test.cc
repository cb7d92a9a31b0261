// The serving API's core guarantee: predictions through the compiled flat
// layout (CompiledForest + PredictSession) are byte-identical to the
// pointer-tree traversal, for every tree the builder-determinism fixtures
// produce (synthetic Gaussian, Japanese-vowel-like, mixed categorical), on
// every split algorithm, for both model kinds, at 1 and 4 threads, through
// every session entry point (contiguous batch, gather batch, single tuple).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
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
bool BytesEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// One batch into a fresh result; the batch is expected to succeed.
FlatBatchResult MustPredict(PredictSession* session,
                            std::span<const UncertainTuple> tuples,
                            const PredictOptions& options = {}) {
  FlatBatchResult out;
  Status status = session->PredictBatchInto(tuples, options, &out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
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
    FlatBatchResult batch = MustPredict(&session, ds.tuples(), options);
    ASSERT_EQ(batch.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(BytesEqual(batch.distribution(i), expected[i]))
          << "tuple " << i << " threads " << threads;
      EXPECT_EQ(batch.labels[i],
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
  FlatBatchResult batch = MustPredict(&session, ds.tuples());

  // The gather form over the same tuples, sharded.
  std::vector<const UncertainTuple*> pointers;
  for (const UncertainTuple& tuple : ds.tuples()) pointers.push_back(&tuple);
  FlatBatchResult gathered;
  ASSERT_TRUE(
      session.PredictBatchInto(pointers, {.num_threads = 4}, &gathered).ok());
  ASSERT_EQ(gathered.labels, batch.labels);
  ASSERT_TRUE(BytesEqual(gathered.distributions, batch.distributions));

  // The single-tuple primitive, interleaved with the batch results.
  std::vector<double> single(static_cast<size_t>(session.num_classes()));
  for (int i = 0; i < ds.num_tuples(); ++i) {
    session.ClassifyInto(ds.tuple(i), single.data());
    EXPECT_TRUE(BytesEqual(single, batch.distribution(static_cast<size_t>(i))))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompiledEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(PredictSessionTest, NegativeThreadCountIsInvalidArgument) {
  Dataset ds = SyntheticDataset(40, 2, 2, 6, 5);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  FlatBatchResult flat;
  for (int threads : {-1, -7}) {
    Status into =
        session.PredictBatchInto(ds.tuples(), {.num_threads = threads}, &flat);
    EXPECT_EQ(into.code(), StatusCode::kInvalidArgument) << threads;
  }
}

TEST(PredictSessionTest, ZeroThreadsResolvesToHardwareConcurrency) {
  Dataset ds = SyntheticDataset(40, 2, 2, 6, 5);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());
  MustPredict(&session, ds.tuples(), {.num_threads = 0});
  // One thread per hardware thread, the caller among them.
  EXPECT_EQ(session.executor_workers(),
            std::min(TaskPool::EffectiveConcurrency(0), ds.num_tuples()) - 1);
}

TEST(PredictSessionTest, SessionIsReusableAcrossBatches) {
  Dataset ds = SyntheticDataset(60, 3, 3, 6, 19);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  FlatBatchResult first = MustPredict(&session, ds.tuples());
  // Warm scratch must not leak state between calls: re-running the same
  // batch (and a sub-batch, and different thread counts) stays identical.
  FlatBatchResult again =
      MustPredict(&session, ds.tuples(), {.num_threads = 3});
  EXPECT_EQ(first.labels, again.labels);
  EXPECT_TRUE(BytesEqual(first.distributions, again.distributions));
  FlatBatchResult sub = MustPredict(
      &session, std::span<const UncertainTuple>(ds.tuples().data(), 10));
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(BytesEqual(sub.distribution(i), first.distribution(i))) << i;
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
  std::vector<double> flat_out(static_cast<size_t>(session.num_classes()));
  session.ClassifyInto(wide, flat_out.data());
  std::vector<double> pointer_out = model->ClassifyDistribution(wide);
  EXPECT_TRUE(BytesEqual(flat_out, pointer_out));
}

TEST(PredictSessionTest, PersistentExecutorSpawnsOncePerSession) {
  // The executor v3 guarantee: workers are created at the first
  // multi-threaded batch and reused by every later call — steady-state
  // serving spawns zero threads per batch.
  Dataset ds = SyntheticDataset(120, 3, 3, 6, 23);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  // Single-threaded batches never build a pool.
  FlatBatchResult reference = MustPredict(&session, ds.tuples());
  EXPECT_EQ(session.executor_workers(), 0);

  MustPredict(&session, ds.tuples(), {.num_threads = 4});
  EXPECT_EQ(session.executor_workers(), 3);
  // Steady state: many batches of assorted sizes and narrower widths, all
  // on the same three workers.
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(1 + (round * 7) % 40);
    FlatBatchResult batch = MustPredict(
        &session, std::span<const UncertainTuple>(ds.tuples().data(), n),
        {.num_threads = 1 + round % 4});
    ASSERT_EQ(session.executor_workers(), 3) << "round " << round;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BytesEqual(batch.distribution(i), reference.distribution(i)))
          << "round " << round << " tuple " << i;
    }
  }
  // A wider request grows the pool (once); narrower requests reuse it.
  MustPredict(&session, ds.tuples(), {.num_threads = 8});
  EXPECT_EQ(session.executor_workers(), 7);
  MustPredict(&session, ds.tuples(), {.num_threads = 2});
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

  FlatBatchResult reference =
      MustPredict(&session, ds.tuples(), {.num_threads = 1});
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

TEST(PredictSessionTest, ExecutorSeatsTheBatchClampedWidth) {
  Dataset ds = SyntheticDataset(64, 2, 2, 6, 9);
  auto model = Trainer().TrainUdt(ds);
  ASSERT_TRUE(model.ok());
  PredictSession session(model->Compile());

  // A one-tuple batch clamps the request to one thread: it runs inline
  // and creates no pool.
  MustPredict(&session, std::span<const UncertainTuple>(ds.tuples().data(), 1),
              {.num_threads = 4});
  EXPECT_EQ(session.executor_workers(), 0);

  // 64 tuples seat the full requested width: the caller plus three
  // workers. (How many of them a small batch wakes is the shard grain's
  // business, covered by ParallelForTest.GrainClampsFanOut.)
  MustPredict(&session, ds.tuples(), {.num_threads = 4});
  EXPECT_EQ(session.executor_workers(), 3);
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
  FlatBatchResult ra = MustPredict(&a, ds.tuples());
  FlatBatchResult rb = MustPredict(&b, ds.tuples(), {.num_threads = 2});
  EXPECT_EQ(ra.labels, rb.labels);
  EXPECT_TRUE(BytesEqual(ra.distributions, rb.distributions));
}

}  // namespace
}  // namespace udt
