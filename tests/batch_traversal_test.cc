// The flat kernels' core guarantee: ClassifyFlatBatch / ClassifyFlatMeans
// and every session batch path routed through them are byte-identical to
// the pointer-tree oracle and to the session's own single-tuple path —
// across batch sizes (1 / 7 / 64), model kinds (UDT / averaging), single
// trees and forests, and serving thread counts (1 / 4). Also the
// explicit-stack traversal regression: a degenerate 200k-deep split chain
// classifies without overflowing the machine stack (both the pointer and
// the flat traversal used to recurse per node).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "common/string_util.h"
#include "pdf/pdf_builder.h"
#include "tree/classify.h"
#include "tree/flat_tree.h"

namespace udt {
namespace {

// Fixture data sets, mirroring tests/predict_session_test.cc.
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

// Numerical + categorical attributes: exercises the categorical frontier
// fan-out and the fixed-category constraint chain.
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
  if (which == "synthetic") return SyntheticDataset(130, 4, 3, 8, 42);
  return MixedDataset(120, 7);
}

bool RowsEqual(const double* a, const double* b, size_t k) {
  return std::memcmp(a, b, k * sizeof(double)) == 0;
}

struct BatchCase {
  const char* dataset;
  ModelKind model_kind;
};

std::string CaseName(const ::testing::TestParamInfo<BatchCase>& info) {
  return std::string(info.param.dataset) +
         (info.param.model_kind == ModelKind::kAveraging ? "_avg" : "_udt");
}

std::vector<BatchCase> AllCases() {
  return {{"synthetic", ModelKind::kUdt},
          {"synthetic", ModelKind::kAveraging},
          {"mixed", ModelKind::kUdt},
          {"mixed", ModelKind::kAveraging}};
}

constexpr size_t kBatchSizes[] = {1, 7, 64};

class BatchTraversalTest : public ::testing::TestWithParam<BatchCase> {};

// Direct kernel matrix: ClassifyFlatBatch (UDT) / ClassifyFlatMeans (AVG)
// over prefixes of the dataset against the pointer-tree oracle, byte for
// byte.
TEST_P(BatchTraversalTest, KernelMatchesPointerOracleByteForByte) {
  const BatchCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).Train(TrainRequest::For(ds, param.model_kind));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  CompiledForest compiled = model->Compile();
  const FlatTree& flat = compiled.tree(0);
  const bool averaging = param.model_kind == ModelKind::kAveraging;
  const size_t k = static_cast<size_t>(flat.num_classes);

  FlatTraversalScratch batch_scratch;
  for (size_t n : kBatchSizes) {
    ASSERT_LE(n, static_cast<size_t>(ds.num_tuples()));
    std::vector<double> batch_rows(n * k);
    std::vector<const UncertainTuple*> tuples(n);
    std::vector<double*> rows(n);
    for (size_t i = 0; i < n; ++i) {
      tuples[i] = &ds.tuple(static_cast<int>(i));
      rows[i] = batch_rows.data() + i * k;
    }
    if (averaging) {
      for (size_t i = 0; i < n; ++i) {
        ClassifyFlatMeans(flat, *tuples[i], &batch_scratch, rows[i]);
      }
    } else {
      ClassifyFlatBatch(flat, tuples.data(), rows.data(), n, &batch_scratch);
    }
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> oracle = model->ClassifyDistribution(*tuples[i]);
      EXPECT_TRUE(RowsEqual(batch_rows.data() + i * k, oracle.data(), k))
          << "oracle mismatch, batch " << n << " row " << i;
    }
  }
}

// Session matrix: PredictBatchInto (contiguous and gather overloads) at 1
// and 4 threads against per-tuple ClassifyInto, byte for byte.
TEST_P(BatchTraversalTest, TreeSessionMatchesScalarByteForByte) {
  const BatchCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).Train(TrainRequest::For(ds, param.model_kind));
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  PredictSession session(model->Compile());
  const size_t k = static_cast<size_t>(session.num_classes());
  std::vector<double> expected(static_cast<size_t>(ds.num_tuples()) * k);
  for (int i = 0; i < ds.num_tuples(); ++i) {
    session.ClassifyInto(ds.tuple(i),
                         expected.data() + static_cast<size_t>(i) * k);
  }

  for (size_t n : kBatchSizes) {
    std::span<const UncertainTuple> span(ds.tuples().data(), n);
    std::vector<const UncertainTuple*> gathered(n);
    for (size_t i = 0; i < n; ++i) gathered[i] = &ds.tuple(static_cast<int>(i));
    for (int threads : {1, 4}) {
      PredictOptions options;
      options.num_threads = threads;
      FlatBatchResult flat_result;
      ASSERT_TRUE(session.PredictBatchInto(span, options, &flat_result).ok());
      FlatBatchResult gather_result;
      ASSERT_TRUE(session
                      .PredictBatchInto(
                          std::span<const UncertainTuple* const>(
                              gathered.data(), gathered.size()),
                          options, &gather_result)
                      .ok());
      for (size_t i = 0; i < n; ++i) {
        const double* want = expected.data() + i * k;
        EXPECT_TRUE(RowsEqual(flat_result.distributions.data() + i * k, want,
                              k))
            << "contiguous, batch " << n << " threads " << threads;
        EXPECT_TRUE(RowsEqual(gather_result.distributions.data() + i * k,
                              want, k))
            << "gather, batch " << n << " threads " << threads;
      }
    }
  }
}

// Forest matrix: both PredictBatchInto overloads over a compiled forest
// against per-tuple ClassifyInto and the pointer-forest oracle, byte for
// byte.
TEST_P(BatchTraversalTest, ForestSessionMatchesScalarByteForByte) {
  const BatchCase& param = GetParam();
  Dataset ds = MakeCaseDataset(param.dataset);

  ForestConfig config;
  config.num_trees = 4;
  config.seed = 99;
  config.tree.algorithm = SplitAlgorithm::kUdtEs;
  auto forest = ForestTrainer(config).Train(TrainRequest::For(ds, param.model_kind));
  ASSERT_TRUE(forest.ok()) << forest.status().message();

  PredictSession session(forest->Compile());
  const size_t k = static_cast<size_t>(session.num_classes());
  std::vector<double> expected(static_cast<size_t>(ds.num_tuples()) * k);
  for (int i = 0; i < ds.num_tuples(); ++i) {
    session.ClassifyInto(ds.tuple(i),
                         expected.data() + static_cast<size_t>(i) * k);
  }

  for (size_t n : kBatchSizes) {
    std::span<const UncertainTuple> span(ds.tuples().data(), n);
    std::vector<const UncertainTuple*> gathered(n);
    for (size_t i = 0; i < n; ++i) gathered[i] = &ds.tuple(static_cast<int>(i));
    for (int threads : {1, 4}) {
      PredictOptions options;
      options.num_threads = threads;
      FlatBatchResult flat_result;
      ASSERT_TRUE(session.PredictBatchInto(span, options, &flat_result).ok());
      FlatBatchResult gather_result;
      ASSERT_TRUE(session
                      .PredictBatchInto(
                          std::span<const UncertainTuple* const>(
                              gathered.data(), gathered.size()),
                          options, &gather_result)
                      .ok());
      for (size_t i = 0; i < n; ++i) {
        const double* want = expected.data() + i * k;
        EXPECT_TRUE(RowsEqual(flat_result.distributions.data() + i * k, want,
                              k))
            << "forest contiguous, batch " << n << " threads " << threads;
        EXPECT_TRUE(RowsEqual(gather_result.distributions.data() + i * k,
                              want, k))
            << "forest gather, batch " << n << " threads " << threads;
        // Oracle: pointer-forest voting.
        std::vector<double> oracle =
            forest->ClassifyDistribution(ds.tuple(static_cast<int>(i)));
        EXPECT_TRUE(RowsEqual(want, oracle.data(), k))
            << "forest oracle, batch " << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, BatchTraversalTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ------------------------------------------------------- deep-tree fix
//
// Before the explicit-stack conversion, every traversal (pointer, flat
// scalar, and any batch built on them) recursed once per node on the
// followed path; a degenerate split chain a few hundred thousand nodes
// deep overflowed the machine stack. The builder never produces such
// trees, but loaded models are untrusted input to the serving stack.

constexpr int kChainDepth = 200000;

// A right-descending chain: node d tests attribute 0 at split d; the left
// child is a leaf, the right child is node d+1. A point mass far above
// every split always carries its full weight right, so the traversal
// walks the entire chain.
DecisionTree MakeDeepChain() {
  auto root = std::make_unique<TreeNode>();
  TreeNode* cur = root.get();
  for (int d = 0; d < kChainDepth; ++d) {
    cur->attribute = 0;
    cur->is_categorical = false;
    cur->split_point = static_cast<double>(d);
    cur->left = std::make_unique<TreeNode>();
    cur->left->MakeLeaf();
    cur->left->distribution = {1.0, 0.0};
    cur->right = std::make_unique<TreeNode>();
    cur = cur->right.get();
  }
  cur->MakeLeaf();
  cur->distribution = {0.25, 0.75};
  return DecisionTree(Schema::Numerical(1, {"c0", "c1"}), std::move(root));
}

// ~TreeNode destroys children recursively too; detach the chain into a
// flat vector so teardown is iterative.
void DismantleChain(DecisionTree* tree) {
  std::vector<std::unique_ptr<TreeNode>> keep;
  keep.reserve(static_cast<size_t>(kChainDepth) + 1);
  TreeNode* cur = tree->mutable_root();
  while (cur != nullptr && cur->right != nullptr) {
    keep.push_back(std::move(cur->right));
    cur = keep.back().get();
  }
}

TEST(DeepTreeTest, ChainTraversalDoesNotOverflowTheStack) {
  DecisionTree tree = MakeDeepChain();

  UncertainTuple tuple;
  tuple.values.push_back(UncertainValue::Numerical(
      SampledPdf::PointMass(static_cast<double>(kChainDepth) + 1.0)));

  // Pointer traversal: full weight reaches the terminal leaf.
  std::vector<double> pointer = ClassifyDistribution(tree, tuple);
  ASSERT_EQ(pointer.size(), 2u);
  EXPECT_DOUBLE_EQ(pointer[0], 0.25);
  EXPECT_DOUBLE_EQ(pointer[1], 0.75);

  // The flat kernel agrees byte for byte.
  FlatTree flat = FlattenTree(tree);
  FlatTraversalScratch batch_scratch;
  std::vector<double> batch_row(2);
  const UncertainTuple* tuples[] = {&tuple};
  double* rows[] = {batch_row.data()};
  ClassifyFlatBatch(flat, tuples, rows, 1, &batch_scratch);
  EXPECT_TRUE(RowsEqual(batch_row.data(), pointer.data(), 2));

  DismantleChain(&tree);
}

}  // namespace
}  // namespace udt
