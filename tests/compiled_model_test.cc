// A compiled tree (Model::Compile, a one-tree CompiledForest): flattening
// invariants (breadth-first layout, pooled leaf table), and the one load
// path for a servable — the model container, then Compile() — which must
// reproduce the compiled bytes of the model it was saved from.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset NumericDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0), 1.2, 10);
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
          {"channel", AttributeKind::kCategorical, 3},
      },
      {"p", "q"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 2;
    auto pdf = MakeGaussianErrorPdf(
        rng.Gaussian(t.label == 0 ? -1.0 : 1.0, 0.7), 0.9, 8);
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

CompiledForest CompileFresh(const Dataset& ds) {
  auto model = Trainer().TrainUdt(ds);
  UDT_CHECK(model.ok());
  return model->Compile();
}

TEST(FlattenTest, BreadthFirstLayoutInvariants) {
  CompiledForest compiled = CompileFresh(NumericDataset(150, 3, 21));
  const FlatTree& flat = compiled.tree(0);
  ASSERT_GE(flat.num_nodes(), 3);
  EXPECT_EQ(flat.num_classes, 3);
  EXPECT_GT(flat.num_leaves(), 0);

  for (int i = 0; i < flat.num_nodes(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    switch (flat.node_kind(i)) {
      case FlatNodeKind::kLeaf:
        EXPECT_EQ(flat.attribute[ui], -1);
        EXPECT_LE(flat.first[ui] + flat.num_classes,
                  static_cast<int>(flat.leaf_values.size()));
        break;
      case FlatNodeKind::kNumerical:
        // Children are contiguous, later in the array (BFS order).
        EXPECT_GT(flat.first[ui], i);
        EXPECT_LT(flat.first[ui] + 1, flat.num_nodes());
        break;
      case FlatNodeKind::kCategorical:
        EXPECT_GT(flat.num_children[ui], 0);
        break;
    }
  }
}

TEST(FlattenTest, LeafDistributionsArePooled) {
  CompiledForest compiled = CompileFresh(NumericDataset(150, 3, 33));
  const FlatTree& flat = compiled.tree(0);
  // The pool stores at most one entry per leaf, and every leaf offset must
  // point at a whole distribution inside the pool.
  EXPECT_LE(flat.leaf_values.size(),
            static_cast<size_t>(flat.num_leaves()) *
                static_cast<size_t>(flat.num_classes));
  EXPECT_EQ(flat.leaf_values.size() %
                static_cast<size_t>(flat.num_classes),
            0u);
}

TEST(CompiledModelTest, IsAOneTreeAverageForest) {
  CompiledForest compiled = CompileFresh(NumericDataset(60, 2, 5));
  EXPECT_EQ(compiled.num_trees(), 1);
  EXPECT_EQ(compiled.vote(), ForestVote::kAverage);
  EXPECT_EQ(compiled.Serialize().rfind("udt-forest v1\nkind udt\nvote avg\n",
                                       0),
            0u);
}

// A servable is persisted as its model container and compiled after load,
// so the container must determine every compiled byte: reloading the
// model and compiling gives the same artifact as compiling the original.
TEST(CompiledModelTest, ModelContainerDeterminesCompiledBytes) {
  const Dataset ds = MixedDataset(120, 9);
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    const std::string what = ModelKindToString(kind);
    auto tree = Trainer().Train(TrainRequest::For(ds, kind));
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    ASSERT_GT(tree->Compile().num_nodes(), 1) << what;
    auto tree_reloaded = Model::Deserialize(tree->Serialize());
    ASSERT_TRUE(tree_reloaded.ok()) << tree_reloaded.status().ToString();
    EXPECT_EQ(tree_reloaded->Compile().Serialize(),
              tree->Compile().Serialize())
        << what;

    for (ForestVote vote : {ForestVote::kAverage, ForestVote::kMajority}) {
      ForestConfig config;
      config.num_trees = 8;
      config.seed = 17;
      config.subspace_attributes = 1;
      config.vote = vote;
      auto forest =
          ForestTrainer(config).Train(TrainRequest::For(ds, kind));
      ASSERT_TRUE(forest.ok()) << forest.status().ToString();
      ASSERT_EQ(forest->num_trees(), 8);
      auto forest_reloaded = ForestModel::Deserialize(forest->Serialize());
      ASSERT_TRUE(forest_reloaded.ok())
          << forest_reloaded.status().ToString();
      EXPECT_EQ(forest_reloaded->Compile().Serialize(),
                forest->Compile().Serialize())
          << what << " vote=" << ForestVoteToString(vote);
    }
  }
}

}  // namespace
}  // namespace udt
