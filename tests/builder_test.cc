// Tests for TreeBuilder: stopping rules, pre-pruning, fractional recursion,
// determinism and serialisation round trips.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/builder.h"
#include "pdf/pdf_builder.h"
#include "tree/classify.h"
#include "tree/tree_io.h"

namespace udt {
namespace {

Dataset SeparableDataset(int n, double gap, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < n; ++i) {
    int label = i % 2;
    double center = label == 0 ? rng.Uniform(0.0, 1.0)
                               : rng.Uniform(1.0 + gap, 2.0 + gap);
    auto pdf = MakeGaussianErrorPdf(center, 0.4, 12);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, label};
    EXPECT_TRUE(ds.AddTuple(t).ok());
  }
  return ds;
}

TreeConfig BaseConfig(SplitAlgorithm algorithm) {
  TreeConfig config;
  config.algorithm = algorithm;
  config.min_split_weight = 2.0;
  config.post_prune = false;
  return config;
}

TEST(BuilderTest, SeparableDataYieldsPerfectTree) {
  Dataset ds = SeparableDataset(40, 1.0, 3);
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  int correct = 0;
  for (int i = 0; i < ds.num_tuples(); ++i) {
    if (PredictLabel(*tree, ds.tuple(i)) == ds.tuple(i).label) ++correct;
  }
  EXPECT_EQ(correct, ds.num_tuples());
}

TEST(BuilderTest, PureNodeBecomesLeaf) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(double(i)))}, 0};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_NEAR(tree->root().distribution[0], 1.0, 1e-12);
}

TEST(BuilderTest, MaxDepthRespected) {
  Dataset ds = SeparableDataset(60, 0.0, 5);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdtEs);
  config.max_depth = 2;
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->depth(), 3);  // root at depth 1 + two split levels
}

TEST(BuilderTest, MinSplitWeightStopsGrowth) {
  Dataset ds = SeparableDataset(20, 0.2, 7);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.min_split_weight = 1000.0;  // larger than the data set
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
}

TEST(BuilderTest, MinGainStopsUselessSplits) {
  // Identical class mixtures at every value: no split has positive gain.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 12; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(double(i / 2)))},
        i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.min_gain = 1e-6;
  auto tree = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->root().is_leaf());
  EXPECT_NEAR(tree->root().distribution[0], 0.5, 1e-12);
}

TEST(BuilderTest, EmptyDatasetRejected) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  EXPECT_FALSE(tree.ok());
}

// A caller's shared rank index must have been built from the data set
// being trained on; one of another shape is rejected, not read out of
// bounds.
TEST(BuilderTest, MismatchedAttributeIndexRejected) {
  const Dataset ds = SeparableDataset(30, 1.0, 3);
  const TreeBuilder builder(BaseConfig(SplitAlgorithm::kUdt));
  const std::vector<double> weights(30, 1.0);

  // Fewer tuples.
  const AttributeIndex fewer =
      AttributeIndex::Build(SeparableDataset(20, 1.0, 3));
  auto tree = builder.Build(ds, nullptr, &fewer);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  auto weighted = builder.BuildWeighted(ds, weights, nullptr, &fewer);
  ASSERT_FALSE(weighted.ok());
  EXPECT_EQ(weighted.status().code(), StatusCode::kInvalidArgument);

  // Same tuple count, but every pdf has fewer sample points.
  Dataset coarse(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < ds.num_tuples(); ++i) {
    auto pdf = MakeGaussianErrorPdf(static_cast<double>(i), 0.4, 5);
    ASSERT_TRUE(pdf.ok());
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(coarse.AddTuple(t).ok());
  }
  const AttributeIndex fewer_points = AttributeIndex::Build(coarse);
  tree = builder.Build(ds, nullptr, &fewer_points);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument);
  weighted = builder.BuildWeighted(ds, weights, nullptr, &fewer_points);
  ASSERT_FALSE(weighted.ok());
  EXPECT_EQ(weighted.status().code(), StatusCode::kInvalidArgument);

  // The matching index is accepted and builds the same tree as none.
  const AttributeIndex matching = AttributeIndex::Build(ds);
  auto shared = builder.Build(ds, nullptr, &matching);
  auto own = builder.Build(ds, nullptr);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(SerializeTree(*shared), SerializeTree(*own));
}

TEST(BuilderTest, InvalidConfigRejected) {
  Dataset ds = SeparableDataset(10, 1.0, 1);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdt);
  config.max_depth = 0;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
  config = BaseConfig(SplitAlgorithm::kUdt);
  config.split_options.es_endpoint_sample_rate = 0.0;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
  config = BaseConfig(SplitAlgorithm::kUdt);
  config.pruning_confidence = 1.5;
  EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok());
}

// NaN fails every ordered comparison, so each range check must be written
// to reject it; min_gain must be finite.
TEST(BuilderTest, NanConfigFieldsRejected) {
  Dataset ds = SeparableDataset(10, 1.0, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::function<void(TreeConfig*)> poison;
  };
  const std::vector<Case> cases = {
      {"min_split_weight", [&](TreeConfig* c) { c->min_split_weight = nan; }},
      {"min_gain", [&](TreeConfig* c) { c->min_gain = nan; }},
      {"min_gain=inf", [&](TreeConfig* c) { c->min_gain = inf; }},
      {"pruning_confidence",
       [&](TreeConfig* c) { c->pruning_confidence = nan; }},
      {"es_endpoint_sample_rate",
       [&](TreeConfig* c) { c->split_options.es_endpoint_sample_rate = nan; }},
      {"min_side_mass",
       [&](TreeConfig* c) { c->split_options.min_side_mass = nan; }},
  };
  for (const Case& c : cases) {
    TreeConfig config = BaseConfig(SplitAlgorithm::kUdtEs);
    ASSERT_TRUE(config.Validate().ok());
    c.poison(&config);
    EXPECT_FALSE(config.Validate().ok()) << c.field;
    EXPECT_FALSE(TreeBuilder(config).Build(ds, nullptr).ok()) << c.field;
  }
}

TEST(BuilderTest, StatsPopulated) {
  Dataset ds = SeparableDataset(30, 0.5, 11);
  BuildStats stats;
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtGp)).Build(ds, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(stats.nodes, 0);
  EXPECT_GT(stats.leaves, 0);
  EXPECT_GT(stats.counters.dispersion_evaluations, 0);
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_EQ(stats.nodes, tree->num_nodes());  // no post-pruning here
}

TEST(BuilderTest, DeterministicAcrossRuns) {
  Dataset ds = SeparableDataset(30, 0.3, 13);
  TreeConfig config = BaseConfig(SplitAlgorithm::kUdtEs);
  auto tree_a = TreeBuilder(config).Build(ds, nullptr);
  auto tree_b = TreeBuilder(config).Build(ds, nullptr);
  ASSERT_TRUE(tree_a.ok() && tree_b.ok());
  EXPECT_EQ(SerializeTree(*tree_a), SerializeTree(*tree_b));
}

TEST(BuilderTest, FractionalTuplesPropagateWeights) {
  // Every pdf straddles the only sensible split, so the children must see
  // fractional weights; leaf counts must still sum to the data-set size.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 10; ++i) {
    auto pdf = MakeUniformErrorPdf(i % 2 == 0 ? -0.5 : 0.5, 2.0, 16);
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree = TreeBuilder(BaseConfig(SplitAlgorithm::kUdt)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->root().is_leaf());
  double left_total = 0.0, right_total = 0.0;
  for (double c : tree->root().left->class_counts) left_total += c;
  for (double c : tree->root().right->class_counts) right_total += c;
  EXPECT_NEAR(left_total + right_total, 10.0, 1e-6);
  // Fractional: neither side holds an integral count.
  EXPECT_GT(left_total, 0.0);
  EXPECT_GT(right_total, 0.0);
}

TEST(BuilderTest, PostPruningShrinksNoisyTree) {
  // Labels independent of the attribute: any grown structure is noise and
  // pessimistic pruning should collapse (most of) it.
  Rng rng(17);
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 60; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(rng.Uniform01()))},
        rng.Bernoulli(0.5) ? 1 : 0};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  TreeConfig no_prune = BaseConfig(SplitAlgorithm::kUdt);
  no_prune.min_gain = 0.0;
  TreeConfig with_prune = no_prune;
  with_prune.post_prune = true;

  BuildStats stats;
  auto grown = TreeBuilder(no_prune).Build(ds, nullptr);
  auto pruned = TreeBuilder(with_prune).Build(ds, &stats);
  ASSERT_TRUE(grown.ok() && pruned.ok());
  EXPECT_LT(pruned->num_nodes(), grown->num_nodes());
  EXPECT_GT(stats.subtrees_collapsed, 0);
}

TEST(BuilderTest, RoundTripThroughTreeIo) {
  Dataset ds = SeparableDataset(24, 0.4, 19);
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtBp)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  std::string text = SerializeTree(*tree);
  auto parsed = ParseTree(text, ds.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(SerializeTree(*parsed), text);
  // Parsed tree classifies identically.
  for (int i = 0; i < ds.num_tuples(); ++i) {
    EXPECT_EQ(PredictLabel(*parsed, ds.tuple(i)),
              PredictLabel(*tree, ds.tuple(i)));
  }
}

TEST(BuilderTest, MultiAttributePicksInformativeOne) {
  // A1 is noise, A2 separates classes: the root must split A2.
  Rng rng(23);
  Dataset ds(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 30; ++i) {
    int label = i % 2;
    UncertainTuple t;
    t.label = label;
    t.values.push_back(
        UncertainValue::Numerical(SampledPdf::PointMass(rng.Uniform01())));
    t.values.push_back(UncertainValue::Numerical(
        SampledPdf::PointMass(label == 0 ? rng.Uniform(0.0, 1.0)
                                         : rng.Uniform(2.0, 3.0))));
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  auto tree =
      TreeBuilder(BaseConfig(SplitAlgorithm::kUdtLp)).Build(ds, nullptr);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->root().is_leaf());
  EXPECT_EQ(tree->root().attribute, 1);
}

}  // namespace
}  // namespace udt
