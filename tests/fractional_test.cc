// Tests for fractional tuples (Section 3.2): conditional probabilities,
// working-set partitioning and weight conservation. Partitions are the
// build's own, read from the children's tuples.

#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "pdf/pdf_builder.h"
#include "split/fractional_tuple.h"

namespace udt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Dataset OneAttrDataset() {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  // t0 (A): {0: .25, 1: .25, 2: .25, 3: .25}
  auto p0 = SampledPdf::Create({0, 1, 2, 3}, {1, 1, 1, 1});
  // t1 (B): point mass at 5
  // t2 (B): {2: .5, 8: .5}
  auto p2 = SampledPdf::Create({2, 8}, {1, 1});
  UncertainTuple t0{{UncertainValue::Numerical(*p0)}, 0};
  UncertainTuple t1{{UncertainValue::Numerical(SampledPdf::PointMass(5))}, 1};
  UncertainTuple t2{{UncertainValue::Numerical(*p2)}, 1};
  EXPECT_TRUE(ds.AddTuple(t0).ok());
  EXPECT_TRUE(ds.AddTuple(t1).ok());
  EXPECT_TRUE(ds.AddTuple(t2).ok());
  return ds;
}

// The tuples of `ds`'s root, split on attribute 0 at `z` as a build
// splits a node.
void PartitionRoot(const Dataset& ds, double z, WorkingSet* left,
                   WorkingSet* right) {
  const AttributeIndex index = AttributeIndex::Build(ds);
  NodeSet root = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  NodeSet l, r;
  PartitionNodeSet(ds, index, &root, 0, z, &l, &r);
  *left = std::move(l.tuples);
  *right = std::move(r.tuples);
}

TEST(FractionalTest, RootWorkingSetUnconstrained) {
  Dataset ds = OneAttrDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0].tuple_index, 0);
  EXPECT_DOUBLE_EQ(set[0].weight, 1.0);
  EXPECT_EQ(set[0].lo[0], -kInf);
  EXPECT_EQ(set[0].hi[0], kInf);
  EXPECT_EQ(set[0].category[0], -1);
}

TEST(FractionalTest, ConstrainedMass) {
  auto pdf = SampledPdf::Create({0, 1, 2, 3}, {1, 1, 1, 1});
  ASSERT_TRUE(pdf.ok());
  EXPECT_NEAR(ConstrainedMass(*pdf, -kInf, kInf), 1.0, 1e-12);
  EXPECT_NEAR(ConstrainedMass(*pdf, 0.0, 2.0), 0.5, 1e-12);   // {1,2}
  EXPECT_NEAR(ConstrainedMass(*pdf, -kInf, 1.0), 0.5, 1e-12); // {0,1}
  EXPECT_NEAR(ConstrainedMass(*pdf, 3.0, kInf), 0.0, 1e-12);
}

TEST(FractionalTest, ConditionalCdfRenormalises) {
  auto pdf = SampledPdf::Create({0, 1, 2, 3}, {1, 1, 1, 1});
  ASSERT_TRUE(pdf.ok());
  // Conditioned to (0, 3] = {1,2,3}: P(X <= 1) = 1/3.
  EXPECT_NEAR(ConditionalCdf(*pdf, 0.0, 3.0, 1.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(ConditionalCdf(*pdf, 0.0, 3.0, 2.5), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ConditionalCdf(*pdf, 0.0, 3.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ConditionalCdf(*pdf, 0.0, 3.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(ConditionalCdf(*pdf, 0.0, 3.0, -1.0), 0.0);
}

TEST(FractionalTest, ClassCountsWeighted) {
  Dataset ds = OneAttrDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  set[2].weight = 0.5;
  std::vector<double> counts = ClassCounts(ds, set, 2);
  EXPECT_NEAR(counts[0], 1.0, 1e-12);
  EXPECT_NEAR(counts[1], 1.5, 1e-12);
  EXPECT_NEAR(TotalWeight(set), 2.5, 1e-12);
}

TEST(FractionalTest, PartitionSplitsStraddlingTuples) {
  Dataset ds = OneAttrDataset();
  WorkingSet left, right;
  PartitionRoot(ds, 2.0, &left, &right);

  // t0 straddles (P(<=2) = .75), t1 goes right, t2 straddles (P(<=2) = .5).
  ASSERT_EQ(left.size(), 2u);
  ASSERT_EQ(right.size(), 3u);
  EXPECT_EQ(left[0].tuple_index, 0);
  EXPECT_NEAR(left[0].weight, 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(left[0].hi[0], 2.0);
  EXPECT_EQ(left[1].tuple_index, 2);
  EXPECT_NEAR(left[1].weight, 0.5, 1e-12);

  EXPECT_EQ(right[0].tuple_index, 0);
  EXPECT_NEAR(right[0].weight, 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(right[0].lo[0], 2.0);
  EXPECT_EQ(right[1].tuple_index, 1);
  EXPECT_NEAR(right[1].weight, 1.0, 1e-12);
}

TEST(FractionalTest, PartitionConservesWeight) {
  Dataset ds = OneAttrDataset();
  for (double z : {0.0, 0.5, 1.0, 2.0, 2.5, 5.0, 7.9}) {
    WorkingSet left, right;
    PartitionRoot(ds, z, &left, &right);
    EXPECT_NEAR(TotalWeight(left) + TotalWeight(right), 3.0, 1e-9)
        << "split at " << z;
  }
}

TEST(FractionalTest, RepeatedPartitionUsesConditionalPdf) {
  Dataset ds = OneAttrDataset();
  const AttributeIndex index = AttributeIndex::Build(ds);
  NodeSet root = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  NodeSet left, right;
  PartitionNodeSet(ds, index, &root, 0, 2.0, &left, &right);
  const double left_weight = TotalWeight(left.tuples);
  // Split the left side again at 0: within (  -inf, 2], t0's conditional
  // distribution is {0,1,2} each 1/3 -> P(<=0) = 1/3.
  NodeSet ll, lr;
  PartitionNodeSet(ds, index, &left, 0, 0.0, &ll, &lr);
  ASSERT_FALSE(ll.tuples.empty());
  EXPECT_EQ(ll.tuples[0].tuple_index, 0);
  EXPECT_NEAR(ll.tuples[0].weight, 0.25, 1e-12);  // 0.75 * 1/3
  EXPECT_NEAR(lr.tuples[0].weight, 0.5, 1e-12);   // 0.75 * 2/3
  EXPECT_NEAR(TotalWeight(ll.tuples) + TotalWeight(lr.tuples), left_weight,
              1e-9);
}

TEST(FractionalTest, PartitionAllLeftWhenSplitBeyondSupport) {
  Dataset ds = OneAttrDataset();
  WorkingSet left, right;
  PartitionRoot(ds, 100.0, &left, &right);
  EXPECT_EQ(left.size(), 3u);
  EXPECT_TRUE(right.empty());
}

TEST(FractionalTest, CategoricalPartitionDistributesWeight) {
  auto schema = Schema::Create({{"c", AttributeKind::kCategorical, 3}},
                               {"A", "B"});
  ASSERT_TRUE(schema.ok());
  Dataset ds(*schema);
  auto dist = CategoricalPdf::Create({0.2, 0.3, 0.5});
  ASSERT_TRUE(dist.ok());
  UncertainTuple t{{UncertainValue::Categorical(*dist)}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());

  const AttributeIndex index = AttributeIndex::Build(ds);
  NodeSet set = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  std::vector<NodeSet> buckets;
  PartitionNodeSetCategorical(ds, &set, 0, 3, &buckets);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_NEAR(buckets[0].tuples[0].weight, 0.2, 1e-12);
  EXPECT_NEAR(buckets[1].tuples[0].weight, 0.3, 1e-12);
  EXPECT_NEAR(buckets[2].tuples[0].weight, 0.5, 1e-12);
  // Category becomes fixed in each bucket.
  EXPECT_EQ(buckets[2].tuples[0].category[0], 2);
}

TEST(FractionalTest, CategoricalPartitionRespectsFixedCategory) {
  auto schema = Schema::Create({{"c", AttributeKind::kCategorical, 2}},
                               {"A", "B"});
  ASSERT_TRUE(schema.ok());
  Dataset ds(*schema);
  auto dist = CategoricalPdf::Create({0.5, 0.5});
  ASSERT_TRUE(dist.ok());
  UncertainTuple t{{UncertainValue::Categorical(*dist)}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());

  const AttributeIndex index = AttributeIndex::Build(ds);
  NodeSet set = MakeRootNodeSet(ds, index, MakeRootWorkingSet(ds));
  set.tuples[0].category[0] = 1;  // fixed by a (hypothetical) ancestor
  std::vector<NodeSet> buckets;
  PartitionNodeSetCategorical(ds, &set, 0, 2, &buckets);
  EXPECT_TRUE(buckets[0].tuples.empty());
  ASSERT_EQ(buckets[1].tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[1].tuples[0].weight, 1.0);
}

}  // namespace
}  // namespace udt
