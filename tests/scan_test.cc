// Tests for AttributeScan and interval segmentation: merged candidate axis,
// cumulative class masses, end points and empty/homogeneous/heterogeneous
// classification (Definitions 2-4).

#include <limits>

#include <gtest/gtest.h>

#include "split/attribute_scan.h"
#include "split/intervals.h"
#include "split_reference.h"

namespace udt {
namespace {

Dataset ThreeTupleDataset() {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  // t0 (A): {0:.5, 2:.5}; t1 (A): point at 4; t2 (B): {6:.5, 8:.5}
  auto p0 = SampledPdf::Create({0, 2}, {1, 1});
  auto p2 = SampledPdf::Create({6, 8}, {1, 1});
  UncertainTuple t0{{UncertainValue::Numerical(*p0)}, 0};
  UncertainTuple t1{{UncertainValue::Numerical(SampledPdf::PointMass(4))}, 0};
  UncertainTuple t2{{UncertainValue::Numerical(*p2)}, 1};
  EXPECT_TRUE(ds.AddTuple(t0).ok());
  EXPECT_TRUE(ds.AddTuple(t1).ok());
  EXPECT_TRUE(ds.AddTuple(t2).ok());
  return ds;
}

TEST(ScanTest, PositionsSortedUnique) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  ASSERT_EQ(scan.num_positions(), 5);
  EXPECT_DOUBLE_EQ(scan.x(0), 0.0);
  EXPECT_DOUBLE_EQ(scan.x(1), 2.0);
  EXPECT_DOUBLE_EQ(scan.x(2), 4.0);
  EXPECT_DOUBLE_EQ(scan.x(3), 6.0);
  EXPECT_DOUBLE_EQ(scan.x(4), 8.0);
}

TEST(ScanTest, CumulativeClassMasses) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  EXPECT_NEAR(scan.CumulativeMass(0, 0), 0.5, 1e-12);   // A mass at 0
  EXPECT_NEAR(scan.CumulativeMass(1, 0), 1.0, 1e-12);   // + mass at 2
  EXPECT_NEAR(scan.CumulativeMass(2, 0), 2.0, 1e-12);   // + t1
  EXPECT_NEAR(scan.CumulativeMass(4, 0), 2.0, 1e-12);
  EXPECT_NEAR(scan.CumulativeMass(2, 1), 0.0, 1e-12);   // B starts at 6
  EXPECT_NEAR(scan.CumulativeMass(3, 1), 0.5, 1e-12);
  EXPECT_NEAR(scan.CumulativeMass(4, 1), 1.0, 1e-12);
  EXPECT_NEAR(scan.total_mass(), 3.0, 1e-12);
}

TEST(ScanTest, LeftRightCounts) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<double> left, right;
  scan.LeftCounts(2, &left);
  scan.RightCounts(2, &right);
  EXPECT_NEAR(left[0], 2.0, 1e-12);
  EXPECT_NEAR(left[1], 0.0, 1e-12);
  EXPECT_NEAR(right[0], 0.0, 1e-12);
  EXPECT_NEAR(right[1], 1.0, 1e-12);
}

TEST(ScanTest, EndpointsAreSupportBoundaries) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  // Boundaries: t0 -> {0, 2}, t1 -> {4}, t2 -> {6, 8}. All distinct.
  const std::vector<int>& eps = scan.endpoint_positions();
  ASSERT_EQ(eps.size(), 5u);
  EXPECT_EQ(eps.front(), 0);
  EXPECT_EQ(eps.back(), 4);
}

TEST(ScanTest, ConstraintsRestrictContribution) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  // Constrain t0 to (0, inf): only its sample at 2 remains, renormalised
  // to carry the tuple's full weight. No build constrains a root, so the
  // lists come from the test reference.
  set[0].lo[0] = 0.0;
  const NodeSet node = GatherNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  ASSERT_EQ(scan.num_positions(), 4);  // 0 is gone
  EXPECT_DOUBLE_EQ(scan.x(0), 2.0);
  EXPECT_NEAR(scan.CumulativeMass(0, 0), 1.0, 1e-12);  // full weight at 2
}

TEST(ScanTest, FractionalWeightsScaleMasses) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  set[2].weight = 0.5;
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  EXPECT_NEAR(scan.class_totals()[1], 0.5, 1e-12);
  EXPECT_NEAR(scan.total_mass(), 2.5, 1e-12);
}

TEST(ScanTest, EmptyWorkingSet) {
  Dataset ds = ThreeTupleDataset();
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet empty = MakeRootNodeSet(ds, index, WorkingSet());
  AttributeScan scan = AttributeScan::Build(ds, index, empty, 0, 2);
  EXPECT_TRUE(scan.empty());
  EXPECT_EQ(scan.num_positions(), 0);
}

TEST(ScanTest, IntervalStatsPartitionTotals) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<double> nc, kc, mc;
  scan.IntervalStats(1, 3, &nc, &kc, &mc);  // interval (2, 6]
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(nc[static_cast<size_t>(c)] + kc[static_cast<size_t>(c)] +
                    mc[static_cast<size_t>(c)],
                scan.class_totals()[static_cast<size_t>(c)], 1e-12);
  }
  EXPECT_NEAR(kc[0], 1.0, 1e-12);  // t1's point at 4
  EXPECT_NEAR(kc[1], 0.5, 1e-12);  // t2's sample at 6
}

TEST(IntervalTest, KindNames) {
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kEmpty), "empty");
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kHomogeneous),
               "homogeneous");
  EXPECT_STREQ(IntervalKindToString(IntervalKind::kHeterogeneous),
               "heterogeneous");
}

TEST(IntervalTest, ClassifyHomogeneousAndHeterogeneous) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  // (0, 2]: only class A mass -> homogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 0, 1), IntervalKind::kHomogeneous);
  // (2, 6]: A mass at 4, B mass at 6 -> heterogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 1, 3), IntervalKind::kHeterogeneous);
  // (6, 8]: only B -> homogeneous.
  EXPECT_EQ(ClassifyInterval(scan, 3, 4), IntervalKind::kHomogeneous);
}

TEST(IntervalTest, SegmentationCoversAxis) {
  Dataset ds = ThreeTupleDataset();
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<EndpointInterval> intervals =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  ASSERT_EQ(intervals.size(), 4u);
  EXPECT_EQ(intervals.front().a_idx, 0);
  EXPECT_EQ(intervals.back().b_idx, scan.num_positions() - 1);
  for (size_t i = 0; i + 1 < intervals.size(); ++i) {
    EXPECT_EQ(intervals[i].b_idx, intervals[i + 1].a_idx);
  }
}

TEST(IntervalTest, PointDataHasNoInteriorCandidates) {
  // With point pdfs every sample is an end point: the classical case where
  // only the observed values are candidates (Section 5.1 analogue).
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 6; ++i) {
    UncertainTuple t{
        {UncertainValue::Numerical(SampledPdf::PointMass(i))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  std::vector<EndpointInterval> intervals =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  for (const EndpointInterval& interval : intervals) {
    EXPECT_EQ(interval.num_interior(), 0);
  }
}

TEST(IntervalTest, NumInterior) {
  EndpointInterval interval;
  interval.a_idx = 3;
  interval.b_idx = 7;
  EXPECT_EQ(interval.num_interior(), 3);
}

}  // namespace
}  // namespace udt
