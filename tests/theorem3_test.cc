// Tests for Theorem 3 (linear-growth interval pruning): detection of
// linear class-mass growth, its use by UDT-BP on uniform pdfs, and the
// safety of the pruning (optimum preserved).

#include <gtest/gtest.h>

#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "split/finders.h"
#include "split/intervals.h"
#include "split/split_finder.h"

namespace udt {
namespace {

// A single tuple with a uniform pdf: its grid is equally spaced with equal
// masses, so every interval of the scan grows linearly.
TEST(LinearGrowthTest, SingleUniformPdfIsLinear) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto pdf = MakeUniformPdf(0.0, 10.0, 50);
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  EXPECT_TRUE(IntervalHasLinearGrowth(scan, 0, scan.num_positions() - 1));
  EXPECT_TRUE(IntervalHasLinearGrowth(scan, 3, 17));
}

TEST(LinearGrowthTest, GaussianPdfIsNotLinear) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto pdf = MakeTruncatedGaussianPdf(5.0, 1.0, 0.0, 10.0, 50);
  ASSERT_TRUE(pdf.ok());
  UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, 0};
  ASSERT_TRUE(ds.AddTuple(t).ok());
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  EXPECT_FALSE(IntervalHasLinearGrowth(scan, 0, scan.num_positions() - 1));
}

TEST(LinearGrowthTest, MisalignedUniformGridsAreNotLinear) {
  // Two interleaved uniform grids of different classes: per-class masses
  // arrive in alternating lumps, so per-class growth is a staircase.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto a = MakeUniformPdf(0.0, 10.0, 20);
  auto b = MakeUniformPdf(0.3, 10.3, 20);
  ASSERT_TRUE(a.ok() && b.ok());
  UncertainTuple ta{{UncertainValue::Numerical(std::move(*a))}, 0};
  UncertainTuple tb{{UncertainValue::Numerical(std::move(*b))}, 1};
  ASSERT_TRUE(ds.AddTuple(ta).ok());
  ASSERT_TRUE(ds.AddTuple(tb).ok());
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  // The overlapping middle region mixes both staircases.
  EXPECT_FALSE(
      IntervalHasLinearGrowth(scan, scan.num_positions() / 3,
                              2 * scan.num_positions() / 3));
}

TEST(LinearGrowthTest, AlignedGridsOfTwoClassesAreLinear) {
  // Identical grids for both classes: combined per-class increments are
  // constant, so the growth is linear even though the interval is
  // heterogeneous - exactly the Theorem 3 situation.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto a = MakeUniformPdf(0.0, 10.0, 20);
  auto b = MakeUniformPdf(0.0, 10.0, 20);
  ASSERT_TRUE(a.ok() && b.ok());
  UncertainTuple ta{{UncertainValue::Numerical(std::move(*a))}, 0};
  UncertainTuple tb{{UncertainValue::Numerical(std::move(*b))}, 1};
  ASSERT_TRUE(ds.AddTuple(ta).ok());
  ASSERT_TRUE(ds.AddTuple(tb).ok());
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  AttributeScan scan = AttributeScan::Build(ds, index, node, 0, 2);
  ASSERT_EQ(ClassifyInterval(scan, 0, scan.num_positions() - 1),
            IntervalKind::kHeterogeneous);
  EXPECT_TRUE(IntervalHasLinearGrowth(scan, 0, scan.num_positions() - 1));
}

// BP must exploit Theorem 3: on data whose heterogeneous intervals grow
// linearly, it skips their interiors and still finds the exhaustive
// optimum.
TEST(Theorem3PruningTest, BpPrunesLinearIntervalsSafely) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  // Tuples of both classes share one uniform grid per support region;
  // class A sits lower, class B higher, with an aligned overlap region.
  auto low_a = MakeUniformPdf(0.0, 8.0, 16);
  auto low_a2 = MakeUniformPdf(0.0, 8.0, 16);
  auto high_b = MakeUniformPdf(4.0, 12.0, 16);
  auto high_b2 = MakeUniformPdf(4.0, 12.0, 16);
  ASSERT_TRUE(low_a.ok() && low_a2.ok() && high_b.ok() && high_b2.ok());
  UncertainTuple t1{{UncertainValue::Numerical(std::move(*low_a))}, 0};
  UncertainTuple t2{{UncertainValue::Numerical(std::move(*low_a2))}, 0};
  UncertainTuple t3{{UncertainValue::Numerical(std::move(*high_b))}, 1};
  UncertainTuple t4{{UncertainValue::Numerical(std::move(*high_b2))}, 1};
  for (UncertainTuple* t : {&t1, &t2, &t3, &t4}) {
    ASSERT_TRUE(ds.AddTuple(*t).ok());
  }

  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kEntropy,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;

  SplitCounters bp_counters;
  SplitCandidate bp = MakeSplitFinder(SplitAlgorithm::kUdtBp)
                          ->FindBestSplit(ds, index, node, scorer, options,
                                          &bp_counters);
  SplitCandidate udt =
      MakeSplitFinder(SplitAlgorithm::kUdt)
          ->FindBestSplit(ds, index, node, scorer, options, nullptr);
  ASSERT_TRUE(bp.valid && udt.valid);
  EXPECT_NEAR(bp.score, udt.score, 1e-9);
  // The aligned 0-8/4-12 grids make the 0-4 and 8-12 regions homogeneous
  // and the aligned 4-8 overlap linear; everything interior is pruned.
  EXPECT_GT(bp_counters.intervals_pruned_linear, 0);
}

TEST(Theorem3PruningTest, GainRatioDoesNotUseLinearPruning) {
  // Theorem 3's concavity argument fails for gain ratio, exactly like
  // Theorem 2; BP must not apply it.
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  auto a = MakeUniformPdf(0.0, 10.0, 12);
  auto b = MakeUniformPdf(0.0, 10.0, 12);
  ASSERT_TRUE(a.ok() && b.ok());
  UncertainTuple ta{{UncertainValue::Numerical(std::move(*a))}, 0};
  UncertainTuple tb{{UncertainValue::Numerical(std::move(*b))}, 1};
  ASSERT_TRUE(ds.AddTuple(ta).ok());
  ASSERT_TRUE(ds.AddTuple(tb).ok());

  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kGainRatio,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitOptions options;
  options.measure = DispersionMeasure::kGainRatio;
  SplitCounters counters;
  MakeSplitFinder(SplitAlgorithm::kUdtBp)
      ->FindBestSplit(ds, index, node, scorer, options, &counters);
  EXPECT_EQ(counters.intervals_pruned_linear, 0);
}

// With every pdf uniform *and aligned*, BP's candidate count approaches the
// 2|S| end points the paper promises for the uniform case.
TEST(Theorem3PruningTest, UniformAlignedDataNeedsOnlyEndpointEvals) {
  Dataset ds(Schema::Numerical(1, {"A", "B"}));
  for (int i = 0; i < 6; ++i) {
    // All supports identical -> one shared grid; classes differ.
    auto pdf = MakeUniformPdf(0.0, 5.0, 40);
    ASSERT_TRUE(pdf.ok());
    UncertainTuple t{{UncertainValue::Numerical(std::move(*pdf))}, i % 2};
    ASSERT_TRUE(ds.AddTuple(t).ok());
  }
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  const NodeSet node = MakeRootNodeSet(ds, index, set);
  SplitScorer scorer(DispersionMeasure::kEntropy,
                     ClassCounts(ds, set, ds.num_classes()));
  SplitCounters counters;
  MakeSplitFinder(SplitAlgorithm::kUdtBp)
      ->FindBestSplit(ds, index, node, scorer, SplitOptions{}, &counters);
  // Shared support: only two end points (first and last grid position) and
  // one linear interval between them -> at most 2 evaluations.
  EXPECT_LE(counters.dispersion_evaluations, 2);
  EXPECT_EQ(counters.intervals_pruned_linear, 1);
}

}  // namespace
}  // namespace udt
