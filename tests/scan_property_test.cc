// Property test of AttributeScan against the construction it replaced:
// gather every (tuple, effective sample point) event in working-set order,
// sort by x, and write one cumulative class-mass row per distinct x. The
// reference below keeps that construction (with a stable sort, the order
// the rank-indexed scan guarantees for tied x values) and the test asserts
// the production scan reproduces it bit for bit — x values, cumulative
// masses, left/right counts and interval statistics at every position
// (checkpoint rows, the positions furthest from one, the last position),
// cursor seeks in any order, and the end-point positions.
//
// Working sets are SplitMix64-seeded: random weights and (lo, hi]
// windows, point masses, pdfs on a coarse shared grid and duplicated
// tuples (so many x values tie), and 2-9 classes.
//
// A second family pins the child scans below the root: a node's children
// get their event lists by filtering the node's own (PartitionNodeSet,
// PartitionNodeSetCategorical), and every list and every scan built from
// it must equal, bit for bit, the gather over the partitioned child
// working set (tests/split_reference.h) — through two levels of splits,
// with straddling tuples, tuples dropped below kMinFractionWeight,
// zero-mass windows, -0.0 and +0.0 sharing a rank, bagged root weights and
// categorical buckets. A third pins the root lists the rank index writes
// to the same gather, and a fourth the rule the filtered lists rest on:
// below a real root, every split child's window holds mass.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/math.h"
#include "common/string_util.h"
#include "common/task_pool.h"
#include "split/attribute_index.h"
#include "split/attribute_scan.h"
#include "split/fractional_tuple.h"
#include "split/intervals.h"
#include "split/split_finder.h"
#include "split_reference.h"

namespace udt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A counter-based SplitMix64 stream: every case is a pure function of its
// seed.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    const uint64_t out = SplitMix64(state_);
    state_ += 0x9E3779B97F4A7C15ULL;
    return out;
  }
  // Uniform in [0, n).
  int Below(int n) {
    return static_cast<int>(Next() % static_cast<uint64_t>(n));
  }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // A point on a coarse grid over [-3, 3], so sample points of different
  // tuples coincide often.
  double GridPoint() { return -3.0 + 0.25 * Below(25); }

 private:
  uint64_t state_;
};

SampledPdf RandomPdf(Stream* rng) {
  switch (rng->Below(4)) {
    case 0:
      return SampledPdf::PointMass(rng->GridPoint());
    case 1: {  // continuous-looking, ties only by duplication
      std::vector<double> points;
      std::vector<double> masses;
      const int n = 1 + rng->Below(12);
      for (int i = 0; i < n; ++i) {
        points.push_back(6.0 * rng->Unit() - 3.0);
        masses.push_back(0.05 + rng->Unit());
      }
      auto pdf = SampledPdf::Create(std::move(points), std::move(masses));
      UDT_CHECK(pdf.ok());
      return *pdf;
    }
    default: {  // on the shared grid: heavy ties across tuples
      std::vector<double> points;
      std::vector<double> masses;
      const int n = 1 + rng->Below(10);
      for (int i = 0; i < n; ++i) {
        points.push_back(rng->GridPoint());
        masses.push_back(0.05 + rng->Unit());
      }
      auto pdf = SampledPdf::Create(std::move(points), std::move(masses));
      UDT_CHECK(pdf.ok());
      return *pdf;
    }
  }
}

// A constraint bound: unconstrained, on the grid (often exactly a sample
// point), or off the grid.
double RandomBound(Stream* rng, double unconstrained) {
  switch (rng->Below(4)) {
    case 0:
    case 1:
      return unconstrained;
    case 2:
      return rng->GridPoint();
    default:
      return 6.0 * rng->Unit() - 3.0;
  }
}

struct Case {
  Dataset data;
  WorkingSet set;
  int num_classes;
};

Case RandomCase(uint64_t seed) {
  Stream rng(seed);
  const int num_classes = 2 + rng.Below(8);
  std::vector<std::string> names;
  for (int c = 0; c < num_classes; ++c) {
    names.push_back(StrFormat("c%d", c));
  }
  Dataset data(Schema::Numerical(1, names));
  const int num_tuples = 1 + rng.Below(90);
  for (int i = 0; i < num_tuples; ++i) {
    UncertainTuple tuple;
    tuple.label = rng.Below(num_classes);
    if (i > 0 && rng.Below(4) == 0) {
      // A duplicate of an earlier tuple's pdf, maybe with another label.
      tuple.values.push_back(data.tuple(rng.Below(i)).values[0]);
    } else {
      tuple.values.push_back(UncertainValue::Numerical(RandomPdf(&rng)));
    }
    UDT_CHECK(data.AddTuple(std::move(tuple)).ok());
  }

  WorkingSet set;
  for (int i = 0; i < num_tuples; ++i) {
    // Some tuples split into several fragments, some drop out.
    const int fragments = rng.Below(3);
    for (int f = 0; f < fragments; ++f) {
      FractionalTuple ft;
      ft.tuple_index = rng.Below(num_tuples);
      ft.weight = rng.Below(5) == 0 ? 1.0 : 0.01 + 2.0 * rng.Unit();
      double lo = RandomBound(&rng, -kInf);
      double hi = RandomBound(&rng, kInf);
      if (lo > hi) std::swap(lo, hi);
      ft.lo = {lo};
      ft.hi = {hi};
      ft.category = {-1};
      set.push_back(std::move(ft));
    }
  }
  return Case{std::move(data), std::move(set), num_classes};
}

// The sort-based construction: x values, a full cumulative row per
// position, and support boundaries mapped to positions.
struct ReferenceScan {
  std::vector<double> xs;
  std::vector<std::vector<double>> rows;
  std::vector<int> endpoints;
};

ReferenceScan BuildReference(const Case& c) {
  struct Event {
    double x;
    int cls;
    double mass;
  };
  std::vector<Event> events;
  std::vector<double> boundaries;
  for (const FractionalTuple& ft : c.set) {
    const UncertainTuple& tuple = c.data.tuple(ft.tuple_index);
    const SampledPdf& pdf = tuple.values[0].pdf();
    const double constrained = ConstrainedMass(pdf, ft.lo[0], ft.hi[0]);
    if (constrained <= 0.0) continue;
    const double scale = ft.weight / constrained;
    bool any = false;
    double last = 0.0;
    for (int p = pdf.FirstPointAbove(ft.lo[0]); p < pdf.num_points(); ++p) {
      const double x = pdf.point(p);
      if (x > ft.hi[0]) break;
      events.push_back(Event{x, tuple.label, pdf.mass(p) * scale});
      if (!any) boundaries.push_back(x);
      any = true;
      last = x;
    }
    if (any) boundaries.push_back(last);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.x < b.x; });

  ReferenceScan ref;
  std::vector<double> running(static_cast<size_t>(c.num_classes), 0.0);
  for (size_t e = 0; e < events.size();) {
    const double x = events[e].x;
    for (; e < events.size() && events[e].x == x; ++e) {
      running[static_cast<size_t>(events[e].cls)] += events[e].mass;
    }
    ref.xs.push_back(x);
    ref.rows.push_back(running);
  }
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  for (double b : boundaries) {
    ref.endpoints.push_back(static_cast<int>(
        std::lower_bound(ref.xs.begin(), ref.xs.end(), b) - ref.xs.begin()));
  }
  return ref;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Bitwise equality of two class-mass rows.
void ExpectRowsIdentical(const std::vector<double>& got,
                         const std::vector<double>& want, const char* what,
                         int idx) {
  ASSERT_EQ(got.size(), want.size()) << what << " idx=" << idx;
  for (size_t c = 0; c < want.size(); ++c) {
    ASSERT_EQ(Bits(got[c]), Bits(want[c]))
        << what << " idx=" << idx << " class=" << c << " got=" << got[c]
        << " want=" << want[c];
  }
}

std::vector<double> ReferenceRight(const ReferenceScan& ref, int idx) {
  const std::vector<double>& totals = ref.rows.back();
  std::vector<double> right(totals.size());
  for (size_t c = 0; c < totals.size(); ++c) {
    const double v = totals[c] - ref.rows[static_cast<size_t>(idx)][c];
    right[c] = v > 0.0 ? v : 0.0;
  }
  return right;
}

void CheckIntervalStats(const AttributeScan& scan, const ReferenceScan& ref,
                        int a, int b) {
  std::vector<double> nc, kc, mc;
  scan.IntervalStats(a, b, &nc, &kc, &mc);
  const std::vector<double>& at_a = ref.rows[static_cast<size_t>(a)];
  const std::vector<double>& at_b = ref.rows[static_cast<size_t>(b)];
  const std::vector<double>& totals = ref.rows.back();
  std::vector<double> want_k(at_a.size()), want_m(at_a.size());
  for (size_t c = 0; c < at_a.size(); ++c) {
    const double k = at_b[c] - at_a[c];
    want_k[c] = k > 0.0 ? k : 0.0;
    const double m = totals[c] - at_b[c];
    want_m[c] = m > 0.0 ? m : 0.0;
  }
  ExpectRowsIdentical(nc, at_a, "IntervalStats nc", a);
  ExpectRowsIdentical(kc, want_k, "IntervalStats kc", b);
  ExpectRowsIdentical(mc, want_m, "IntervalStats mc", b);
}

// The interval kinds the scan records while it is built are the ones a
// sweep over its end points' rows finds.
void ExpectIntervalsMatchSweep(const AttributeScan& scan) {
  const std::vector<EndpointInterval> recorded = EndpointIntervals(scan);
  const std::vector<EndpointInterval> swept =
      SegmentIntoIntervals(scan, scan.endpoint_positions());
  ASSERT_EQ(recorded.size(), swept.size());
  for (size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(recorded[i].a_idx, swept[i].a_idx) << "interval " << i;
    EXPECT_EQ(recorded[i].b_idx, swept[i].b_idx) << "interval " << i;
    EXPECT_EQ(recorded[i].kind, swept[i].kind) << "interval " << i;
  }
}

void CheckCase(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const Case c = RandomCase(seed);
  const AttributeIndex index = AttributeIndex::Build(c.data);
  const NodeSet node = GatherNodeSet(c.data, index, c.set);
  const AttributeScan scan =
      AttributeScan::Build(c.data, index, node, 0, c.num_classes);
  const ReferenceScan ref = BuildReference(c);

  ASSERT_EQ(scan.num_positions(), static_cast<int>(ref.xs.size()));
  if (ref.xs.empty()) {
    EXPECT_TRUE(scan.empty());
    return;
  }
  const int n = scan.num_positions();
  EXPECT_EQ(scan.endpoint_positions(), ref.endpoints);
  ExpectIntervalsMatchSweep(scan);
  ExpectRowsIdentical(scan.class_totals(), ref.rows.back(), "totals", n - 1);

  std::vector<double> left, right;
  for (int idx = 0; idx < n; ++idx) {
    ASSERT_EQ(Bits(scan.x(idx)), Bits(ref.xs[static_cast<size_t>(idx)]))
        << "idx=" << idx;
    const std::vector<double>& want = ref.rows[static_cast<size_t>(idx)];
    for (int cls = 0; cls < c.num_classes; ++cls) {
      ASSERT_EQ(Bits(scan.CumulativeMass(idx, cls)),
                Bits(want[static_cast<size_t>(cls)]))
          << "CumulativeMass idx=" << idx << " class=" << cls;
    }
    scan.LeftCounts(idx, &left);
    ExpectRowsIdentical(left, want, "LeftCounts", idx);
    scan.RightCounts(idx, &right);
    ExpectRowsIdentical(right, ReferenceRight(ref, idx), "RightCounts", idx);
  }

  // Interval statistics between consecutive end points and across
  // checkpoint edges: idx % kCheckpoint of 0 and kCheckpoint-1, and the
  // last position.
  const std::vector<int>& eps = scan.endpoint_positions();
  for (size_t i = 0; i + 1 < eps.size(); ++i) {
    CheckIntervalStats(scan, ref, eps[i], eps[i + 1]);
  }
  constexpr int kEdge = AttributeScan::kCheckpoint;
  for (int a = 0; a < n; ++a) {
    for (int b : {a + 1, a + kEdge - 1, a + kEdge, n - 1}) {
      if (b > a && b < n) CheckIntervalStats(scan, ref, a, b);
    }
  }

  // Cursor: an ascending sweep, then random seeks in both directions.
  ScanCursor cursor;
  for (int idx = 0; idx < n; ++idx) {
    ExpectRowsIdentical(cursor.Seek(scan, idx),
                        ref.rows[static_cast<size_t>(idx)], "sweep", idx);
  }
  Stream rng(seed ^ 0xC0FFEEULL);
  for (int i = 0; i < 4 * n; ++i) {
    const int idx = rng.Below(n);
    ExpectRowsIdentical(cursor.Seek(scan, idx),
                        ref.rows[static_cast<size_t>(idx)], "seek", idx);
  }
}

TEST(ScanPropertyTest, MatchesSortBasedReferenceBitwise) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    CheckCase(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Every checkpoint edge is exercised: with enough positions the scan
// holds rows at idx % kCheckpoint == 0 and replays up to kCheckpoint-1
// positions after each.
TEST(ScanPropertyTest, LongScansCrossManyCheckpoints) {
  for (uint64_t seed = 1000; seed < 1400; ++seed) {
    const Case c = RandomCase(seed);
    if (c.set.size() < 60) continue;
    CheckCase(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Filtered child lists against the gather.

// Two or three numerical attributes and, in half the cases, one
// categorical attribute with three categories.
struct NodeCase {
  Dataset data;
  WorkingSet set;
  int num_classes;
};

// A sample point that is sometimes -0.0 or +0.0, so the two zeros meet on
// one rank.
double SignedZeroGridPoint(Stream* rng) {
  switch (rng->Below(8)) {
    case 0:
      return -0.0;
    case 1:
      return 0.0;
    default:
      return rng->GridPoint();
  }
}

SampledPdf RandomNodePdf(Stream* rng) {
  if (rng->Below(4) != 0) return RandomPdf(rng);
  std::vector<double> points;
  std::vector<double> masses;
  const int n = 1 + rng->Below(8);
  for (int i = 0; i < n; ++i) {
    points.push_back(SignedZeroGridPoint(rng));
    masses.push_back(0.05 + rng->Unit());
  }
  auto pdf = SampledPdf::Create(std::move(points), std::move(masses));
  UDT_CHECK(pdf.ok());
  return *pdf;
}

NodeCase RandomNodeCase(uint64_t seed) {
  Stream rng(seed);
  const int num_classes = 2 + rng.Below(5);
  const int num_numerical = 2 + rng.Below(2);
  const bool categorical = rng.Below(2) == 0;
  std::vector<AttributeInfo> attributes;
  for (int j = 0; j < num_numerical; ++j) {
    attributes.push_back({StrFormat("x%d", j), AttributeKind::kNumerical, 0});
  }
  if (categorical) {
    attributes.push_back({"channel", AttributeKind::kCategorical, 3});
  }
  std::vector<std::string> names;
  for (int c = 0; c < num_classes; ++c) names.push_back(StrFormat("c%d", c));
  auto schema = Schema::Create(attributes, names);
  UDT_CHECK(schema.ok());
  Dataset data(std::move(*schema));
  const int num_attributes = data.num_attributes();

  const int num_tuples = 1 + rng.Below(70);
  for (int i = 0; i < num_tuples; ++i) {
    UncertainTuple tuple;
    tuple.label = rng.Below(num_classes);
    for (int j = 0; j < num_numerical; ++j) {
      if (i > 0 && rng.Below(4) == 0) {
        tuple.values.push_back(data.tuple(rng.Below(i)).values[
            static_cast<size_t>(j)]);
      } else {
        tuple.values.push_back(UncertainValue::Numerical(RandomNodePdf(&rng)));
      }
    }
    if (categorical) {
      std::vector<double> probs = {0.05 + rng.Unit(), 0.05 + rng.Unit(),
                                   rng.Below(3) == 0 ? 0.0 : rng.Unit()};
      auto dist = CategoricalPdf::Create(std::move(probs));
      UDT_CHECK(dist.ok());
      tuple.values.push_back(UncertainValue::Categorical(std::move(*dist)));
    }
    UDT_CHECK(data.AddTuple(std::move(tuple)).ok());
  }

  // Only attribute 0, and only in half the cases, keeps windows that hold
  // no mass: ConditionalCdf requires mass on the split attribute, so the
  // other attributes are the ones split on.
  const bool empty_windows = rng.Below(2) == 0;
  WorkingSet set;
  if (rng.Below(4) == 0) {
    // A bagged root: integer multiplicities, some tuples never drawn.
    std::vector<double> weights(static_cast<size_t>(num_tuples));
    for (double& w : weights) w = static_cast<double>(rng.Below(4));
    weights[0] = 1.0;
    set = MakeWeightedRootWorkingSet(data, weights);
  } else {
    for (int i = 0; i < num_tuples; ++i) {
      const int fragments = rng.Below(3);
      for (int f = 0; f < fragments; ++f) {
        FractionalTuple ft;
        ft.tuple_index = rng.Below(num_tuples);
        switch (rng.Below(6)) {
          case 0:
            ft.weight = 1.0;
            break;
          case 1:  // so light that a split side drops below the threshold
            ft.weight = kMinFractionWeight * (1.0 + 4.0 * rng.Unit());
            break;
          default:
            ft.weight = 0.01 + 2.0 * rng.Unit();
        }
        ft.lo.assign(static_cast<size_t>(num_attributes), -kInf);
        ft.hi.assign(static_cast<size_t>(num_attributes), kInf);
        ft.category.assign(static_cast<size_t>(num_attributes), -1);
        for (int j = 0; j < num_numerical; ++j) {
          // Windows between grid points hold no mass at all.
          double lo = RandomBound(&rng, -kInf);
          double hi = RandomBound(&rng, kInf);
          if (lo > hi) std::swap(lo, hi);
          const SampledPdf& pdf =
              data.tuple(ft.tuple_index).values[static_cast<size_t>(j)].pdf();
          if ((j != 0 || !empty_windows) &&
              ConstrainedMass(pdf, lo, hi) <= 0.0) {
            lo = -kInf;
            hi = kInf;
          }
          ft.lo[static_cast<size_t>(j)] = lo;
          ft.hi[static_cast<size_t>(j)] = hi;
        }
        if (categorical && rng.Below(3) == 0) {
          ft.category[static_cast<size_t>(num_numerical)] = rng.Below(3);
        }
        set.push_back(std::move(ft));
      }
    }
  }
  return NodeCase{std::move(data), std::move(set), num_classes};
}

bool IsNumerical(const Dataset& data, int j) {
  return data.schema().attribute(j).kind == AttributeKind::kNumerical;
}

// Bitwise equality of two event lists.
void ExpectListsIdentical(const AttributeEvents& got,
                          const AttributeEvents& want) {
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t e = 0; e < want.events.size(); ++e) {
    ASSERT_EQ(got.events[e].rank, want.events[e].rank) << "event " << e;
    ASSERT_EQ(got.events[e].tag, want.events[e].tag) << "event " << e;
    ASSERT_EQ(Bits(got.events[e].mass), Bits(want.events[e].mass))
        << "event " << e;
  }
  ASSERT_EQ(got.window_size, want.window_size);
  ASSERT_EQ(got.window_mass.size(), want.window_mass.size());
  for (size_t f = 0; f < want.window_mass.size(); ++f) {
    ASSERT_EQ(Bits(got.window_mass[f]), Bits(want.window_mass[f]))
        << "tuple " << f;
  }
}

// Bitwise equality of two scans through their whole interface.
void ExpectScansIdentical(const AttributeScan& got, const AttributeScan& want,
                          uint64_t seed) {
  ASSERT_EQ(got.num_positions(), want.num_positions());
  ASSERT_EQ(got.endpoint_positions(), want.endpoint_positions());
  const int n = want.num_positions();
  if (n == 0) return;
  ExpectRowsIdentical(got.class_totals(), want.class_totals(), "totals",
                      n - 1);
  ASSERT_EQ(Bits(got.total_mass()), Bits(want.total_mass()));
  std::vector<double> got_row, want_row;
  ScanCursor cursor;
  for (int idx = 0; idx < n; ++idx) {
    ASSERT_EQ(Bits(got.x(idx)), Bits(want.x(idx))) << "idx=" << idx;
    got.LeftCounts(idx, &got_row);
    want.LeftCounts(idx, &want_row);
    ExpectRowsIdentical(got_row, want_row, "LeftCounts", idx);
    ExpectRowsIdentical(cursor.Seek(got, idx), want_row, "sweep", idx);
  }
  Stream rng(seed ^ 0xF117E5ULL);
  for (int i = 0; i < 2 * n; ++i) {
    const int idx = rng.Below(n);
    want.LeftCounts(idx, &want_row);
    ExpectRowsIdentical(cursor.Seek(got, idx), want_row, "seek", idx);
  }
}

// Every numerical list of `node` is the gather over its tuples, and so is
// every scan compressed from it.
void ExpectMatchesGather(const NodeCase& c, const AttributeIndex& index,
                         const NodeSet& node, uint64_t seed) {
  ASSERT_EQ(node.lists.size(), static_cast<size_t>(c.data.num_attributes()));
  const NodeSet gathered = GatherNodeSet(c.data, index, node.tuples);
  for (int j = 0; j < c.data.num_attributes(); ++j) {
    if (!IsNumerical(c.data, j)) continue;
    SCOPED_TRACE("attribute " + std::to_string(j));
    ExpectListsIdentical(node.lists[static_cast<size_t>(j)],
                         gathered.lists[static_cast<size_t>(j)]);
    if (::testing::Test::HasFatalFailure()) return;
    const AttributeScan filtered =
        AttributeScan::Build(c.data, index, node, j, c.num_classes);
    ExpectScansIdentical(
        filtered,
        AttributeScan::Build(c.data, index, gathered, j, c.num_classes),
        seed);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectIntervalsMatchSweep(filtered);
  }
}

// A split point on attribute j: a sample x of the node (its left side is
// then a prefix of whole ranks), a point between the grid's values, or a
// signed zero.
double RandomSplitPoint(const NodeCase& c, const AttributeIndex& index,
                        const NodeSet& node, int j, Stream* rng) {
  switch (rng->Below(5)) {
    case 0:
      return rng->Below(2) == 0 ? -0.0 : 0.0;
    case 1:
      return 6.0 * rng->Unit() - 3.0;
    default: {
      const AttributeScan scan =
          AttributeScan::Build(c.data, index, node, j, c.num_classes);
      if (scan.empty()) return rng->GridPoint();
      return scan.x(rng->Below(scan.num_positions()));
    }
  }
}

// Splits `node` (consuming its lists) at a random attribute and point,
// checks both children against the gather, and recurses `depth` more
// levels. Pooled and serial partitions must agree. A numerical split
// attribute holds mass in every tuple's window (ConditionalCdf's
// contract).
// The attributes `node` may split on: categorical ones, and numerical ones
// on which every tuple's window holds mass.
std::vector<int> SplittableAttributes(const NodeCase& c, const NodeSet& node) {
  std::vector<int> splittable;
  for (int a = 0; a < c.data.num_attributes(); ++a) {
    const std::vector<uint32_t>& sizes =
        node.lists[static_cast<size_t>(a)].window_size;
    if (!IsNumerical(c.data, a) ||
        std::find(sizes.begin(), sizes.end(), 0u) == sizes.end()) {
      splittable.push_back(a);
    }
  }
  return splittable;
}

// PartitionNodeSet of `tuples` alone: a node without lists gives its
// children none, so only the tuples are partitioned.
void PartitionTuplesAlone(const NodeCase& c, const AttributeIndex& index,
                          const WorkingSet& tuples, int j, double z,
                          WorkingSet* left, WorkingSet* right) {
  NodeSet alone{tuples, {}};
  NodeSet l, r;
  PartitionNodeSet(c.data, index, &alone, j, z, &l, &r);
  *left = std::move(l.tuples);
  *right = std::move(r.tuples);
}

void SplitAndCheck(const NodeCase& c, const AttributeIndex& index,
                   NodeSet node, int depth, Stream* rng, TaskPool* pool,
                   uint64_t seed) {
  const std::vector<int> splittable = SplittableAttributes(c, node);
  if (node.tuples.empty() || splittable.empty()) return;
  const int j = splittable[static_cast<size_t>(
      rng->Below(static_cast<int>(splittable.size())))];
  SCOPED_TRACE("split attribute " + std::to_string(j));
  const WorkingSet parent = node.tuples;
  std::vector<NodeSet> children;
  if (IsNumerical(c.data, j)) {
    const double z = RandomSplitPoint(c, index, node, j, rng);
    NodeSet serial_node = node;
    NodeSet left, right, pooled_left, pooled_right;
    PartitionNodeSet(c.data, index, &serial_node, j, z, &left, &right);
    PartitionNodeSet(c.data, index, &node, j, z, &pooled_left, &pooled_right,
                     pool);
    // The lists do not change the tuples: they are the tuples alone,
    // partitioned.
    WorkingSet want_left, want_right;
    PartitionTuplesAlone(c, index, parent, j, z, &want_left, &want_right);
    ASSERT_EQ(left.tuples.size(), want_left.size());
    ASSERT_EQ(right.tuples.size(), want_right.size());
    for (const NodeSet* pooled : {&pooled_left, &pooled_right}) {
      const NodeSet& serial = pooled == &pooled_left ? left : right;
      for (size_t a = 0; a < serial.lists.size(); ++a) {
        ExpectListsIdentical(pooled->lists[a], serial.lists[a]);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // The parent's lists are released.
    for (const AttributeEvents& list : node.lists) {
      EXPECT_TRUE(list.events.empty());
    }
    children.push_back(std::move(left));
    children.push_back(std::move(right));
  } else {
    const int num_categories = c.data.schema().attribute(j).num_categories;
    PartitionNodeSetCategorical(c.data, &node, j, num_categories, &children,
                                pool);
    NodeSet alone{parent, {}};  // no lists: only the tuples are partitioned
    std::vector<NodeSet> want;
    PartitionNodeSetCategorical(c.data, &alone, j, num_categories, &want);
    ASSERT_EQ(children.size(), want.size());
    for (size_t v = 0; v < want.size(); ++v) {
      ASSERT_EQ(children[v].tuples.size(), want[v].tuples.size());
    }
  }
  for (size_t b = 0; b < children.size(); ++b) {
    SCOPED_TRACE("child " + std::to_string(b));
    ExpectMatchesGather(c, index, children[b], seed);
    if (::testing::Test::HasFatalFailure()) return;
    if (depth > 0) {
      SplitAndCheck(c, index, std::move(children[b]), depth - 1, rng, pool,
                    seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ChildScanPropertyTest, FilteredListsMatchGatherBitwise) {
  TaskPool pool(3);
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NodeCase c = RandomNodeCase(seed);
    const AttributeIndex index = AttributeIndex::Build(c.data);
    NodeSet root = GatherNodeSet(c.data, index, c.set, &pool);
    ExpectMatchesGather(c, index, root, seed);
    if (::testing::Test::HasFatalFailure()) return;
    Stream rng(seed * 0x9E3779B97F4A7C15ULL);
    SplitAndCheck(c, index, std::move(root), /*depth=*/2, &rng, &pool, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A pdf whose cumulative row rounds above its forced final 1.0 (two tail
// masses below an ulp): cumulative = {.., .., 1.0, 1.0 + ulp, 1.0}.
SampledPdf DipPdf() {
  auto dip = SampledPdf::Create(
      {0.0, 1.0, 2.0, 3.0, 4.0},
      {0x1.9495d1c0d5311p-1, 0x1.91f1cb18ce1afp-2, 0x1.0f53f16c838fdp-1,
       0x1.79ca10c924223p-67, 0x1.79ca10c924223p-67});
  UDT_CHECK(dip.ok());
  UDT_CHECK(dip->cumulative_data()[3] > dip->cumulative_data()[4]);
  return *dip;
}

// A parent that breaks PartitionNodeSet's rule, built by hand: tuple 0
// carries the dip pdf constrained to (2.5, inf), which holds no mass, so
// the parent list has none of its events; split at 3.5, its left window
// (2.5, 3.5] holds the ulp at x = 3. No build makes such a parent. The
// partition aborts rather than list the child: ConditionalCdf's mass check
// in debug builds, CutEvents' event count in release builds.
TEST(ChildScanDeathTest, ChildWindowWithMassTheParentLacked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Dataset data(Schema::Numerical(2, {"A", "B"}));
  for (int i = 0; i < 6; ++i) {
    UncertainTuple tuple;
    tuple.label = i % 2;
    tuple.values.push_back(UncertainValue::Numerical(
        i == 0 ? DipPdf() : SampledPdf::PointMass(0.5 * i)));
    tuple.values.push_back(
        UncertainValue::Numerical(SampledPdf::PointMass(-0.25 * i)));
    ASSERT_TRUE(data.AddTuple(std::move(tuple)).ok());
  }
  WorkingSet set = MakeRootWorkingSet(data);
  set[0].lo[0] = 2.5;
  const AttributeIndex index = AttributeIndex::Build(data);
  NodeSet node = GatherNodeSet(data, index, set);
  ASSERT_EQ(node.lists[0].window_size[0], 0u);
  const auto partition = [&] {
    NodeSet left, right;
    PartitionNodeSet(data, index, &node, 0, 3.5, &left, &right);
  };
  EXPECT_DEATH(partition(), "CHECK failed.*(eval.mass > 0.0|n == total)");
}

// Checks that every numerical window of every tuple of `node` holds mass,
// that its lists are the gather's, and splits it (consuming its lists) on
// a random attribute — numerical ones at the dip's tail points 3.0, 3.5
// and 4.0 among others — recursing `depth` more levels.
void SplitKeepsWindowMass(const NodeCase& c, const AttributeIndex& index,
                          NodeSet node, int depth, Stream* rng,
                          uint64_t seed) {
  ASSERT_EQ(node.lists.size(), static_cast<size_t>(c.data.num_attributes()));
  for (int j = 0; j < c.data.num_attributes(); ++j) {
    if (!IsNumerical(c.data, j)) continue;
    const AttributeEvents& list = node.lists[static_cast<size_t>(j)];
    ASSERT_EQ(list.window_size.size(), node.tuples.size());
    for (size_t f = 0; f < node.tuples.size(); ++f) {
      ASSERT_GT(list.window_size[f], 0u)
          << "attribute " << j << " tuple " << f << " depth " << depth;
    }
  }
  ExpectMatchesGather(c, index, node, seed);
  if (depth == 0 || node.tuples.empty() ||
      ::testing::Test::HasFatalFailure()) {
    return;
  }
  const int j = rng->Below(c.data.num_attributes());
  std::vector<NodeSet> children;
  if (IsNumerical(c.data, j)) {
    const double tails[] = {3.0, 3.5, 4.0};
    const double z = rng->Below(2) == 0
                         ? tails[rng->Below(3)]
                         : RandomSplitPoint(c, index, node, j, rng);
    children.resize(2);
    PartitionNodeSet(c.data, index, &node, j, z, &children[0], &children[1]);
  } else {
    PartitionNodeSetCategorical(c.data, &node, j, 3, &children);
  }
  for (size_t b = 0; b < children.size(); ++b) {
    SCOPED_TRACE("child " + std::to_string(b));
    SplitKeepsWindowMass(c, index, std::move(children[b]), depth - 1, rng,
                         seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The rule that lets a child's list on the split attribute be cut from
// its parent's: below a real root — MakeRootNodeSet, TakeRootNodeSet or a
// bag — every window of every listed node holds mass, through three
// levels of numerical and categorical splits. A quarter of the pdfs are
// the dip of ChildWindowWithMassTheParentLacked, whose tail points take
// the numerical splits half the time.
TEST(ChildScanPropertyTest, SplitChildrenKeepWindowMass) {
  const SampledPdf dip = DipPdf();
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NodeCase base = RandomNodeCase(seed);
    Stream rng(seed ^ 0xD1BULL);
    Dataset data(base.data.schema());
    for (int t = 0; t < base.data.num_tuples(); ++t) {
      UncertainTuple tuple = base.data.tuple(t);
      for (int j = 0; j < data.num_attributes(); ++j) {
        if (IsNumerical(data, j) && rng.Below(4) == 0) {
          tuple.values[static_cast<size_t>(j)] =
              UncertainValue::Numerical(dip);
        }
      }
      ASSERT_TRUE(data.AddTuple(std::move(tuple)).ok());
    }
    const NodeCase c{std::move(data), WorkingSet(), base.num_classes};
    const AttributeIndex shared = AttributeIndex::Build(c.data);
    std::vector<double> weights(static_cast<size_t>(c.data.num_tuples()));
    for (double& w : weights) w = static_cast<double>(rng.Below(4));
    weights[0] = 3.0;
    for (int r = 0; r < 3; ++r) {
      SCOPED_TRACE("root " + std::to_string(r));
      AttributeIndex owned = AttributeIndex::Build(c.data);
      NodeSet root =
          r == 0 ? MakeRootNodeSet(c.data, shared, MakeRootWorkingSet(c.data))
          : r == 1
              ? TakeRootNodeSet(c.data, &owned, MakeRootWorkingSet(c.data))
              : MakeRootNodeSet(c.data, shared,
                                MakeWeightedRootWorkingSet(c.data, weights));
      SplitKeepsWindowMass(c, r == 1 ? owned : shared, std::move(root),
                           /*depth=*/3, &rng, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// A split whose one child stops before its search (`stopped`: 0 left,
// 1 right, 2 both) gives that child no lists, leaves its sibling's lists
// equal to the gather, and releases the parent's.
TEST(ChildScanPropertyTest, StoppedChildrenGetNoLists) {
  TaskPool pool(3);
  int checked = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NodeCase c = RandomNodeCase(seed);
    const AttributeIndex index = AttributeIndex::Build(c.data);
    NodeSet node = GatherNodeSet(c.data, index, c.set);
    std::vector<int> numerical;
    for (int a : SplittableAttributes(c, node)) {
      if (IsNumerical(c.data, a)) numerical.push_back(a);
    }
    if (node.tuples.empty() || numerical.empty()) continue;
    Stream rng(seed * 0x2545F4914F6CDD1DULL);
    const int j = numerical[static_cast<size_t>(
        rng.Below(static_cast<int>(numerical.size())))];
    const double z = RandomSplitPoint(c, index, node, j, &rng);
    const int stopped = static_cast<int>(seed % 3);
    NodeSet left, right;
    const ChildStops stops = [&](const WorkingSet& child) {
      return stopped == 2 || &child == &(stopped == 0 ? left : right).tuples;
    };
    PartitionNodeSet(c.data, index, &node, j, z, &left, &right,
                     seed % 2 == 0 ? &pool : nullptr, stops);
    WorkingSet want_left, want_right;
    PartitionTuplesAlone(c, index, c.set, j, z, &want_left, &want_right);
    ASSERT_EQ(left.tuples.size(), want_left.size());
    ASSERT_EQ(right.tuples.size(), want_right.size());
    for (const AttributeEvents& list : node.lists) {
      EXPECT_TRUE(list.events.empty());
    }
    if (stopped != 1) {
      EXPECT_TRUE(left.lists.empty());
    }
    if (stopped != 0) {
      EXPECT_TRUE(right.lists.empty());
    }
    if (stopped == 0) ExpectMatchesGather(c, index, right, seed);
    if (stopped == 1) ExpectMatchesGather(c, index, left, seed);
    if (::testing::Test::HasFatalFailure()) return;
    ++checked;
  }
  EXPECT_GT(checked, 150);
}

// The categorical partition lists only the buckets that do not stop.
TEST(ChildScanPropertyTest, StoppedBucketsGetNoLists) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NodeCase c = RandomNodeCase(seed);
    const int j = c.data.num_attributes() - 1;
    if (IsNumerical(c.data, j)) continue;
    const AttributeIndex index = AttributeIndex::Build(c.data);
    NodeSet node = GatherNodeSet(c.data, index, c.set);
    std::vector<NodeSet> buckets;
    const size_t stopped = seed % 3;
    const ChildStops stops = [&](const WorkingSet& child) {
      return &child == &buckets[stopped].tuples;
    };
    PartitionNodeSetCategorical(c.data, &node, j, 3, &buckets, nullptr, stops);
    ASSERT_EQ(buckets.size(), 3u);
    for (size_t v = 0; v < buckets.size(); ++v) {
      SCOPED_TRACE("bucket " + std::to_string(v));
      if (v == stopped) {
        EXPECT_TRUE(buckets[v].lists.empty());
      } else {
        ExpectMatchesGather(c, index, buckets[v], seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

// ---------------------------------------------------------------------
// Root lists from the rank index against the gather.

// Every list of `got` is, bit for bit, the list GatherNodeSet gathers and
// sorts for the same tuples.
void ExpectRootMatchesGather(const NodeCase& c, const AttributeIndex& index,
                             const NodeSet& got, uint64_t seed) {
  const NodeSet want = GatherNodeSet(c.data, index, got.tuples);
  ASSERT_EQ(got.lists.size(), want.lists.size());
  for (size_t j = 0; j < want.lists.size(); ++j) {
    SCOPED_TRACE("attribute " + std::to_string(j));
    ExpectListsIdentical(got.lists[j], want.lists[j]);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ExpectMatchesGather(c, index, got, seed);
}

// The unweighted root and bags with multiplicities 0-3, all served by one
// index: filtered from its lists (which it keeps), or taken from an index
// the caller owns (moved for the whole data set, filtered and freed for a
// bag). The cases hold -0.0 and +0.0 on one rank, x values tied across
// tuples and one-point pdfs.
TEST(RootListPropertyTest, IndexRootListsMatchGatherBitwise) {
  TaskPool pool(3);
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const NodeCase c = RandomNodeCase(seed);
    const size_t num_tuples = static_cast<size_t>(c.data.num_tuples());
    const AttributeIndex shared =
        AttributeIndex::Build(c.data, seed % 2 == 0 ? &pool : nullptr);
    Stream rng(seed ^ 0xBA66EDULL);
    std::vector<WorkingSet> roots = {MakeRootWorkingSet(c.data)};
    for (int bag = 0; bag < 3; ++bag) {
      std::vector<double> weights(num_tuples);
      for (double& w : weights) w = static_cast<double>(rng.Below(4));
      const int drawn = rng.Below(static_cast<int>(num_tuples));
      weights[static_cast<size_t>(drawn)] = 2.0;
      roots.push_back(MakeWeightedRootWorkingSet(c.data, weights));
    }
    for (size_t r = 0; r < roots.size(); ++r) {
      SCOPED_TRACE("root " + std::to_string(r));
      TaskPool* const workers = r % 2 == 0 ? &pool : nullptr;
      const NodeSet root = MakeRootNodeSet(c.data, shared, roots[r], workers);
      ExpectRootMatchesGather(c, shared, root, seed);
      if (::testing::Test::HasFatalFailure()) return;

      AttributeIndex owned = AttributeIndex::Build(c.data);
      const NodeSet taken = TakeRootNodeSet(c.data, &owned, roots[r]);
      ExpectRootMatchesGather(c, owned, taken, seed);
      if (::testing::Test::HasFatalFailure()) return;
      for (int j = 0; j < c.data.num_attributes(); ++j) {
        EXPECT_TRUE(owned.root_events(j).events.empty());
        EXPECT_TRUE(owned.root_events(j).window_mass.empty());
      }
    }
    // The shared index still holds the unweighted root's lists.
    const NodeSet again = MakeRootNodeSet(c.data, shared, roots[0]);
    ExpectRootMatchesGather(c, shared, again, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// One-point pdfs: each tuple has a single event, and it carries the
// boundary flag. Ties across tuples, and -0.0 against +0.0, keep tuple
// order.
TEST(RootListPropertyTest, OnePointPdfsAreBoundaryEvents) {
  Dataset data(Schema::Numerical(2, {"A", "B"}));
  const double xs[] = {0.0, -0.0, 1.5, -0.0, 1.5, 0.0, -2.0, 1.5};
  for (size_t i = 0; i < std::size(xs); ++i) {
    const double x = xs[i];
    const double y = xs[std::size(xs) - 1 - i];
    UncertainTuple tuple;
    tuple.label = static_cast<int>(i % 2);
    tuple.values.push_back(UncertainValue::Numerical(SampledPdf::PointMass(x)));
    tuple.values.push_back(UncertainValue::Numerical(SampledPdf::PointMass(y)));
    ASSERT_TRUE(data.AddTuple(std::move(tuple)).ok());
  }
  const AttributeIndex index = AttributeIndex::Build(data);
  const NodeCase c{data, MakeRootWorkingSet(data), 2};
  const std::vector<double> bag = {0, 2, 1, 0, 3, 1, 1, 0};
  std::vector<WorkingSet> roots;
  roots.push_back(MakeRootWorkingSet(data));
  roots.push_back(MakeWeightedRootWorkingSet(data, bag));
  for (const WorkingSet& tuples : roots) {
    const NodeSet root = MakeRootNodeSet(data, index, tuples);
    ExpectRootMatchesGather(c, index, root, 1);
    if (::testing::Test::HasFatalFailure()) return;
    for (const AttributeEvents& list : root.lists) {
      ASSERT_EQ(list.events.size(), root.tuples.size());
      for (const SampleEvent& event : list.events) {
        EXPECT_EQ(event.tag & 1u, 1u);
        EXPECT_EQ(Bits(event.mass), Bits(1.0));
      }
    }
  }
  // Rank order with ties in tuple order: -2.0, then the four zeros
  // (tuples 0, 1, 3, 5), then the three 1.5s (tuples 2, 4, 7).
  const std::vector<uint32_t> want_tuples = {6, 0, 1, 3, 5, 2, 4, 7};
  const AttributeEvents& list = index.root_events(0);
  ASSERT_EQ(list.events.size(), want_tuples.size());
  for (size_t e = 0; e < want_tuples.size(); ++e) {
    EXPECT_EQ(list.events[e].tag >> 1, want_tuples[e]) << "event " << e;
  }
}

// A node that reaches the split search must have its lists: a stopped
// child's empty lists are rejected there rather than read.
TEST(RootListDeathTest, SearchWithoutListsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const NodeCase c = RandomNodeCase(3);
  const AttributeIndex index = AttributeIndex::Build(c.data);
  NodeSet node;
  node.tuples = MakeRootWorkingSet(c.data);
  const std::unique_ptr<SplitFinder> finder =
      MakeSplitFinder(SplitAlgorithm::kUdtEs);
  const std::vector<double> counts =
      ClassCounts(c.data, node.tuples, c.num_classes);
  const SplitScorer scorer(DispersionMeasure::kEntropy, counts);
  const SplitOptions options;
  const auto search = [&] {
    finder->FindBestSplit(c.data, index, node, scorer, options, nullptr);
  };
  EXPECT_DEATH(search(), "lists");
}

// The index's attributes build as pool tasks; the result must not depend
// on it.
TEST(AttributeIndexTest, PoolBuildMatchesSerial) {
  Stream rng(91);
  Dataset data(Schema::Numerical(5, {"A", "B", "C"}));
  for (int i = 0; i < 120; ++i) {
    UncertainTuple tuple;
    tuple.label = rng.Below(3);
    for (int j = 0; j < 5; ++j) {
      tuple.values.push_back(UncertainValue::Numerical(RandomPdf(&rng)));
    }
    ASSERT_TRUE(data.AddTuple(std::move(tuple)).ok());
  }
  const AttributeIndex serial = AttributeIndex::Build(data);
  TaskPool pool(3);
  const AttributeIndex pooled = AttributeIndex::Build(data, &pool);
  for (int j = 0; j < 5; ++j) {
    ASSERT_EQ(serial.num_values(j), pooled.num_values(j));
    for (int r = 0; r < serial.num_values(j); ++r) {
      EXPECT_EQ(Bits(serial.value(j, static_cast<uint32_t>(r))),
                Bits(pooled.value(j, static_cast<uint32_t>(r))));
    }
    for (int t = 0; t < data.num_tuples(); ++t) {
      const SampledPdf& pdf = data.tuple(t).values[static_cast<size_t>(j)].pdf();
      for (int p = 0; p < pdf.num_points(); ++p) {
        EXPECT_EQ(ReferenceRank(serial, j, pdf.point(p)),
                  ReferenceRank(pooled, j, pdf.point(p)));
      }
    }
  }
}

TEST(AttributeIndexTest, RanksAreDenseAndOrdered) {
  const Case c = RandomCase(5);
  const AttributeIndex index = AttributeIndex::Build(c.data);
  ASSERT_EQ(index.num_tuples(), c.data.num_tuples());
  // The per-tuple point counts, among others.
  ASSERT_TRUE(index.CheckMatches(c.data).ok());
  for (int t = 0; t < c.data.num_tuples(); ++t) {
    const SampledPdf& pdf = c.data.tuple(t).values[0].pdf();
    for (int p = 0; p < pdf.num_points(); ++p) {
      EXPECT_EQ(index.value(0, ReferenceRank(index, 0, pdf.point(p))),
                pdf.point(p));
      if (p > 0) {
        EXPECT_LT(ReferenceRank(index, 0, pdf.point(p - 1)),
                  ReferenceRank(index, 0, pdf.point(p)));
      }
    }
  }
  for (int r = 1; r < index.num_values(0); ++r) {
    EXPECT_LT(index.value(0, static_cast<uint32_t>(r - 1)),
              index.value(0, static_cast<uint32_t>(r)));
  }
}

TEST(AttributeIndexTest, SignedZerosShareOneRank) {
  Dataset data(Schema::Numerical(1, {"A", "B"}));
  for (double x : {-0.0, 0.0, -1.0, 1.0}) {
    UncertainTuple tuple{{UncertainValue::Numerical(SampledPdf::PointMass(x))},
                         0};
    ASSERT_TRUE(data.AddTuple(tuple).ok());
  }
  const AttributeIndex index = AttributeIndex::Build(data);
  EXPECT_EQ(index.num_values(0), 3);
  EXPECT_EQ(ReferenceRank(index, 0, -0.0), ReferenceRank(index, 0, 0.0));
  EXPECT_EQ(Bits(index.value(0, ReferenceRank(index, 0, -0.0))), Bits(0.0));
}

}  // namespace
}  // namespace udt
