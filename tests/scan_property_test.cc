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

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/math.h"
#include "common/task_pool.h"
#include "split/attribute_index.h"
#include "split/attribute_scan.h"
#include "split/fractional_tuple.h"

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
    names.push_back("c" + std::to_string(c));
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

void CheckCase(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const Case c = RandomCase(seed);
  const AttributeIndex index = AttributeIndex::Build(c.data);
  const AttributeScan scan =
      AttributeScan::Build(c.data, index, c.set, 0, c.num_classes);
  const ReferenceScan ref = BuildReference(c);

  ASSERT_EQ(scan.num_positions(), static_cast<int>(ref.xs.size()));
  if (ref.xs.empty()) {
    EXPECT_TRUE(scan.empty());
    return;
  }
  const int n = scan.num_positions();
  EXPECT_EQ(scan.endpoint_positions(), ref.endpoints);
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
      for (size_t p = 0; p < serial.num_points(j, t); ++p) {
        EXPECT_EQ(serial.ranks(j, t)[p], pooled.ranks(j, t)[p]);
      }
    }
  }
}

TEST(AttributeIndexTest, RanksAreDenseAndOrdered) {
  const Case c = RandomCase(5);
  const AttributeIndex index = AttributeIndex::Build(c.data);
  ASSERT_EQ(index.num_tuples(), c.data.num_tuples());
  for (int t = 0; t < c.data.num_tuples(); ++t) {
    const SampledPdf& pdf = c.data.tuple(t).values[0].pdf();
    ASSERT_EQ(index.num_points(0, t), static_cast<size_t>(pdf.num_points()));
    const uint32_t* ranks = index.ranks(0, t);
    for (int p = 0; p < pdf.num_points(); ++p) {
      EXPECT_EQ(index.value(0, ranks[p]), pdf.point(p));
      if (p > 0) {
        EXPECT_LT(ranks[p - 1], ranks[p]);
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
  EXPECT_EQ(index.ranks(0, 0)[0], index.ranks(0, 1)[0]);
  EXPECT_EQ(Bits(index.value(0, index.ranks(0, 0)[0])), Bits(0.0));
}

}  // namespace
}  // namespace udt
