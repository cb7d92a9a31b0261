// Unit tests for src/common: Status/StatusOr, Rng, math helpers and string
// utilities.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"

namespace udt {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("gone");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

StatusOr<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  UDT_ASSIGN_OR_RETURN(int half, HalveEven(x));
  *out = half;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_FALSE(UseAssignOrReturn(7, &out).ok());
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, DeterministicUnderSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 4);
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformIntRange(7, 9));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, GaussianZeroStddevIsDeterministic) {
  Rng rng(1);
  EXPECT_EQ(rng.Gaussian(3.0, 0.0), 3.0);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  // The child stream should not replay the parent's output.
  Rng parent2(9);
  EXPECT_NE(child.Uniform01(), parent2.Uniform01());
}

TEST(MathTest, XLog2XAtZero) { EXPECT_EQ(XLog2X(0.0), 0.0); }

TEST(MathTest, XLog2XKnownValues) {
  EXPECT_NEAR(XLog2X(1.0), 0.0, 1e-12);
  EXPECT_NEAR(XLog2X(2.0), 2.0, 1e-12);
  EXPECT_NEAR(XLog2X(0.5), -0.5, 1e-12);
}

TEST(MathTest, Log2SafeGuardsZero) {
  EXPECT_EQ(Log2Safe(0.0), 0.0);
  EXPECT_EQ(Log2Safe(-1.0), 0.0);
  EXPECT_NEAR(Log2Safe(8.0), 3.0, 1e-12);
}

TEST(MathTest, EntropyUniformTwoClasses) {
  EXPECT_NEAR(EntropyFromCounts({5.0, 5.0}), 1.0, 1e-12);
}

TEST(MathTest, EntropyPureIsZero) {
  EXPECT_NEAR(EntropyFromCounts({7.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(EntropyFromCounts({0.0, 0.0}), 0.0, 1e-12);
}

TEST(MathTest, EntropyScaleInvariant) {
  EXPECT_NEAR(EntropyFromCounts({1.0, 3.0}),
              EntropyFromCounts({10.0, 30.0}), 1e-12);
}

TEST(MathTest, EntropyUniformKClassesIsLog2K) {
  EXPECT_NEAR(EntropyFromCounts({2.0, 2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(MathTest, GiniUniformTwoClasses) {
  EXPECT_NEAR(GiniFromCounts({5.0, 5.0}), 0.5, 1e-12);
}

TEST(MathTest, GiniPureIsZero) {
  EXPECT_NEAR(GiniFromCounts({9.0, 0.0}), 0.0, 1e-12);
}

TEST(MathTest, GiniBoundedByOne) {
  double g = GiniFromCounts({1.0, 1.0, 1.0, 1.0, 1.0});
  EXPECT_NEAR(g, 0.8, 1e-12);
  EXPECT_LT(g, 1.0);
}

TEST(MathTest, KahanSumAccurate) {
  KahanSum sum;
  for (int i = 0; i < 1000000; ++i) sum.Add(0.1);
  EXPECT_NEAR(sum.value(), 100000.0, 1e-6);
}

TEST(MathTest, NormalQuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.75), 0.6744897502, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
}

TEST(MathTest, NormalQuantileMonotonic) {
  double prev = NormalQuantile(0.01);
  for (double p = 0.02; p < 1.0; p += 0.01) {
    double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(MathTest, PessimisticErrorZeroErrorsStillPositive) {
  // C4.5: even a clean leaf gets a positive pessimistic error.
  double u = PessimisticErrorCount(0.0, 10.0, 0.25);
  EXPECT_GT(u, 0.0);
  EXPECT_LT(u, 10.0);
  // Known C4.5 value: U(0, N) = N (1 - CF^(1/N)); for N=10, CF=0.25.
  EXPECT_NEAR(u, 10.0 * (1.0 - std::pow(0.25, 0.1)), 1e-9);
}

TEST(MathTest, PessimisticErrorExceedsObserved) {
  EXPECT_GT(PessimisticErrorCount(2.0, 10.0, 0.25), 2.0);
}

TEST(MathTest, PessimisticErrorShrinksWithMoreData) {
  // Same error *rate*, more data -> tighter bound (relative).
  double small = PessimisticErrorCount(2.0, 10.0, 0.25) / 10.0;
  double large = PessimisticErrorCount(20.0, 100.0, 0.25) / 100.0;
  EXPECT_LT(large, small);
}

TEST(MathTest, PessimisticErrorCappedAtTotal) {
  EXPECT_LE(PessimisticErrorCount(10.0, 10.0, 0.25), 10.0 + 1e-9);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> fields = SplitString("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  std::vector<std::string> fields = SplitString("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace("\t \n"), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
}

TEST(StringUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("3.25x").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
}

// The strtod-only parser ParseDouble used before its from_chars fast path:
// the reference the fast path must match token for token.
std::optional<double> StrtodReference(std::string_view text) {
  text = TrimWhitespace(text);
  if (text.empty()) return std::nullopt;
  std::string buffer(text);
  char* end = nullptr;
  double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// '|'-separated token groups for the differential test below.
// Specials, signs, hex and overflow: the strtod fallback's share.
constexpr const char* kSpecials =
    "inf|-inf|Infinity|INF|infinit|in|nan|-nan|NaN|nan(123)|nan(|+1|+1.5e3|"
    "+inf|+nan|0x1p3|0X1P-2|-0x10|0x|1e400|-1e400|1e-400|-0|0|+0|-0.0";
// Malformed tokens must stay rejected.
constexpr const char* kMalformed =
    "|1e|1e+|e5|.|-|+|1 2|1,5|--1|+-1|1.5x|1e5.5|1_000|0..1|1e5e5";
// Plain forms from_chars reads itself.
constexpr const char* kPlain =
    ".5|5.|-.5|007|1E5|1e+05|1e-05|123456789012345678901|0.1|3.25";
// Overflow and underflow edges, denormals.
constexpr const char* kEdges =
    "1.7976931348623157e308|1.7976931348623158e308|1.7976931348623159e308|"
    "-1.7976931348623159e308|2e308|2.2250738585072014e-308|"
    "2.2250738585072011e-308|4.9406564584124654e-324|"
    "2.4703282292062328e-324|2.4703282292062327e-324|1e-320|-3e-310";
// Blanks around the token are trimmed.
constexpr const char* kPadded = " 1.5|1.5 |\t-2e3\r|\n3\n| nan |  +7 | 0x10 | ";

TEST(StringUtilTest, ParseDoubleMatchesStrtodBitForBit) {
  std::vector<std::string> tokens;
  for (const char* group : {kSpecials, kMalformed, kPlain, kEdges, kPadded}) {
    const std::vector<std::string> split = SplitString(group, '|');
    tokens.insert(tokens.end(), split.begin(), split.end());
  }

  uint64_t state = 20240917;
  auto next = [&state] {
    const uint64_t out = SplitMix64(state);
    state += 0x9E3779B97F4A7C15ULL;
    return out;
  };
  constexpr int kRandomRounds = 4000;
  tokens.reserve(tokens.size() + 6 * kRandomRounds);
  for (int i = 0; i < kRandomRounds; ++i) {
    // %.17g of a random bit pattern (NaNs and infinities included).
    tokens.push_back(StrFormat("%.17g", DoubleFromBits(next())));
    // A denormal: zero exponent field, random mantissa.
    const uint64_t mantissa = next() & ((uint64_t{1} << 52) - 1);
    tokens.push_back(StrFormat("%.17g", DoubleFromBits(mantissa)));
    // Short decimals, as hand-written CSVs hold.
    const int whole = static_cast<int>(next() % 2001) - 1000;
    const unsigned fraction = static_cast<unsigned>(next() % 1000);
    tokens.push_back(StrFormat("%d.%u", whole, fraction));
    const double numerator = static_cast<double>(next() % 100000);
    const double denominator = 1.0 + static_cast<double>(next() % 1000);
    tokens.push_back(StrFormat("%.3g", numerator / denominator));
    // Mantissas at exponents around the overflow and underflow edges.
    const unsigned lead = static_cast<unsigned>(next() % 10);
    const unsigned digits = static_cast<unsigned>(next() % 100000);
    const int exponent = static_cast<int>(next() % 40);
    tokens.push_back(StrFormat("%u.%ue%d", lead, digits, 290 + exponent));
    tokens.push_back(StrFormat("%u.%ue-%d", lead, digits, 300 + exponent));
  }

  for (const std::string& token : tokens) {
    const std::optional<double> want = StrtodReference(token);
    const std::optional<double> got = ParseDouble(token);
    ASSERT_EQ(got.has_value(), want.has_value()) << "token '" << token << "'";
    if (want.has_value()) {
      EXPECT_EQ(BitsOf(*got), BitsOf(*want)) << "token '" << token << "'";
    }
  }
}

TEST(StringUtilTest, ParseIntValid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt(" 0 "), 0);
}

TEST(StringUtilTest, ParseIntRejectsNegativeAndGarbage) {
  EXPECT_FALSE(ParseInt("-1").has_value());
  EXPECT_FALSE(ParseInt("4.5").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StringUtilTest, StrFormatBasic) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
}

}  // namespace
}  // namespace udt
