// Small numeric helpers shared across the library: entropy-safe logarithms,
// compensated summation and floating-point comparison utilities.

#ifndef UDT_COMMON_MATH_H_
#define UDT_COMMON_MATH_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace udt {

// The tolerance used when comparing probability masses and dispersion
// values. Masses are sums of O(10^6) doubles in [0,1], so 1e-9 absolute
// tolerance is far above accumulated rounding error yet far below any
// meaningful mass.
inline constexpr double kMassEpsilon = 1e-9;

// x * log2(x) with the standard convention 0 * log2(0) = 0.
// Requires x >= 0 (negative x indicates a bookkeeping bug upstream; tiny
// negative values from rounding are clamped).
double XLog2X(double x);

// log2 with a guard: Log2Safe(0) returns 0 instead of -inf. Only meaningful
// in expressions of the form `count * Log2Safe(ratio)` where count == 0
// whenever ratio == 0.
double Log2Safe(double x);

// Shannon entropy (base 2) of non-negative weights; the weights need not be
// normalised. Returns 0 for an empty or all-zero input.
double EntropyFromCounts(const std::vector<double>& counts);

// Gini impurity 1 - sum((w_i / W)^2) of non-negative weights. Returns 0 for
// an empty or all-zero input.
double GiniFromCounts(const std::vector<double>& counts);

// ------------------------------------------------------------------------
// Fused single-pass forms used by the split-scoring hot loop
// (split/dispersion.cc). Each is bitwise-identical to the separate
// reference computation it replaces: the accumulators receive the same
// operands in the same order, only redundant passes over `counts` are
// merged. Tree construction is bitwise-deterministic across thread counts,
// so any reordering here would change built trees — don't "optimise" these
// into multi-accumulator/unrolled reductions.

// Sum of the strictly positive entries, in order — the total both
// EntropyFromCounts and GiniFromCounts compute internally.
double SumPositiveCounts(const std::vector<double>& counts);

// One pass computing both SumPositiveCounts(counts) and
// EntropyFromCounts(counts); results are bitwise-identical to the two
// separate calls.
void FusedEntropyFromCounts(const std::vector<double>& counts,
                            double* total_out, double* entropy_out);

// GiniFromCounts(counts) given a precomputed SumPositiveCounts(counts)
// (Gini inherently needs the total before its squared pass, so the best
// fusion is reusing the caller's total).
double GiniGivenTotal(const std::vector<double>& counts, double total);

// EntropyFromCounts({a, b}) without materialising the two-element vector
// (the gain-ratio split-info term, evaluated once per candidate split).
double EntropyFromPair(double a, double b);

// SplitMix64 finaliser: full 64-bit avalanche in a few cycles. The one
// mixing function behind every deterministic stream derivation (per-node
// subspace tokens in core/node_build.cc, per-tree bag/subspace seeds in
// api/forest.cc) — keep a single copy so the streams can never diverge.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Inverse of the standard normal CDF (Acklam's rational approximation,
// ~1e-9 absolute error). Requires 0 < p < 1. Used by the C4.5-style
// pessimistic-error upper bound in post-pruning.
double NormalQuantile(double p);

// C4.5's upper confidence bound on the error *count*: given `errors`
// observed misclassifications out of `total` (weighted) cases, returns the
// pessimistic error count at the given confidence level (C4.5's CF,
// default 0.25). Requires total > 0, 0 <= errors <= total, 0 < cf < 1.
double PessimisticErrorCount(double errors, double total, double cf);

// Kahan compensated summation; keeps class-mass prefix sums accurate over
// hundreds of thousands of sample points.
class KahanSum {
 public:
  void Add(double value) {
    double y = value - compensation_;
    double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  double value() const { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace udt

#endif  // UDT_COMMON_MATH_H_
