// SplitFinder: the interface shared by the paper's split-search algorithms
// and the factory that selects among them.
//
//   AVG    - exhaustive search over the (point-valued) candidate axis; the
//            classical algorithm run on pdf means (Section 4.1).
//   UDT    - exhaustive search over all ~ms-1 sample points (Section 4.2).
//   UDT-BP - Basic Pruning: skip interiors of empty and homogeneous
//            intervals (Theorems 1 and 2, Section 5.1).
//   UDT-LP - Local Pruning: per-attribute end-point threshold + interval
//            lower bounds (Section 5.2).
//   UDT-GP - Global Pruning: one threshold across all attributes
//            (Section 5.2).
//   UDT-ES - End-point Sampling on top of GP (Section 5.3).
//
// All pruning is *safe*: every finder returns a split whose score equals
// the exhaustive optimum (verified by tests/split_equivalence_test.cc).

#ifndef UDT_SPLIT_SPLIT_FINDER_H_
#define UDT_SPLIT_SPLIT_FINDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "split/attribute_index.h"
#include "split/dispersion.h"
#include "split/fractional_tuple.h"
#include "table/dataset.h"

namespace udt {

class TaskPool;  // common/task_pool.h

namespace split_internal {
struct AttributeContext;
struct EvalBuffers;
}  // namespace split_internal

enum class SplitAlgorithm {
  kAvg,
  kUdt,
  kUdtBp,
  kUdtLp,
  kUdtGp,
  kUdtEs,
};

const char* SplitAlgorithmToString(SplitAlgorithm algorithm);

// Tuning knobs shared by the finders.
struct SplitOptions {
  DispersionMeasure measure = DispersionMeasure::kEntropy;

  // UDT-ES: fraction of end points evaluated to seed the pruning threshold
  // (the paper found 10% to be a good choice, Section 5.3).
  double es_endpoint_sample_rate = 0.10;

  // Section 7.3: replace tuple-support end points by per-class percentile
  // pseudo-end-points. All intervals are then treated as heterogeneous
  // (the concavity theorems no longer apply) and pruned by bounding only.
  bool use_percentile_endpoints = false;
  int percentiles_per_class = 9;  // 10%,...,90%

  // A split is valid only if both sides receive at least this much mass.
  double min_side_mass = 1e-9;

  // Random-subspace construction (api/forest.h): when non-null, only
  // attributes j with (*attribute_mask)[j] != 0 are searched — numerical
  // scans and categorical scoring alike. Borrowed per node, never owned;
  // null considers every attribute.
  const std::vector<uint8_t>* attribute_mask = nullptr;

  // True when `attribute` participates in the search under the mask.
  bool AttributeAllowed(int attribute) const {
    return attribute_mask == nullptr ||
           (*attribute_mask)[static_cast<size_t>(attribute)] != 0;
  }
};

// Work counters, accumulated across every node of a tree build. The paper's
// Fig 7 reports dispersion_evaluations + bound_evaluations as "the number
// of entropy calculations" (a bound costs about as much as an entropy).
struct SplitCounters {
  int64_t dispersion_evaluations = 0;  // candidate split points scored
  int64_t bound_evaluations = 0;       // interval lower bounds computed
  int64_t candidates_pruned = 0;       // candidate points never scored
  int64_t intervals_total = 0;
  int64_t intervals_pruned_empty = 0;
  int64_t intervals_pruned_homogeneous = 0;
  int64_t intervals_pruned_linear = 0;  // Theorem 3 (UDT-BP only)
  int64_t intervals_pruned_by_bound = 0;

  int64_t TotalEntropyCalculations() const {
    return dispersion_evaluations + bound_evaluations;
  }

  SplitCounters& operator+=(const SplitCounters& other);
};

// The result of a split search.
struct SplitCandidate {
  bool valid = false;
  int attribute = -1;
  double split_point = 0.0;
  // The minimised score (weighted entropy / Gini, or negated gain ratio).
  double score = 0.0;

  // Tie-break ordering: lower score, then lower attribute, then lower
  // split point. Returns true if *this is strictly better than `other`.
  bool BetterThan(const SplitCandidate& other) const;
};

// Interface implemented by every split-search algorithm.
//
// A search decomposes into independent per-attribute phases so it can run
// the attributes as parallel tasks:
//   1. every numerical attribute is scanned and (for the global finders
//      GP/ES) swept for its threshold-seeding end points,
//   2. the per-attribute seeds are merged in ascending attribute order
//      into one global seed,
//   3. each attribute runs its full search seeded with that candidate,
//   4. the per-attribute results are again merged in attribute order.
// Each phase is a pure function of its inputs and every reduction order is
// fixed, so the returned candidate (and therefore the built tree) is
// bitwise-identical whether the attributes run serially or on a pool.
// Finders are stateless: one instance may serve concurrent searches.
class SplitFinder {
 public:
  virtual ~SplitFinder() = default;

  virtual const char* name() const = 0;

  // Finds the best (attribute, split point) for the node whose working set
  // is `set`; each attribute's scan compresses the set's event list (made
  // as split/fractional_tuple.h describes: a root's from the rank index,
  // a child's filtered from its parent's).
  // `index` is AttributeIndex::Build(data), built once per training call.
  // `scorer` carries the node's measure and parent counts. Returns an
  // invalid candidate when no attribute admits a valid split. `counters`
  // may be null. When `pool` is non-null the per-attribute phases run as
  // pool tasks; the result does not depend on it. `set` must hold a list
  // per numerical attribute, one window per tuple (checked): a node that
  // stopped before its search has none.
  SplitCandidate FindBestSplit(const Dataset& data,
                               const AttributeIndex& index,
                               const NodeSet& set, const SplitScorer& scorer,
                               const SplitOptions& options,
                               SplitCounters* counters,
                               TaskPool* pool = nullptr) const;

 protected:
  // True for finders whose pruning threshold spans all attributes (GP/ES);
  // they get the extra seed phase, and their attribute scans all stay
  // alive for the duration of the search.
  virtual bool NeedsGlobalSeed() const { return false; }

  // Phase 1 for seeded finders: evaluates the attribute's threshold-
  // seeding candidates (end points for GP, sampled end points for ES) and
  // returns the best among them. Default: no work, invalid candidate.
  virtual SplitCandidate SeedAttribute(
      const split_internal::AttributeContext& ctx, const SplitScorer& scorer,
      const SplitOptions& options, SplitCounters* counters,
      split_internal::EvalBuffers* buffers) const;

  // Phase 2: the attribute's full search. `seed` is the merged global
  // threshold candidate (invalid for the local finders); the running best
  // starts from it, so pruned finders may return the seed itself when the
  // attribute holds nothing better.
  virtual SplitCandidate SearchAttribute(
      const split_internal::AttributeContext& ctx, const SplitScorer& scorer,
      const SplitOptions& options, const SplitCandidate& seed,
      SplitCounters* counters,
      split_internal::EvalBuffers* buffers) const = 0;
};

// Creates the finder for `algorithm`.
std::unique_ptr<SplitFinder> MakeSplitFinder(SplitAlgorithm algorithm);

}  // namespace udt

#endif  // UDT_SPLIT_SPLIT_FINDER_H_
