// Internal machinery shared by the concrete split finders: per-attribute
// scan contexts, candidate evaluation, and interval bounding. Not part of
// the public API.
//
// Re-entrancy contract: everything here is a pure function of its inputs
// plus the caller-owned EvalBuffers scratch. The parallel engine gives
// every attribute task its own EvalBuffers (the per-worker context), so
// one finder instance can serve any number of concurrent searches.

#ifndef UDT_SPLIT_FINDER_COMMON_H_
#define UDT_SPLIT_FINDER_COMMON_H_

#include <vector>

#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/dispersion.h"
#include "split/intervals.h"
#include "split/split_finder.h"

namespace udt {
namespace split_internal {

// Slack used when comparing a lower bound against the pruning threshold;
// compensates for the different rounding paths of bound and score.
inline constexpr double kPruneSlack = 1e-12;

// Everything a finder needs about one numerical attribute at one node.
struct AttributeContext {
  int attribute = -1;
  AttributeScan scan;
  // End-point positions (tuple support boundaries, or percentile
  // pseudo-end-points in Section 7.3 mode). Ascending; first == 0 and
  // last == scan.num_positions()-1.
  std::vector<int> endpoints;
  // Intervals between consecutive end points.
  std::vector<EndpointInterval> intervals;
};

// Scratch buffers reused across candidate evaluations of one attribute
// context: the cursor turns ascending position sweeps (exhaustive search,
// end points, interval interiors) into one pass over the scan's events,
// so each AttributeContext gets a fresh EvalBuffers.
struct EvalBuffers {
  ScanCursor cursor;
  std::vector<double> right;
  IntervalMassStats stats;
};

// Builds the context for one numerical attribute by compressing the
// node's event list for it. Returns a context with an empty scan when the
// attribute admits no candidate (< 2 distinct positions) or is
// categorical. Honors the percentile-end-point option: in that mode every
// interval is conservatively classified heterogeneous (the concavity
// theorems assume true support boundaries).
AttributeContext BuildContextForAttribute(const Dataset& data,
                                          const AttributeIndex& index,
                                          const NodeSet& set, int attribute,
                                          const SplitOptions& options,
                                          int num_classes);

// Scores the split at position `idx` of `ctx` and merges it into `best`.
// Skips (without counting) candidates that leave either side with less
// than options.min_side_mass.
void EvaluatePosition(const AttributeContext& ctx, int idx,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers);

// Scores every interior position of (a_idx, b_idx].
void EvaluateInterior(const AttributeContext& ctx, int a_idx, int b_idx,
                      const SplitScorer& scorer, const SplitOptions& options,
                      SplitCandidate* best, SplitCounters* counters,
                      EvalBuffers* buffers);

// Lower bound of the score over the interior of (a_idx, b_idx].
double IntervalBound(const AttributeContext& ctx, int a_idx, int b_idx,
                     const SplitScorer& scorer, SplitCounters* counters,
                     EvalBuffers* buffers);

// True if the interval's interior may be skipped outright under Theorem 1
// or Theorem 2 (measure permitting). Updates the pruning counters.
bool PruneByKind(const EndpointInterval& interval, const SplitScorer& scorer,
                 SplitCounters* counters);

// Processes one (fine) interval the GP/ES way: kind-prune, else bound
// against the current best, else evaluate the interior.
void ProcessInterval(const AttributeContext& ctx,
                     const EndpointInterval& interval,
                     const SplitScorer& scorer, const SplitOptions& options,
                     SplitCandidate* best, SplitCounters* counters,
                     EvalBuffers* buffers);

}  // namespace split_internal
}  // namespace udt

#endif  // UDT_SPLIT_FINDER_COMMON_H_
