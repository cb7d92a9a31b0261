#include "split/split_finder.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/task_pool.h"
#include "split/finder_common.h"
#include "split/finders.h"

namespace udt {

namespace {
// Scores within this distance are treated as tied and broken by attribute,
// then split point, keeping every finder's choice deterministic.
constexpr double kScoreTieEpsilon = 1e-12;

// Folds `candidate` into `best` under the deterministic tie-break order.
void MergeCandidate(const SplitCandidate& candidate, SplitCandidate* best) {
  if (candidate.valid && (!best->valid || candidate.BetterThan(*best))) {
    *best = candidate;
  }
}
}  // namespace

const char* SplitAlgorithmToString(SplitAlgorithm algorithm) {
  switch (algorithm) {
    case SplitAlgorithm::kAvg:
      return "AVG";
    case SplitAlgorithm::kUdt:
      return "UDT";
    case SplitAlgorithm::kUdtBp:
      return "UDT-BP";
    case SplitAlgorithm::kUdtLp:
      return "UDT-LP";
    case SplitAlgorithm::kUdtGp:
      return "UDT-GP";
    case SplitAlgorithm::kUdtEs:
      return "UDT-ES";
  }
  return "unknown";
}

SplitCounters& SplitCounters::operator+=(const SplitCounters& other) {
  dispersion_evaluations += other.dispersion_evaluations;
  bound_evaluations += other.bound_evaluations;
  candidates_pruned += other.candidates_pruned;
  intervals_total += other.intervals_total;
  intervals_pruned_empty += other.intervals_pruned_empty;
  intervals_pruned_homogeneous += other.intervals_pruned_homogeneous;
  intervals_pruned_linear += other.intervals_pruned_linear;
  intervals_pruned_by_bound += other.intervals_pruned_by_bound;
  return *this;
}

SplitCandidate SplitFinder::SeedAttribute(
    const split_internal::AttributeContext& /*ctx*/,
    const SplitScorer& /*scorer*/, const SplitOptions& /*options*/,
    SplitCounters* /*counters*/,
    split_internal::EvalBuffers* /*buffers*/) const {
  return SplitCandidate();
}

SplitCandidate SplitFinder::FindBestSplit(const Dataset& data,
                                          const AttributeIndex& index,
                                          const NodeSet& set,
                                          const SplitScorer& scorer,
                                          const SplitOptions& options,
                                          SplitCounters* counters,
                                          TaskPool* pool) const {
  const int num_attributes = data.num_attributes();
  const int num_classes = data.num_classes();
  const bool seeded = NeedsGlobalSeed();
  // A node that searches has a list per numerical attribute, one window
  // per tuple; only a node that stops before its search may lack them.
  UDT_CHECK(set.lists.size() == static_cast<size_t>(num_attributes));
  for (int j = 0; j < num_attributes; ++j) {
    UDT_CHECK(data.schema().attribute(j).kind != AttributeKind::kNumerical ||
              set.lists[static_cast<size_t>(j)].window_size.size() ==
                  set.tuples.size());
  }

  if (pool == nullptr && !seeded) {
    // Serial local finder (UDT/AVG/BP/LP): one attribute at a time keeps a
    // single scan alive.
    SplitCandidate best;
    SplitCandidate no_seed;
    for (int j = 0; j < num_attributes; ++j) {
      if (!options.AttributeAllowed(j)) continue;
      split_internal::AttributeContext ctx =
          split_internal::BuildContextForAttribute(data, index, set, j,
                                                   options, num_classes);
      if (ctx.scan.empty()) continue;
      split_internal::EvalBuffers buffers;
      MergeCandidate(
          SearchAttribute(ctx, scorer, options, no_seed, counters, &buffers),
          &best);
    }
    return best;
  }

  // Per-attribute slots: every task writes only its own entry, and all
  // reductions below run in ascending attribute order.
  struct AttributeSlot {
    split_internal::AttributeContext ctx;
    SplitCandidate seed;
    SplitCandidate best;
    SplitCounters counters;
  };
  std::vector<AttributeSlot> slots(static_cast<size_t>(num_attributes));

  ForEachIndex(pool, slots.size(), [&](size_t a) {
    const int j = static_cast<int>(a);
    if (!options.AttributeAllowed(j)) return;  // slot stays empty
    AttributeSlot& slot = slots[a];
    slot.ctx = split_internal::BuildContextForAttribute(data, index, set, j,
                                                        options, num_classes);
    if (slot.ctx.scan.empty()) return;
    split_internal::EvalBuffers buffers;
    if (seeded) {
      slot.seed =
          SeedAttribute(slot.ctx, scorer, options, &slot.counters, &buffers);
    } else {
      // Local finders need no cross-attribute phase: search immediately
      // and release the scan.
      SplitCandidate no_seed;
      slot.best = SearchAttribute(slot.ctx, scorer, options, no_seed,
                                  &slot.counters, &buffers);
      slot.ctx = split_internal::AttributeContext();
    }
  });

  SplitCandidate global_seed;
  if (seeded) {
    for (const AttributeSlot& slot : slots) {
      MergeCandidate(slot.seed, &global_seed);
    }
    ForEachIndex(pool, slots.size(), [&](size_t a) {
      AttributeSlot& slot = slots[a];
      if (slot.ctx.scan.empty()) return;
      split_internal::EvalBuffers buffers;
      slot.best = SearchAttribute(slot.ctx, scorer, options, global_seed,
                                  &slot.counters, &buffers);
      slot.ctx = split_internal::AttributeContext();
    });
  }

  SplitCandidate best = global_seed;
  for (const AttributeSlot& slot : slots) {
    MergeCandidate(slot.best, &best);
  }
  if (counters != nullptr) {
    for (const AttributeSlot& slot : slots) {
      *counters += slot.counters;
    }
  }
  return best;
}

bool SplitCandidate::BetterThan(const SplitCandidate& other) const {
  UDT_DCHECK(valid);
  if (!other.valid) return true;
  if (score < other.score - kScoreTieEpsilon) return true;
  if (score > other.score + kScoreTieEpsilon) return false;
  if (attribute != other.attribute) return attribute < other.attribute;
  return split_point < other.split_point;
}

std::unique_ptr<SplitFinder> MakeSplitFinder(SplitAlgorithm algorithm) {
  switch (algorithm) {
    case SplitAlgorithm::kAvg:
      return split_internal::MakeExhaustiveFinder("AVG");
    case SplitAlgorithm::kUdt:
      return split_internal::MakeExhaustiveFinder("UDT");
    case SplitAlgorithm::kUdtBp:
      return split_internal::MakeBpFinder();
    case SplitAlgorithm::kUdtLp:
      return split_internal::MakeLpFinder();
    case SplitAlgorithm::kUdtGp:
      return split_internal::MakeGpFinder();
    case SplitAlgorithm::kUdtEs:
      return split_internal::MakeEsFinder();
  }
  UDT_CHECK(false);
  return nullptr;
}

}  // namespace udt
