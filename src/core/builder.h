// TreeBuilder: the top-down greedy construction shared by AVG and all UDT
// variants (Sections 4.1-4.2). At each node the configured SplitFinder
// proposes the best numerical split, categorical attributes are scored by
// the Section 7.2 rule, the working set is partitioned into fractional
// tuples and the children are built recursively.
//
// Construction is parallel under TreeConfig::num_threads: independent
// subtrees build concurrently on a work-stealing task pool and large nodes
// fan their per-attribute split scans out as subtasks (see the scheduler
// notes in core/builder.cc). The built tree is bitwise-identical for every
// thread count.

#ifndef UDT_CORE_BUILDER_H_
#define UDT_CORE_BUILDER_H_

#include "common/statusor.h"
#include "core/config.h"
#include "split/split_finder.h"
#include "table/dataset.h"
#include "tree/tree.h"

namespace udt {

// Work and structure statistics of one build.
struct BuildStats {
  SplitCounters counters;       // accumulated over every node
  int nodes = 0;                // before post-pruning
  int leaves = 0;               // before post-pruning
  int subtrees_collapsed = 0;   // by post-pruning
  double build_seconds = 0.0;   // wall-clock, excludes data preparation

  // Field-wise accumulation — the one merge used by the parallel
  // scheduler, the forest trainer and cross-validation totals alike.
  BuildStats& operator+=(const BuildStats& other) {
    counters += other.counters;
    nodes += other.nodes;
    leaves += other.leaves;
    subtrees_collapsed += other.subtrees_collapsed;
    build_seconds += other.build_seconds;
    return *this;
  }
};

// Builds decision trees from uncertain data sets under a fixed config.
class TreeBuilder {
 public:
  explicit TreeBuilder(TreeConfig config);

  // Trains a tree on `train`. Fails on an empty data set or invalid
  // config. `stats` may be null. `index`, when non-null, must be
  // AttributeIndex::Build(train): callers training several trees on one
  // data set build it once and share it; an index of another shape fails
  // with InvalidArgument. Null builds one for this call.
  StatusOr<DecisionTree> Build(const Dataset& train, BuildStats* stats,
                               const AttributeIndex* index = nullptr) const;

  // Trains a tree on `train` with per-tuple root weights — the bagged-
  // ensemble entry point (api/forest.h): weights[i] is tuple i's bootstrap
  // multiplicity, and tuples with weight <= 0 take no part in the build.
  // Requires one finite non-negative weight per tuple, at least one of
  // them positive. `stats` and `index` as for Build.
  StatusOr<DecisionTree> BuildWeighted(
      const Dataset& train, const std::vector<double>& weights,
      BuildStats* stats, const AttributeIndex* index = nullptr) const;

  const TreeConfig& config() const { return config_; }

 private:
  // Shared implementation: grows the tree from an already-formed root
  // working set, serial or pooled per the config, then post-prunes.
  StatusOr<DecisionTree> BuildFromRoot(const Dataset& train,
                                       WorkingSet root_tuples,
                                       BuildStats* stats,
                                       const AttributeIndex* index) const;

  TreeConfig config_;
};

}  // namespace udt

#endif  // UDT_CORE_BUILDER_H_
