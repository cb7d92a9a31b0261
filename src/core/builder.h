// TreeBuilder: the top-down greedy construction shared by AVG and all UDT
// variants (Sections 4.1-4.2). At each node the configured SplitFinder
// proposes the best numerical split, categorical attributes are scored by
// the Section 7.2 rule, the working set is partitioned into fractional
// tuples and the children are built recursively.
//
// Construction is parallel under TreeConfig::num_threads, or on a
// caller's pool of that width: independent subtrees build concurrently on
// a work-stealing task pool and large nodes fan their per-attribute split
// scans out as subtasks (see the scheduler notes in core/builder.cc). The
// built tree is bitwise-identical for every thread count.

#ifndef UDT_CORE_BUILDER_H_
#define UDT_CORE_BUILDER_H_

#include "common/statusor.h"
#include "core/config.h"
#include "split/split_finder.h"
#include "table/dataset.h"
#include "tree/tree.h"

namespace udt {

class TaskPool;  // common/task_pool.h

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
  // config. `stats` may be null. `pool`, when non-null, is a caller-owned
  // pool the build runs on, whose width its owner chose at
  // config().num_threads (Trainer::Train checks that); null makes a pool
  // of that width for this call.
  StatusOr<DecisionTree> Build(const Dataset& train, BuildStats* stats,
                               TaskPool* pool = nullptr) const;

  // Trains a tree on `train` with per-tuple root weights: weights[i] is
  // tuple i's multiplicity, and tuples with weight <= 0 take no part in
  // the build. Requires one finite non-negative weight per tuple, at least
  // one of them positive. `stats` and `pool` as for Build.
  StatusOr<DecisionTree> BuildWeighted(const Dataset& train,
                                       const std::vector<double>& weights,
                                       BuildStats* stats,
                                       TaskPool* pool = nullptr) const;

  // Grows a tree from `root`, a root NodeSet of `train` whose lists came
  // from `index`, then post-prunes — the bagged-ensemble entry point
  // (api/forest.h), whose trees share one index and form their roots from
  // it with MakeRootNodeSet. `index` must be AttributeIndex::Build(train)
  // and is not checked here: the caller built it, and checks it once.
  // Subtree and scan tasks run on `pool` when it has workers — from
  // inside one of its tasks too, since waits there help run them — and
  // the recursion is serial otherwise. `stats` as for Build, except that
  // the caller times the build (BuildStats::build_seconds).
  StatusOr<DecisionTree> Grow(const Dataset& train, NodeSet root,
                              const AttributeIndex& index, BuildStats* stats,
                              TaskPool* pool) const;

  const TreeConfig& config() const { return config_; }

 private:
  // Shared body of Build and BuildWeighted: builds the rank index and
  // the root working set's lists on `pool` or on a pool made for this
  // call, then grows the tree.
  StatusOr<DecisionTree> BuildFromRoot(const Dataset& train,
                                       WorkingSet root_tuples,
                                       BuildStats* stats,
                                       TaskPool* pool) const;

  TreeConfig config_;
};

}  // namespace udt

#endif  // UDT_CORE_BUILDER_H_
