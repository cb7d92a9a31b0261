// The per-node work unit of the tree-construction engine: everything that
// happens at one node — class statistics, stopping rules, the numerical
// split search (optionally attribute-parallel), categorical scoring and
// the partitioning of the working set — packaged as a pure function of the
// node's inputs. Both the serial recursion and the task-based scheduler in
// core/builder.cc consume NodeDecision, which is what keeps the two
// construction orders bitwise-identical.
//
// A node's working set is a NodeSet (split/fractional_tuple.h): its
// fractional tuples plus one rank-ordered event list per numerical
// attribute. The root's lists come from the rank index, which wrote them
// while it ranked the points; every split hands its children lists
// filtered from the node's own in one pass per attribute
// (PartitionNodeSet), so no node gathers or sorts. A child that
// StopsBeforeSearch gets no lists. The split scans compress those lists.

#ifndef UDT_CORE_NODE_BUILD_H_
#define UDT_CORE_NODE_BUILD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "split/split_finder.h"
#include "table/dataset.h"
#include "tree/tree.h"

namespace udt {

// Forward declarations (defined in core/builder.h and common/task_pool.h).
struct BuildStats;
class TaskPool;

// The resolved fate of one node: a leaf, a binary numerical split with the
// two partitioned child working sets, or an n-ary categorical split with
// one bucket per category.
struct NodeDecision {
  enum class Kind { kLeaf, kNumerical, kCategorical };

  Kind kind = Kind::kLeaf;
  // The node itself with class_counts / distribution filled in; split
  // fields are set for the non-leaf kinds. Children are NOT attached —
  // that is the scheduler's job.
  std::unique_ptr<TreeNode> node;

  // kNumerical: the two sides of the best split.
  NodeSet left;
  NodeSet right;

  // kCategorical: one working set per category (possibly empty buckets).
  int categorical_attribute = -1;
  std::vector<NodeSet> buckets;
};

// Inputs shared by every node of one build.
struct NodeBuildContext {
  const Dataset* data = nullptr;
  // The rank index of *data, built once per training call.
  const AttributeIndex* index = nullptr;
  const TreeConfig* config = nullptr;
  const SplitFinder* finder = nullptr;
  SplitOptions split_options;
};

// Per-node identity tokens: a deterministic function of the node's path
// from the root, independent of build order and thread schedule. The
// random-subspace sampler keys on them, which is what keeps subspace
// forests bitwise-identical across thread counts.
inline constexpr uint64_t kRootNodeToken = 0x9E3779B97F4A7C15ULL;

// Token of the child at `child_index` (0/1 for numerical splits, the
// category id for categorical splits) of the node with `parent_token`.
uint64_t ChildNodeToken(uint64_t parent_token, int child_index);

// Draws `k` of `num_attributes` attribute ids without replacement from the
// stream seeded by (seed, token); returns a num_attributes-sized 0/1 mask.
// Requires 0 < k < num_attributes.
std::vector<uint8_t> SampleAttributeSubspace(uint64_t seed, uint64_t token,
                                             int num_attributes, int k);

// The pre-pruning rules: a node at `depth` whose class weights are
// `counts` (ClassCounts of its working set) becomes a leaf before any
// split search — at max_depth, below min_split_weight, or pure (an empty
// set is pure). DecideNode applies it to a node, and to the node's
// children before it partitions, so that a stopping child gets no lists.
bool StopsBeforeSearch(const std::vector<double>& counts, int depth,
                       const TreeConfig& config);

// Evaluates one node. A split consumes `set`'s event lists to make the
// children's; `set` keeps its tuples. `used_categorical` marks categorical
// attributes an ancestor already split on. `node_token` is the node's
// ChildNodeToken chain value (kRootNodeToken at the root); it only matters
// when the config enables random subspaces. When `scan_pool` is non-null
// the split search and the partitioning fan their per-attribute work out
// as pool tasks; the result is bitwise-identical either way. `stats`
// accumulates node/leaf counts and split counters and must not be shared
// across concurrent calls.
NodeDecision DecideNode(const NodeBuildContext& ctx, NodeSet* set,
                        int depth, const std::vector<bool>& used_categorical,
                        uint64_t node_token, TaskPool* scan_pool,
                        BuildStats* stats);

// A leaf carrying the parent's class counts, used for categorical buckets
// no training mass reaches.
std::unique_ptr<TreeNode> MakeFallbackLeaf(const std::vector<double>& counts,
                                           BuildStats* stats);

}  // namespace udt

#endif  // UDT_CORE_NODE_BUILD_H_
