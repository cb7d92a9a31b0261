// Flat, cache-friendly decision-tree layout for serving. FlattenTree turns
// the pointer-linked TreeNode graph into a struct-of-arrays record block:
// one record per node in breadth-first order (root at index 0, every node's
// children contiguous), split thresholds and attribute ids in parallel
// arrays, and all leaf class distributions pooled into one table (identical
// distributions are stored once). One flat kernel per model kind follows:
// the level-synchronous UDT kernel and the AVG means walk. Both perform the
// floating-point operations of tree/classify.cc in the same order over
// reusable scratch — their output is bitwise-identical to
// ClassifyDistribution on the source tree, by construction and by test
// (tests/traversal_differential_test.cc).

#ifndef UDT_TREE_FLAT_TREE_H_
#define UDT_TREE_FLAT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "table/dataset.h"
#include "tree/tree.h"

namespace udt {

// Discriminates the three node-record shapes of a FlatTree.
enum class FlatNodeKind : uint8_t {
  kLeaf = 0,
  kNumerical = 1,
  kCategorical = 2,
};

// The serving-side tree: parallel per-node arrays plus two pooled tables.
// Plain data, movable and copyable; CompiledForest wraps it immutably.
struct FlatTree {
  int num_classes = 0;

  // ------------------------------------------------- per-node records
  // All vectors below have one entry per node, breadth-first, root first.

  std::vector<uint8_t> kind;        // FlatNodeKind
  std::vector<int32_t> attribute;   // tested attribute; -1 for leaves
  std::vector<double> split_point;  // numerical nodes; 0 otherwise

  // Kind-dependent index:
  //  * leaf        -> offset of the node's distribution in leaf_values
  //  * numerical   -> id of the left child (the right child is first[i]+1)
  //  * categorical -> offset of the node's child ids in child_table
  std::vector<int32_t> first;

  // Categorical arity (number of child_table slots); 0 for other kinds.
  std::vector<int32_t> num_children;

  // --------------------------------------------------- pooled tables

  // Child ids of categorical nodes; -1 marks an absent (null) child.
  std::vector<int32_t> child_table;

  // Leaf class distributions, num_classes doubles per pooled entry.
  // Leaves with bitwise-identical distributions share one entry.
  std::vector<double> leaf_values;

  int num_nodes() const { return static_cast<int>(kind.size()); }
  int num_leaves() const;

  FlatNodeKind node_kind(int i) const {
    return static_cast<FlatNodeKind>(kind[static_cast<size_t>(i)]);
  }
};

// Flattens `tree` breadth-first. The result classifies bitwise-identically
// to the source tree through the kernels below.
FlatTree FlattenTree(const DecisionTree& tree);

// ---------------------------------------------------- batch work items
// State of the level-synchronous kernel (ClassifyFlatBatch below). All
// per-item path state is explicit data: a frontier of (tuple, node,
// weight, constraint-chain) work items advances one tree level at a time.

// One in-flight tuple fragment of the batch frontier.
struct FlatBatchItem {
  int32_t tuple;       // index into the batch block
  int32_t node;        // node the fragment sits on
  int32_t constraint;  // head of its constraint chain, -1 for none
  double weight;       // fractional mass carried by the fragment
};

// Path-copied constraint record. Each descent appends one record holding
// the attribute's fully-updated bounds (or fixed category), so a lookup
// only needs the nearest record for that attribute; chains share ancestor
// records structurally (an arena of records, never freed mid-batch).
struct FlatBatchConstraint {
  int32_t parent;     // previous record on the path, -1 terminates
  int32_t attribute;  // attribute this record constrains
  int32_t category;   // fixed category; -1 for numerical records
  double lo;          // numerical (lo, hi] interval
  double hi;
};

// A fragment that reached a leaf. Accumulation is deferred and replayed in
// DFS-preorder rank order per tuple, which is exactly the order the
// pointer traversal's depth-first walk adds leaf distributions — the
// float-summation order that makes the kernel bitwise-identical to it.
struct FlatLeafHit {
  int32_t tuple;
  int32_t rank;         // DFS-preorder rank of the leaf node
  int32_t leaf_offset;  // offset of its distribution in leaf_values
  double weight;
};

// Reusable per-worker traversal state. One instance supports any number of
// sequential Classify* calls; after the first call on a given tree/schema
// shape the kernels perform no heap allocation (all buffers retain their
// capacity). Not thread-safe — use one scratch per worker thread.
//
// Lifetime contract for the rank cache: every distinct FlatTree pointer
// classified through one scratch must stay alive (and unmoved) for the
// scratch's lifetime — true for sessions, which co-own their compiled
// artifact; direct kernel callers juggling short-lived trees should use a
// fresh scratch per tree.
struct FlatTraversalScratch {
  // Level-synchronous frontier state of ClassifyFlatBatch.
  std::vector<FlatBatchItem> frontier;
  std::vector<FlatBatchItem> sorted;  // frontier grouped by node id
  std::vector<int32_t> group_offsets;
  std::vector<FlatBatchConstraint> constraints;
  std::vector<FlatLeafHit> hits;

  // Means cache of the averaging walk.
  std::vector<double> mean_value;
  std::vector<int> mean_category;

  // DFS-preorder node ranks, one entry per tree seen by this scratch.
  struct RankCacheEntry {
    const FlatTree* tree;
    std::vector<int32_t> ranks;
  };
  std::vector<RankCacheEntry> rank_cache;
};

// Averaging classification (AVG, Section 4.1): reduces the tuple to its
// means in scratch (no tuple materialised) and follows the single resulting
// root-leaf path. Bitwise-identical to ClassifyDistribution(tree,
// TupleToMeans(tuple)).
void ClassifyFlatMeans(const FlatTree& flat, const UncertainTuple& tuple,
                       FlatTraversalScratch* scratch, double* out);

// Full distribution-based classification (UDT traversal, Section 3.2) of
// tuples[0..n) in one level-synchronous traversal: the frontier advances
// level by level, grouped by node for branch-free dispatch and
// prefetching. Writes tuple t's normalised class distribution into
// rows[t][0..num_classes). Row t is bitwise-identical to
// ClassifyDistribution(tree, *tuples[t]) on the source tree for every n,
// n = 1 included (deferred leaf hits are replayed in the pointer
// traversal's DFS accumulation order); pinned by
// tests/traversal_differential_test.cc and tests/batch_traversal_test.cc.
void ClassifyFlatBatch(const FlatTree& flat,
                       const UncertainTuple* const* tuples,
                       double* const* rows, size_t n,
                       FlatTraversalScratch* scratch);

}  // namespace udt

#endif  // UDT_TREE_FLAT_TREE_H_
