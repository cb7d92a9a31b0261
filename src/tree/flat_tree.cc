#include "tree/flat_tree.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>

#include "common/logging.h"
#include "pdf/pdf_kernels.h"
#include "split/fractional_tuple.h"

namespace udt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Leaf distributions are pooled by exact bit pattern: probabilities that
// compare equal but differ in representation (there are none today, but
// -0.0 vs 0.0 would) must not be merged, or the compiled path could stop
// being bitwise-faithful to the pointer path.
std::vector<uint64_t> BitKey(const std::vector<double>& values) {
  std::vector<uint64_t> key;
  key.reserve(values.size());
  for (double v : values) key.push_back(std::bit_cast<uint64_t>(v));
  return key;
}

}  // namespace

int FlatTree::num_leaves() const {
  int leaves = 0;
  for (uint8_t k : kind) {
    if (static_cast<FlatNodeKind>(k) == FlatNodeKind::kLeaf) ++leaves;
  }
  return leaves;
}

FlatTree FlattenTree(const DecisionTree& tree) {
  FlatTree flat;
  flat.num_classes = tree.schema().num_classes();

  // Pass 1: assign breadth-first ids. The worklist holds pointers in id
  // order; a node's children are appended together, so a numerical node's
  // right child always lands at left-id + 1.
  std::vector<const TreeNode*> order;
  order.push_back(&tree.root());
  for (size_t i = 0; i < order.size(); ++i) {
    const TreeNode* node = order[i];
    if (node->is_leaf()) continue;
    if (node->is_categorical) {
      for (const std::unique_ptr<TreeNode>& child : node->children) {
        if (child != nullptr) order.push_back(child.get());
      }
    } else {
      order.push_back(node->left.get());
      order.push_back(node->right.get());
    }
  }

  const size_t n = order.size();
  flat.kind.reserve(n);
  flat.attribute.reserve(n);
  flat.split_point.reserve(n);
  flat.first.reserve(n);
  flat.num_children.reserve(n);

  // Pass 2: emit records. next_child tracks the id the next enqueued child
  // received in pass 1; the two passes enqueue in identical order.
  std::map<std::vector<uint64_t>, int32_t> pooled_leaves;
  int32_t next_child = 1;
  for (const TreeNode* node : order) {
    if (node->is_leaf()) {
      flat.kind.push_back(static_cast<uint8_t>(FlatNodeKind::kLeaf));
      flat.attribute.push_back(-1);
      flat.split_point.push_back(0.0);
      flat.num_children.push_back(0);
      auto [it, inserted] = pooled_leaves.emplace(
          BitKey(node->distribution),
          static_cast<int32_t>(flat.leaf_values.size()));
      if (inserted) {
        flat.leaf_values.insert(flat.leaf_values.end(),
                                node->distribution.begin(),
                                node->distribution.end());
      }
      flat.first.push_back(it->second);
      continue;
    }
    flat.attribute.push_back(node->attribute);
    if (node->is_categorical) {
      flat.kind.push_back(static_cast<uint8_t>(FlatNodeKind::kCategorical));
      flat.split_point.push_back(0.0);
      flat.first.push_back(static_cast<int32_t>(flat.child_table.size()));
      flat.num_children.push_back(static_cast<int32_t>(node->children.size()));
      for (const std::unique_ptr<TreeNode>& child : node->children) {
        flat.child_table.push_back(child != nullptr ? next_child++ : -1);
      }
    } else {
      flat.kind.push_back(static_cast<uint8_t>(FlatNodeKind::kNumerical));
      flat.split_point.push_back(node->split_point);
      flat.first.push_back(next_child);
      flat.num_children.push_back(0);
      next_child += 2;
    }
  }
  UDT_DCHECK(static_cast<size_t>(next_child) == n);
  return flat;
}

#if defined(__GNUC__) || defined(__clang__)
#define UDT_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define UDT_PREFETCH(addr) ((void)0)
#endif

namespace {

// The final renormalisation, identical to ClassifyDistribution's epilogue.
void Renormalise(int num_classes, double* out) {
  double total = 0.0;
  for (int c = 0; c < num_classes; ++c) total += out[c];
  if (total > 0.0) {
    for (int c = 0; c < num_classes; ++c) out[c] /= total;
  } else {
    for (int c = 0; c < num_classes; ++c) {
      out[c] = 1.0 / static_cast<double>(num_classes);
    }
  }
}

// ------------------------------------------------------ batch machinery

// DFS-preorder rank of every node, visiting children in the pointer
// traversal's order (numerical: left then right; categorical: present
// children by ascending category). Two leaves reached by the same tuple
// are accumulated by tree/classify.cc in exactly this rank order, so the
// kernel sorts its deferred leaf hits by rank to replay it. Computed once
// per tree and cached in the scratch (see the lifetime contract on
// FlatTraversalScratch).
const std::vector<int32_t>& DfsRanksFor(const FlatTree& flat,
                                        FlatTraversalScratch* bs) {
  for (const FlatTraversalScratch::RankCacheEntry& entry : bs->rank_cache) {
    if (entry.tree == &flat) return entry.ranks;
  }
  bs->rank_cache.push_back({&flat, {}});
  std::vector<int32_t>& ranks = bs->rank_cache.back().ranks;
  ranks.assign(static_cast<size_t>(flat.num_nodes()), 0);
  std::vector<int32_t> stack;
  stack.push_back(0);
  int32_t next_rank = 0;
  while (!stack.empty()) {
    const int32_t node = stack.back();
    stack.pop_back();
    const size_t i = static_cast<size_t>(node);
    ranks[i] = next_rank++;
    switch (flat.node_kind(node)) {
      case FlatNodeKind::kLeaf:
        break;
      case FlatNodeKind::kNumerical:
        stack.push_back(flat.first[i] + 1);
        stack.push_back(flat.first[i]);
        break;
      case FlatNodeKind::kCategorical: {
        const int32_t* children = flat.child_table.data() + flat.first[i];
        for (int32_t v = flat.num_children[i] - 1; v >= 0; --v) {
          if (children[v] >= 0) stack.push_back(children[v]);
        }
        break;
      }
    }
  }
  return ranks;
}

// Effective numerical bounds for `attribute` on a constraint chain. Each
// record stores fully-updated bounds, so the nearest record wins; no
// record means the root default (-inf, +inf].
void LookupNumericalBounds(const std::vector<FlatBatchConstraint>& arena,
                           int32_t head, int32_t attribute, double* lo,
                           double* hi) {
  for (int32_t c = head; c >= 0;
       c = arena[static_cast<size_t>(c)].parent) {
    const FlatBatchConstraint& rec = arena[static_cast<size_t>(c)];
    if (rec.attribute == attribute) {
      *lo = rec.lo;
      *hi = rec.hi;
      return;
    }
  }
  *lo = -kInf;
  *hi = kInf;
}

// Fixed category for `attribute` on a constraint chain, -1 if free.
int32_t LookupCategory(const std::vector<FlatBatchConstraint>& arena,
                       int32_t head, int32_t attribute) {
  for (int32_t c = head; c >= 0;
       c = arena[static_cast<size_t>(c)].parent) {
    const FlatBatchConstraint& rec = arena[static_cast<size_t>(c)];
    if (rec.attribute == attribute) return rec.category;
  }
  return -1;
}

// Regroups the frontier (all items on one BFS level, whose node ids are
// contiguous by construction of FlattenTree) into bs->sorted by node id —
// a counting sort over the level's id range. Grouping turns the dispatch
// switch of the processing loop into long same-kind runs (effectively
// branch-free) and makes the node-record loads stride-1.
void GroupFrontierByNode(FlatTraversalScratch* bs) {
  const std::vector<FlatBatchItem>& frontier = bs->frontier;
  int32_t min_id = frontier[0].node;
  int32_t max_id = frontier[0].node;
  for (const FlatBatchItem& item : frontier) {
    min_id = std::min(min_id, item.node);
    max_id = std::max(max_id, item.node);
  }
  const size_t width = static_cast<size_t>(max_id - min_id) + 1;
  std::vector<int32_t>& offsets = bs->group_offsets;
  offsets.assign(width + 1, 0);
  for (const FlatBatchItem& item : frontier) {
    ++offsets[static_cast<size_t>(item.node - min_id) + 1];
  }
  for (size_t g = 1; g <= width; ++g) offsets[g] += offsets[g - 1];
  bs->sorted.resize(frontier.size());
  for (const FlatBatchItem& item : frontier) {
    const size_t slot = static_cast<size_t>(
        offsets[static_cast<size_t>(item.node - min_id)]++);
    bs->sorted[slot] = item;
  }
}

// How far ahead of the processing cursor to issue prefetches. The
// per-item work (a couple of branchless binary searches) comfortably
// covers an L2 latency at this distance.
constexpr size_t kPrefetchAhead = 8;

}  // namespace

void ClassifyFlatMeans(const FlatTree& flat, const UncertainTuple& tuple,
                       FlatTraversalScratch* scratch, double* out) {
  // Reduce the tuple to its means in place of TupleToMeans: a point-mass
  // pdf makes every ConditionalCdf along the followed path exactly 0 or 1,
  // so the full traversal degenerates to one root-leaf walk with weight
  // exactly 1.0, which is what this kernel executes directly. A certain
  // categorical value likewise puts probability exactly 1.0 on one child.
  const size_t k = tuple.values.size();
  scratch->mean_value.assign(k, 0.0);
  scratch->mean_category.assign(k, -1);
  for (size_t j = 0; j < k; ++j) {
    const UncertainValue& v = tuple.values[j];
    if (v.is_numerical()) {
      scratch->mean_value[j] = v.pdf().Mean();
    } else {
      scratch->mean_category[j] = v.categorical().MostLikely();
    }
  }

  std::fill(out, out + flat.num_classes, 0.0);
  int32_t node = 0;
  for (;;) {
    const size_t i = static_cast<size_t>(node);
    const FlatNodeKind kind = flat.node_kind(node);
    if (kind == FlatNodeKind::kLeaf) {
      const double* dist = flat.leaf_values.data() + flat.first[i];
      for (int c = 0; c < flat.num_classes; ++c) {
        out[c] += 1.0 * dist[c];
      }
      break;
    }
    const size_t j = static_cast<size_t>(flat.attribute[i]);
    if (kind == FlatNodeKind::kCategorical) {
      // A category outside the node's arity (a tuple whose categorical pdf
      // is wider than the schema's attribute, or -1 for a numerical value
      // in a categorical column) behaves like an absent child: no leaf is
      // reached and the uniform fallback of the renormalisation applies.
      // One unsigned compare bounds-checks both ends of the child table.
      const int32_t cat = scratch->mean_category[j];
      const int32_t child =
          static_cast<uint32_t>(cat) <
                  static_cast<uint32_t>(flat.num_children[i])
              ? flat.child_table[static_cast<size_t>(flat.first[i]) +
                                 static_cast<size_t>(cat)]
              : -1;
      if (child < 0) break;
      node = child;
    } else {
      node = scratch->mean_value[j] <= flat.split_point[i] ? flat.first[i]
                                                           : flat.first[i] + 1;
    }
  }
  Renormalise(flat.num_classes, out);
}

// ------------------------------------------------------- UDT kernel
//
// Level-synchronous traversal: instead of finishing one tuple's tree walk
// before starting the next, a frontier of (tuple, node, weight,
// constraint-chain) work items advances one BFS level per round. Every
// round groups the frontier by node id (counting sort over the level's
// contiguous id range), then streams through the groups — same node
// record, same dispatch arm, prefetched tuple data — so the memory system
// sees long regular runs instead of per-tuple pointer chases. Fragments
// that reach leaves are not accumulated on the spot (frontier order is
// level order, not DFS order); they are collected as (tuple, DFS rank,
// leaf, weight) hits and replayed per tuple in rank order, which is
// precisely the pointer traversal's accumulation order. Identical
// per-split arithmetic (the fused pdf/pdf_kernels.h evaluation is bitwise
// equal to tree/classify.cc's ConstrainedMass + ConditionalCdf) plus
// identical accumulation order gives output bitwise-identical to
// ClassifyDistribution for every batch size, one tuple included.
//
// Memory note: the frontier and hit buffers scale with the total number
// of live fragments in the block. For real trees fragments per tuple are
// modest; the buffers retain capacity across calls.

void ClassifyFlatBatch(const FlatTree& flat,
                       const UncertainTuple* const* tuples,
                       double* const* rows, size_t n,
                       FlatTraversalScratch* scratch) {
  UDT_CHECK(n <= static_cast<size_t>(
                     std::numeric_limits<int32_t>::max()));
  FlatTraversalScratch& bs = *scratch;
  const std::vector<int32_t>& ranks = DfsRanksFor(flat, &bs);

  bs.frontier.clear();
  bs.constraints.clear();
  bs.hits.clear();
  bs.frontier.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    bs.frontier.push_back({static_cast<int32_t>(t), 0, -1, 1.0});
  }

  while (!bs.frontier.empty()) {
    GroupFrontierByNode(&bs);
    bs.frontier.clear();
    const std::vector<FlatBatchItem>& level = bs.sorted;
    for (size_t idx = 0; idx < level.size(); ++idx) {
      if (idx + kPrefetchAhead < level.size()) {
        const FlatBatchItem& pf = level[idx + kPrefetchAhead];
        UDT_PREFETCH(tuples[pf.tuple]);
        if (flat.node_kind(pf.node) == FlatNodeKind::kLeaf) {
          UDT_PREFETCH(flat.leaf_values.data() +
                       flat.first[static_cast<size_t>(pf.node)]);
        }
      }
      const FlatBatchItem item = level[idx];
      const size_t i = static_cast<size_t>(item.node);
      const FlatNodeKind kind = flat.node_kind(item.node);
      if (kind == FlatNodeKind::kLeaf) {
        bs.hits.push_back({item.tuple, ranks[i], flat.first[i], item.weight});
        continue;
      }

      const int32_t attribute = flat.attribute[i];
      const size_t j = static_cast<size_t>(attribute);
      const UncertainTuple& tuple = *tuples[item.tuple];
      if (kind == FlatNodeKind::kCategorical) {
        const CategoricalPdf& dist = tuple.values[j].categorical();
        const int32_t* children = flat.child_table.data() + flat.first[i];
        const int32_t fixed =
            LookupCategory(bs.constraints, item.constraint, attribute);
        if (fixed >= 0) {
          const int32_t child = children[fixed];
          UDT_DCHECK(child >= 0);
          bs.frontier.push_back(
              {item.tuple, child, item.constraint, item.weight});
          continue;
        }
        for (int32_t v = 0; v < flat.num_children[i]; ++v) {
          const double p = dist.probability(v);
          if (p <= 0.0 || children[v] < 0) continue;
          const double w = item.weight * p;
          // The pointer path lets the child visit's entry guard drop the
          // fragment; dropping it at push time is the same observable
          // behaviour without a dead work item.
          if (w < kMinFractionWeight) continue;
          const int32_t rec = static_cast<int32_t>(bs.constraints.size());
          bs.constraints.push_back(
              {item.constraint, attribute, v, -kInf, kInf});
          bs.frontier.push_back({item.tuple, children[v], rec, w});
        }
        continue;
      }

      double lo;
      double hi;
      LookupNumericalBounds(bs.constraints, item.constraint, attribute, &lo,
                            &hi);
      const SampledPdf& pdf = tuple.values[j].pdf();
      // One fused lockstep evaluation yields both the constrained mass and
      // p_left of the pointer path's ConstrainedMass + ConditionalCdf pair,
      // bit for bit (see pdf/pdf_kernels.h).
      const PdfSplitEval eval =
          PdfEvalNumericalSplit(pdf, lo, hi, flat.split_point[i]);
      if (eval.mass <= 0.0) continue;
      const double w_left = item.weight * eval.p_left;
      if (w_left >= kMinFractionWeight) {
        const int32_t rec = static_cast<int32_t>(bs.constraints.size());
        bs.constraints.push_back({item.constraint, attribute, -1, lo,
                                  std::min(hi, flat.split_point[i])});
        bs.frontier.push_back({item.tuple, flat.first[i], rec, w_left});
      }
      const double w_right = item.weight - w_left;
      if (w_right >= kMinFractionWeight) {
        const int32_t rec = static_cast<int32_t>(bs.constraints.size());
        bs.constraints.push_back({item.constraint, attribute, -1,
                                  std::max(lo, flat.split_point[i]), hi});
        bs.frontier.push_back({item.tuple, flat.first[i] + 1, rec, w_right});
      }
    }
  }

  // Replay the deferred leaf hits in the pointer accumulation order: per
  // tuple, ascending DFS rank. A tuple never holds two fragments on the
  // same node (fragments split onto distinct children), so (tuple, rank)
  // is a strict key and the sort is fully deterministic.
  std::sort(bs.hits.begin(), bs.hits.end(),
            [](const FlatLeafHit& a, const FlatLeafHit& b) {
              return a.tuple != b.tuple ? a.tuple < b.tuple : a.rank < b.rank;
            });
  const int k = flat.num_classes;
  for (size_t t = 0; t < n; ++t) std::fill(rows[t], rows[t] + k, 0.0);
  for (const FlatLeafHit& hit : bs.hits) {
    double* row = rows[hit.tuple];
    const double* dist = flat.leaf_values.data() + hit.leaf_offset;
    for (int c = 0; c < k; ++c) row[c] += hit.weight * dist[c];
  }
  for (size_t t = 0; t < n; ++t) Renormalise(k, rows[t]);
}

}  // namespace udt
