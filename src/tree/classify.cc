#include "tree/classify.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "split/fractional_tuple.h"

namespace udt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TraversalState {
  // Per-attribute numerical constraints (the tuple's pdf conditioned to
  // (lo, hi]) and fixed categories, updated along the path.
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<int> category;
};

// One deferred statement of the traversal's explicit stack. The stack
// replays the former recursion's statement order exactly — constraint
// mutation, child visit, constraint restore — so a degenerate
// hundred-thousand-node split chain costs heap capacity instead of
// overflowing the machine stack. This traversal is the reference oracle
// the flat serving kernels (tree/flat_tree.cc) are pinned to, bit for
// bit.
struct TraversalOp {
  enum Kind : uint8_t { kVisit = 0, kSetLo = 1, kSetHi = 2, kSetCategory = 3 };
  uint8_t kind;
  const TreeNode* node;  // kVisit target
  size_t attribute;      // kSet* target
  int category;          // kSetCategory payload
  double value;          // weight for kVisit, bound for kSetLo/kSetHi
};

void Propagate(const TreeNode& root, const UncertainTuple& tuple,
               TraversalState* state, std::vector<double>* out) {
  std::vector<TraversalOp> ops;
  ops.push_back({TraversalOp::kVisit, &root, 0, -1, 1.0});
  while (!ops.empty()) {
    const TraversalOp op = ops.back();
    ops.pop_back();
    switch (op.kind) {
      case TraversalOp::kSetLo:
        state->lo[op.attribute] = op.value;
        continue;
      case TraversalOp::kSetHi:
        state->hi[op.attribute] = op.value;
        continue;
      case TraversalOp::kSetCategory:
        state->category[op.attribute] = op.category;
        continue;
      default:
        break;
    }

    const double weight = op.value;
    if (weight < kMinFractionWeight) continue;
    const TreeNode& node = *op.node;
    if (node.is_leaf()) {
      for (size_t c = 0; c < out->size(); ++c) {
        (*out)[c] += weight * node.distribution[c];
      }
      continue;
    }

    size_t j = static_cast<size_t>(node.attribute);
    if (node.is_categorical) {
      const CategoricalPdf& dist = tuple.values[j].categorical();
      if (state->category[j] >= 0) {
        const std::unique_ptr<TreeNode>& child =
            node.children[static_cast<size_t>(state->category[j])];
        UDT_DCHECK(child != nullptr);
        ops.push_back({TraversalOp::kVisit, child.get(), 0, -1, weight});
        continue;
      }
      // The recursion visited categories ascending, restoring category[j]
      // between children; push each (set, visit, restore) triple in
      // reverse so the pops replay that exact order.
      for (size_t v = node.children.size(); v-- > 0;) {
        double p = dist.probability(static_cast<int>(v));
        if (p <= 0.0 || node.children[v] == nullptr) continue;
        ops.push_back({TraversalOp::kSetCategory, nullptr, j, -1, 0.0});
        ops.push_back({TraversalOp::kVisit, node.children[v].get(), 0, -1,
                       weight * p});
        ops.push_back({TraversalOp::kSetCategory, nullptr, j,
                       static_cast<int>(v), 0.0});
      }
      continue;
    }

    const SampledPdf& pdf = tuple.values[j].pdf();
    double mass = ConstrainedMass(pdf, state->lo[j], state->hi[j]);
    if (mass <= 0.0) continue;
    double p_left =
        ConditionalCdf(pdf, state->lo[j], state->hi[j], node.split_point);

    // Recursive order: narrow hi, visit left, restore hi, narrow lo,
    // visit right, restore lo. Reading both saved bounds now is safe — a
    // subtree restores every bound it touches before control returns.
    double w_left = weight * p_left;
    double w_right = weight - w_left;
    if (w_right >= kMinFractionWeight) {
      double saved_lo = state->lo[j];
      ops.push_back({TraversalOp::kSetLo, nullptr, j, -1, saved_lo});
      ops.push_back({TraversalOp::kVisit, node.right.get(), 0, -1, w_right});
      ops.push_back({TraversalOp::kSetLo, nullptr, j, -1,
                     std::max(saved_lo, node.split_point)});
    }
    if (w_left >= kMinFractionWeight) {
      double saved_hi = state->hi[j];
      ops.push_back({TraversalOp::kSetHi, nullptr, j, -1, saved_hi});
      ops.push_back({TraversalOp::kVisit, node.left.get(), 0, -1, w_left});
      ops.push_back({TraversalOp::kSetHi, nullptr, j, -1,
                     std::min(saved_hi, node.split_point)});
    }
  }
}

}  // namespace

int ArgMax(const std::vector<double>& values) {
  UDT_CHECK(!values.empty());
  int best = 0;
  for (int i = 1; i < static_cast<int>(values.size()); ++i) {
    if (values[static_cast<size_t>(i)] > values[static_cast<size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

std::vector<double> ClassifyDistribution(const DecisionTree& tree,
                                         const UncertainTuple& tuple) {
  size_t k = static_cast<size_t>(tree.schema().num_attributes());
  UDT_CHECK(tuple.values.size() == k);
  TraversalState state;
  state.lo.assign(k, -kInf);
  state.hi.assign(k, kInf);
  state.category.assign(k, -1);

  std::vector<double> out(
      static_cast<size_t>(tree.schema().num_classes()), 0.0);
  Propagate(tree.root(), tuple, &state, &out);

  // Weight can evaporate only via dropped micro-fragments; renormalise so
  // the result is a proper distribution.
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0) {
    for (double& v : out) v /= total;
  } else {
    for (double& v : out) v = 1.0 / static_cast<double>(out.size());
  }
  return out;
}

int PredictLabel(const DecisionTree& tree, const UncertainTuple& tuple) {
  return ArgMax(ClassifyDistribution(tree, tuple));
}

std::vector<double> ClassifyPointDistribution(
    const DecisionTree& tree, const std::vector<double>& values) {
  UncertainTuple tuple;
  tuple.values.reserve(values.size());
  for (double v : values) {
    tuple.values.push_back(
        UncertainValue::Numerical(SampledPdf::PointMass(v)));
  }
  return ClassifyDistribution(tree, tuple);
}

int PredictPointLabel(const DecisionTree& tree,
                      const std::vector<double>& values) {
  return ArgMax(ClassifyPointDistribution(tree, values));
}

}  // namespace udt
