// Fractional tuples (Section 3.2): when a tuple's pdf straddles a split
// point, the tuple is divided into a left and a right part carrying weights
// w*pL and w*pR and pdfs truncated-and-renormalised to the sub-intervals.
//
// Instead of materialising truncated pdfs, a FractionalTuple keeps a
// reference to the original tuple plus, per numerical attribute, the
// half-open interval (lo, hi] its value is known to lie in. Conditional
// probabilities are then exact ratios of the original CDF:
//   P(X <= z | lo < X <= hi) = (F(min(z,hi)) - F(lo)) / (F(hi) - F(lo)).
// For categorical attributes (Section 7.2) the constraint is a fixed
// category id once an ancestor node has split on that attribute.
//
// A tree node's working set is a NodeSet: its fractional tuples plus, per
// numerical attribute, their sample events in AttributeIndex rank order
// (the presorted attribute lists of SLIQ, Mehta et al., EDBT 1996, and
// SPRINT, Shafer et al., VLDB 1996). Lists are made one way, and never by
// gathering or sorting events: a root takes its lists from the rank index,
// which wrote them while it ranked the points, and filters them by bag
// weight when it does not hold every tuple. Partitioning appends each
// child's tuples in parent order, so a child's events are a stable filter
// of its parent's: on every attribute but the split one a tuple keeps its
// window and its events unchanged, and on the split attribute a child
// keeps the parent's events on its side of the split point. A child that
// the stopping rules make a leaf gets no lists at all. The split scans
// (split/attribute_scan.h) compress these lists, scaling the raw pdf mass
// an event carries by its tuple's weight over its window mass.

#ifndef UDT_SPLIT_FRACTIONAL_TUPLE_H_
#define UDT_SPLIT_FRACTIONAL_TUPLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/default_init.h"
#include "split/attribute_index.h"
#include "table/dataset.h"

namespace udt {

class TaskPool;  // common/task_pool.h

// Fractional-tuple weights below this threshold are dropped during
// partitioning: they carry no statistical information and would otherwise
// multiply without bound down the tree.
inline constexpr double kMinFractionWeight = 1e-9;

// A (possibly fractional) training tuple in a node's working set.
struct FractionalTuple {
  int tuple_index = 0;  // into the Dataset
  // Fraction of the tuple's mass in this working set. In (0, 1] for plain
  // training; bootstrap bags (api/forest.h) seed the root with integer
  // multiplicities, so descendants carry weights in (0, multiplicity].
  double weight = 1.0;
  // Per-attribute numerical constraints; value is conditioned to (lo, hi].
  // Entries for categorical attributes are ignored.
  std::vector<double> lo;
  std::vector<double> hi;
  // Per-attribute fixed category (-1 = unconstrained); entries for
  // numerical attributes are ignored.
  std::vector<int> category;
};

// The fractional tuples of a tree node.
using WorkingSet = std::vector<FractionalTuple>;

// A tree node's working set: its fractional tuples and one event list per
// attribute (empty for categorical attributes). A node that stops before
// its split search has no lists (`lists` is empty).
struct NodeSet {
  WorkingSet tuples;
  std::vector<AttributeEvents> lists;
};

// One fractional tuple of weight 1 per data-set tuple, unconstrained.
WorkingSet MakeRootWorkingSet(const Dataset& data);

// Weighted root set for bagged training: one unconstrained fractional tuple
// of weight weights[i] per data-set tuple, with non-positive weights
// omitted entirely (a bootstrap bag that never drew the tuple). Requires
// weights.size() == num_tuples.
WorkingSet MakeWeightedRootWorkingSet(const Dataset& data,
                                      const std::vector<double>& weights);

// A root NodeSet with its lists from `index`'s root lists. `tuples` must
// be a root working set of `data` (MakeRootWorkingSet or
// MakeWeightedRootWorkingSet: unconstrained, in ascending tuple order).
// Each list is one pass over the index's that keeps the events of
// `tuples`'s tuples — a bag's omitted tuples drop out — and the index
// keeps its lists. The attributes run as parallel tasks
// when `pool` is non-null; the result does not depend on it.
NodeSet MakeRootNodeSet(const Dataset& data, const AttributeIndex& index,
                        WorkingSet tuples, TaskPool* pool = nullptr);

// MakeRootNodeSet for a caller that owns `index` and needs its root lists
// no more: when `tuples` holds every tuple the lists move into the root
// without a copy, else each is filtered as above and then freed.
NodeSet TakeRootNodeSet(const Dataset& data, AttributeIndex* index,
                        WorkingSet tuples, TaskPool* pool = nullptr);

// Probability mass of `pdf` restricted to the constraint (lo, hi], i.e.
// F(hi) - F(lo). Infinite bounds denote "unconstrained".
double ConstrainedMass(const SampledPdf& pdf, double lo, double hi);

// P(X <= z | lo < X <= hi). Requires positive constrained mass.
double ConditionalCdf(const SampledPdf& pdf, double lo, double hi, double z);

// Weighted per-class counts of a working set (the leaf distributions and
// stopping tests use this).
std::vector<double> ClassCounts(const Dataset& data, const WorkingSet& set,
                                int num_classes);

// Total weight of a working set.
double TotalWeight(const WorkingSet& set);

// Whether a child's working set stops before its split search: such a
// child becomes a leaf and never reads its lists, so it gets none.
using ChildStops = std::function<bool(const WorkingSet&)>;

// Splits `set` on numerical attribute `attribute` at `split_point` into
// the tuples going left (value <= z) and right. Tuples straddling the
// point are divided into two fractional tuples with tightened constraints;
// fragments lighter than kMinFractionWeight are dropped. Every tuple's
// window on the split attribute must hold mass (ConditionalCdf's rule,
// which a build keeps: a root window is the whole pdf, and a split keeps a
// child only where its side of the window holds mass).
//
// `set`'s tuples move into the children, leaving it none. One pass per
// attribute then turns each of `set`'s lists into the lists of the
// children that `stops` does not stop (every child when `stops` is
// empty), freeing it as soon as they exist. A stopped child's `lists`
// stay empty, and when both children stop no pass runs. On the split
// attribute the children keep the events on their side of `split_point`,
// with windows and boundary flags from one window search per child
// tuple. The attributes run as parallel tasks when `pool` is non-null;
// the result does not depend on it.
void PartitionNodeSet(const Dataset& data, const AttributeIndex& index,
                      NodeSet* set, int attribute, double split_point,
                      NodeSet* left, NodeSet* right, TaskPool* pool = nullptr,
                      const ChildStops& stops = ChildStops());

// Splits `set` on categorical attribute `attribute` into one bucket per
// category, weighting each copy by the tuple's category probability
// (Section 7.2). The numerical windows do not change, so every listed
// bucket's lists are filters of `set`'s, made in one pass per attribute as
// above; buckets that `stops` stops get no lists.
void PartitionNodeSetCategorical(const Dataset& data, NodeSet* set,
                                 int attribute, int num_categories,
                                 std::vector<NodeSet>* buckets,
                                 TaskPool* pool = nullptr,
                                 const ChildStops& stops = ChildStops());

}  // namespace udt

#endif  // UDT_SPLIT_FRACTIONAL_TUPLE_H_
