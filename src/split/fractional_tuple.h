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
// SPRINT, Shafer et al., VLDB 1996). Only the root gathers and radix-sorts
// its events. Partitioning appends each child's tuples in parent order, so
// a child's events are a stable filter of its parent's: on every attribute
// but the split one a tuple keeps its window and its events unchanged, and
// on the split attribute a child keeps the parent's events on its side of
// the split point. The split scans (split/attribute_scan.h) compress these
// lists, scaling the raw pdf mass an event carries by its tuple's weight
// over its window mass.

#ifndef UDT_SPLIT_FRACTIONAL_TUPLE_H_
#define UDT_SPLIT_FRACTIONAL_TUPLE_H_

#include <cstdint>
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

// One (fractional tuple, effective sample point) of a numerical attribute,
// 16 bytes: the point's AttributeIndex rank, the tuple's position in its
// working set (tag >> 1) with a flag marking the first or last point of
// the tuple's window (tag & 1), and the point's raw pdf.mass(p).
struct SampleEvent {
  uint32_t rank;
  uint32_t tag;
  double mass;
};

// A working set's events on one numerical attribute, ordered by rank with
// ties in working-set order, and each tuple's window on the attribute: its
// constrained mass F(hi) - F(lo) and its number of events (0 when the
// window holds no mass — such a tuple has no events).
struct AttributeEvents {
  DefaultInitVector<SampleEvent> events;
  std::vector<double> window_mass;
  std::vector<uint32_t> window_size;
};

// A tree node's working set: its fractional tuples and one event list per
// attribute (empty for categorical attributes).
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

// Gathers `set`'s events on numerical attribute `attribute`: one window
// search per tuple, then a stable radix sort by rank. `index` must be
// AttributeIndex::Build(data). This is how a root gets its lists, and the
// reference the filtered lists of PartitionNodeSet are tested against.
AttributeEvents GatherAttributeEvents(const Dataset& data,
                                      const AttributeIndex& index,
                                      const WorkingSet& set, int attribute);

// A root NodeSet: `tuples` with their gathered lists for every numerical
// attribute. The attributes gather as parallel tasks when `pool` is
// non-null; the result does not depend on it.
NodeSet MakeNodeSet(const Dataset& data, const AttributeIndex& index,
                    WorkingSet tuples, TaskPool* pool = nullptr);

// Probability mass of `pdf` restricted to the constraint (lo, hi], i.e.
// F(hi) - F(lo). Infinite bounds denote "unconstrained".
double ConstrainedMass(const SampledPdf& pdf, double lo, double hi);

// P(X <= z | lo < X <= hi). Requires positive constrained mass.
double ConditionalCdf(const SampledPdf& pdf, double lo, double hi, double z);

// Mean of the distribution conditioned to (lo, hi]. Requires positive
// constrained mass. Equals pdf.Mean() when unconstrained.
double ConditionalMean(const SampledPdf& pdf, double lo, double hi);

// Weighted per-class counts of a working set (the leaf distributions and
// stopping tests use this).
std::vector<double> ClassCounts(const Dataset& data, const WorkingSet& set,
                                int num_classes);

// Total weight of a working set.
double TotalWeight(const WorkingSet& set);

// Splits `set` on numerical attribute `attribute` at `split_point` into the
// tuples going left (value <= z) and right. Tuples straddling the point are
// divided into two fractional tuples with tightened constraints; fragments
// lighter than kMinFractionWeight are dropped.
void PartitionWorkingSet(const Dataset& data, const WorkingSet& set,
                         int attribute, double split_point, WorkingSet* left,
                         WorkingSet* right);

// Splits `set` on categorical attribute `attribute` into one bucket per
// category, weighting each copy by the tuple's category probability
// (Section 7.2).
void PartitionWorkingSetCategorical(const Dataset& data,
                                    const WorkingSet& set, int attribute,
                                    int num_categories,
                                    std::vector<WorkingSet>* buckets);

// PartitionWorkingSet over a NodeSet: the tuples split as above, and one
// pass per attribute turns each of `set`'s lists into the two children's
// lists, freeing it as soon as they exist (`set` keeps its tuples). On the
// split attribute the children keep the events on their side of
// `split_point`, with windows and boundary flags from one window search
// per child tuple. The attributes run as parallel tasks when `pool` is
// non-null; the result does not depend on it. Each child list equals
// GatherAttributeEvents over the child's tuples.
void PartitionNodeSet(const Dataset& data, const AttributeIndex& index,
                      NodeSet* set, int attribute, double split_point,
                      NodeSet* left, NodeSet* right, TaskPool* pool = nullptr);

// PartitionWorkingSetCategorical over a NodeSet: the numerical windows do
// not change, so every bucket's lists are filters of `set`'s, made in one
// pass per attribute as above.
void PartitionNodeSetCategorical(const Dataset& data, NodeSet* set,
                                 int attribute, int num_categories,
                                 std::vector<NodeSet>* buckets,
                                 TaskPool* pool = nullptr);

}  // namespace udt

#endif  // UDT_SPLIT_FRACTIONAL_TUPLE_H_
