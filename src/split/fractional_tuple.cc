#include "split/fractional_tuple.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/logging.h"
#include "common/math.h"
#include "common/task_pool.h"
#include "pdf/pdf_kernels.h"

namespace udt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A parent tuple's index in a child working set when it has none there.
constexpr int32_t kAbsent = -1;

bool IsNumerical(const Dataset& data, size_t attribute) {
  return data.schema().attribute(static_cast<int>(attribute)).kind ==
         AttributeKind::kNumerical;
}

// PartitionNodeSet's tuples. `to` receives, per tuple f of `set`, its
// index in `left` at (*to)[2f] and in `right` at (*to)[2f+1] (kAbsent when
// that side dropped it).
void PartitionTuples(const Dataset& data, const WorkingSet& set,
                     int attribute, double split_point, WorkingSet* left,
                     WorkingSet* right, std::vector<int32_t>* to) {
  UDT_CHECK(left != nullptr && right != nullptr);
  left->clear();
  right->clear();
  to->assign(2 * set.size(), kAbsent);
  size_t j = static_cast<size_t>(attribute);
  for (size_t f = 0; f < set.size(); ++f) {
    const FractionalTuple& ft = set[f];
    const SampledPdf& pdf =
        data.tuple(ft.tuple_index).values[j].pdf();
    double p_left = ConditionalCdf(pdf, ft.lo[j], ft.hi[j], split_point);
    double w_left = ft.weight * p_left;
    double w_right = ft.weight - w_left;
    if (w_left >= kMinFractionWeight) {
      (*to)[2 * f] = static_cast<int32_t>(left->size());
      FractionalTuple t = ft;
      t.weight = w_left;
      t.hi[j] = std::min(t.hi[j], split_point);
      left->push_back(std::move(t));
    }
    if (w_right >= kMinFractionWeight) {
      (*to)[2 * f + 1] = static_cast<int32_t>(right->size());
      FractionalTuple t = ft;
      t.weight = w_right;
      t.lo[j] = std::max(t.lo[j], split_point);
      right->push_back(std::move(t));
    }
  }
}

// PartitionNodeSetCategorical's tuples. `to` receives, per tuple f of
// `set`, its index in bucket v at (*to)[f * num_categories + v] (kAbsent
// when the bucket has no copy of it).
void PartitionTuplesCategorical(const Dataset& data, const WorkingSet& set,
                                int attribute, int num_categories,
                                std::vector<WorkingSet>* buckets,
                                std::vector<int32_t>* to) {
  UDT_CHECK(buckets != nullptr);
  buckets->assign(static_cast<size_t>(num_categories), WorkingSet());
  const size_t k = static_cast<size_t>(num_categories);
  to->assign(k * set.size(), kAbsent);
  size_t j = static_cast<size_t>(attribute);
  for (size_t f = 0; f < set.size(); ++f) {
    const FractionalTuple& ft = set[f];
    const CategoricalPdf& dist =
        data.tuple(ft.tuple_index).values[j].categorical();
    if (ft.category[j] >= 0) {
      // Already fixed by an ancestor split; the whole weight follows it.
      WorkingSet& bucket = (*buckets)[static_cast<size_t>(ft.category[j])];
      (*to)[f * k + static_cast<size_t>(ft.category[j])] =
          static_cast<int32_t>(bucket.size());
      bucket.push_back(ft);
      continue;
    }
    for (int v = 0; v < num_categories; ++v) {
      double w = ft.weight * dist.probability(v);
      if (w < kMinFractionWeight) continue;
      WorkingSet& bucket = (*buckets)[static_cast<size_t>(v)];
      (*to)[f * k + static_cast<size_t>(v)] =
          static_cast<int32_t>(bucket.size());
      FractionalTuple t = ft;
      t.weight = w;
      t.category[j] = v;
      bucket.push_back(std::move(t));
    }
  }
}

// The children's lists on an attribute the split leaves alone: every
// child tuple keeps its parent tuple's window and events, so one pass over
// `parent` writes each event to every child holding a copy of its tuple
// (to[f * k + c] for k children, as PartitionTuples* record it), in parent
// order.
void FilterEvents(const AttributeEvents& parent, const std::vector<int32_t>& to,
                  const std::vector<NodeSet*>& children, size_t attribute) {
  const size_t n = parent.window_size.size();
  const size_t k = children.size();
  std::vector<SampleEvent*> out(k);
  for (size_t c = 0; c < k; ++c) {
    AttributeEvents& child = children[c]->lists[attribute];
    const size_t child_tuples = children[c]->tuples.size();
    child.window_mass.resize(child_tuples);
    child.window_size.resize(child_tuples);
    size_t total = 0;
    for (size_t f = 0; f < n; ++f) {
      const int32_t cf = to[f * k + c];
      if (cf == kAbsent) continue;
      child.window_mass[static_cast<size_t>(cf)] = parent.window_mass[f];
      child.window_size[static_cast<size_t>(cf)] = parent.window_size[f];
      total += parent.window_size[f];
    }
    // One slack slot: the loop below writes every event to every child
    // and advances only the children that keep it.
    child.events.resize(total + 1);
    out[c] = child.events.data();
  }
  for (const SampleEvent& event : parent.events) {
    const uint32_t flag = event.tag & 1u;
    const int32_t* dst = to.data() + static_cast<size_t>(event.tag >> 1) * k;
    for (size_t c = 0; c < k; ++c) {
      const int32_t cf = dst[c];
      *out[c] = SampleEvent{event.rank,
                            (static_cast<uint32_t>(cf) << 1) | flag,
                            event.mass};
      out[c] += cf != kAbsent ? 1 : 0;
    }
  }
  for (size_t c = 0; c < k; ++c) {
    AttributeEvents& child = children[c]->lists[attribute];
    UDT_DCHECK(out[c] + 1 == child.events.data() + child.events.size());
    child.events.pop_back();
  }
}

// The children of a partition that get lists: those `stops` does not
// stop, each given one empty list per attribute (a stopped child keeps
// none). `*listed_to` becomes `to` (stride children.size()) cut down to
// the listed children's columns, in order: the map FilterEvents reads.
std::vector<NodeSet*> ListedChildren(const std::vector<NodeSet*>& children,
                                     size_t num_lists, const ChildStops& stops,
                                     const std::vector<int32_t>& to,
                                     std::vector<int32_t>* listed_to) {
  std::vector<NodeSet*> listed;
  std::vector<size_t> columns;
  for (size_t c = 0; c < children.size(); ++c) {
    if (stops && stops(children[c]->tuples)) {
      children[c]->lists.clear();
      continue;
    }
    children[c]->lists.assign(num_lists, AttributeEvents());
    listed.push_back(children[c]);
    columns.push_back(c);
  }
  if (listed.empty()) return listed;
  const size_t k = children.size();
  const size_t n = to.size() / k;
  listed_to->resize(n * columns.size());
  for (size_t f = 0; f < n; ++f) {
    for (size_t c = 0; c < columns.size(); ++c) {
      (*listed_to)[f * columns.size() + c] = to[f * k + columns[c]];
    }
  }
  return listed;
}

// One child's list on the split attribute: the parent's events in
// [begin, end) — the child's side of the split point — of the tuples
// whose new window holds mass (to[2f + side]). Windows come from one
// window search per child tuple; a tuple's first and last kept events are
// its new window ends, so they carry the boundary flag. A child window
// holds mass only inside a parent window that held mass (PartitionNodeSet
// requires it on the split attribute), so the parent listed every event
// the child keeps; the count check below aborts if it did not.
void CutEvents(const Dataset& data, size_t attribute,
               const SampleEvent* begin, const SampleEvent* end,
               const std::vector<int32_t>& to, size_t side, NodeSet* child) {
  AttributeEvents& list = child->lists[attribute];
  const size_t num_tuples = child->tuples.size();
  list.window_mass.resize(num_tuples);
  list.window_size.resize(num_tuples);
  size_t total = 0;
  for (size_t cf = 0; cf < num_tuples; ++cf) {
    const FractionalTuple& ft = child->tuples[cf];
    const PdfWindow window = PdfConstrainedWindow(
        data.tuple(ft.tuple_index).values[attribute].pdf(),
        ft.lo[attribute], ft.hi[attribute]);
    list.window_mass[cf] = window.mass;
    list.window_size[cf] =
        window.mass > 0.0 ? static_cast<uint32_t>(window.end - window.begin)
                          : 0;
    total += list.window_size[cf];
  }

  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> last(num_tuples, kNone);
  list.events.resize(total);
  size_t n = 0;
  for (const SampleEvent* event = begin; event != end; ++event) {
    const int32_t cf = to[2 * static_cast<size_t>(event->tag >> 1) + side];
    if (cf == kAbsent || list.window_size[static_cast<size_t>(cf)] == 0) {
      continue;
    }
    uint32_t& prev = last[static_cast<size_t>(cf)];
    UDT_CHECK(n < total);
    list.events[n] = SampleEvent{
        event->rank,
        (static_cast<uint32_t>(cf) << 1) | (prev == kNone ? 1u : 0u),
        event->mass};
    prev = static_cast<uint32_t>(n++);
  }
  UDT_CHECK(n == total);
  for (uint32_t e : last) {
    if (e != kNone) list.events[e].tag |= 1u;
  }
}

}  // namespace

WorkingSet MakeRootWorkingSet(const Dataset& data) {
  WorkingSet set;
  set.reserve(static_cast<size_t>(data.num_tuples()));
  size_t k = static_cast<size_t>(data.num_attributes());
  for (int i = 0; i < data.num_tuples(); ++i) {
    FractionalTuple ft;
    ft.tuple_index = i;
    ft.weight = 1.0;
    ft.lo.assign(k, -kInf);
    ft.hi.assign(k, kInf);
    ft.category.assign(k, -1);
    set.push_back(std::move(ft));
  }
  return set;
}

WorkingSet MakeWeightedRootWorkingSet(const Dataset& data,
                                      const std::vector<double>& weights) {
  UDT_CHECK(weights.size() == static_cast<size_t>(data.num_tuples()));
  WorkingSet set;
  set.reserve(weights.size());
  size_t k = static_cast<size_t>(data.num_attributes());
  for (int i = 0; i < data.num_tuples(); ++i) {
    double w = weights[static_cast<size_t>(i)];
    if (w <= 0.0) continue;
    FractionalTuple ft;
    ft.tuple_index = i;
    ft.weight = w;
    ft.lo.assign(k, -kInf);
    ft.hi.assign(k, kInf);
    ft.category.assign(k, -1);
    set.push_back(std::move(ft));
  }
  return set;
}

NodeSet MakeRootNodeSet(const Dataset& data, const AttributeIndex& index,
                        WorkingSet tuples, TaskPool* pool) {
  UDT_DCHECK(index.num_tuples() == data.num_tuples());
  NodeSet set;
  set.tuples = std::move(tuples);
  set.lists.resize(static_cast<size_t>(data.num_attributes()));
  // Tuple t of the data set sits at to[t] in the root (kAbsent when a bag
  // omitted it). Ascending tuple order keeps the filtered ties in
  // working-set order.
  std::vector<int32_t> to(static_cast<size_t>(index.num_tuples()), kAbsent);
  int prev = -1;
  for (size_t f = 0; f < set.tuples.size(); ++f) {
    const int t = set.tuples[f].tuple_index;
    UDT_CHECK(t > prev && t < index.num_tuples());
    to[static_cast<size_t>(t)] = static_cast<int32_t>(f);
    prev = t;
  }
  const std::vector<NodeSet*> root = {&set};
  ForEachIndex(pool, set.lists.size(), [&](size_t j) {
    if (!IsNumerical(data, j)) return;
    FilterEvents(index.root_events(static_cast<int>(j)), to, root, j);
  });
  return set;
}

NodeSet TakeRootNodeSet(const Dataset& data, AttributeIndex* index,
                        WorkingSet tuples, TaskPool* pool) {
  UDT_CHECK(index != nullptr);
  const size_t num_lists = static_cast<size_t>(data.num_attributes());
  if (tuples.size() != static_cast<size_t>(index->num_tuples())) {
    NodeSet set = MakeRootNodeSet(data, *index, std::move(tuples), pool);
    for (size_t j = 0; j < num_lists; ++j) {
      index->TakeRootEvents(static_cast<int>(j));
    }
    return set;
  }
  // Every tuple, in order: the index's lists are the root's.
  for (size_t f = 0; f < tuples.size(); ++f) {
    UDT_CHECK(tuples[f].tuple_index == static_cast<int>(f));
  }
  NodeSet set;
  set.tuples = std::move(tuples);
  set.lists.resize(num_lists);
  for (size_t j = 0; j < num_lists; ++j) {
    set.lists[j] = index->TakeRootEvents(static_cast<int>(j));
  }
  return set;
}

// Both functions route through the branchless lockstep kernels of
// pdf/pdf_kernels.h; their results are bitwise-identical to the previous
// std::upper_bound formulation (same cumulative reads, same arithmetic
// order — the +-inf special cases resolve to the exact endpoint values),
// which tests/pdf_kernels_test.cc pins against SampledPdf::CdfAtOrBelow.
double ConstrainedMass(const SampledPdf& pdf, double lo, double hi) {
  return PdfConstrainedMass(pdf, lo, hi);
}

double ConditionalCdf(const SampledPdf& pdf, double lo, double hi, double z) {
  const PdfSplitEval eval = PdfEvalNumericalSplit(pdf, lo, hi, z);
  UDT_DCHECK(eval.mass > 0.0);
  return eval.p_left;
}

std::vector<double> ClassCounts(const Dataset& data, const WorkingSet& set,
                                int num_classes) {
  std::vector<double> counts(static_cast<size_t>(num_classes), 0.0);
  for (const FractionalTuple& ft : set) {
    counts[static_cast<size_t>(data.tuple(ft.tuple_index).label)] += ft.weight;
  }
  return counts;
}

double TotalWeight(const WorkingSet& set) {
  KahanSum sum;
  for (const FractionalTuple& ft : set) sum.Add(ft.weight);
  return sum.value();
}

void PartitionNodeSet(const Dataset& data, const AttributeIndex& index,
                      NodeSet* set, int attribute, double split_point,
                      NodeSet* left, NodeSet* right, TaskPool* pool,
                      const ChildStops& stops) {
  UDT_CHECK(set != nullptr && left != nullptr && right != nullptr);
  std::vector<int32_t> to;
  PartitionTuples(data, set->tuples, attribute, split_point, &left->tuples,
                  &right->tuples, &to);
  const size_t num_lists = set->lists.size();
  const std::vector<NodeSet*> sides = {left, right};
  std::vector<int32_t> listed_to;
  const std::vector<NodeSet*> listed =
      ListedChildren(sides, num_lists, stops, to, &listed_to);
  if (listed.empty()) {
    set->lists.clear();
    return;
  }
  ForEachIndex(pool, num_lists, [&](size_t j) {
    if (!IsNumerical(data, j)) return;
    AttributeEvents& parent = set->lists[j];
    if (j != static_cast<size_t>(attribute)) {
      FilterEvents(parent, listed_to, listed, j);
      parent = AttributeEvents();
      return;
    }
    // Rank order is x order: the left side is a prefix.
    const SampleEvent* begin = parent.events.data();
    const SampleEvent* end = begin + parent.events.size();
    const SampleEvent* cut = std::partition_point(
        begin, end, [&](const SampleEvent& event) {
          return index.value(attribute, event.rank) <= split_point;
        });
    for (size_t side = 0; side < 2; ++side) {
      if (sides[side]->lists.empty()) continue;  // stopped: no lists
      CutEvents(data, j, side == 0 ? begin : cut, side == 0 ? cut : end, to,
                side, sides[side]);
    }
    parent = AttributeEvents();
  });
}

void PartitionNodeSetCategorical(const Dataset& data, NodeSet* set,
                                 int attribute, int num_categories,
                                 std::vector<NodeSet>* buckets, TaskPool* pool,
                                 const ChildStops& stops) {
  UDT_CHECK(set != nullptr && buckets != nullptr);
  std::vector<WorkingSet> tuples;
  std::vector<int32_t> to;
  PartitionTuplesCategorical(data, set->tuples, attribute, num_categories,
                             &tuples, &to);
  const size_t num_lists = set->lists.size();
  buckets->assign(static_cast<size_t>(num_categories), NodeSet());
  std::vector<NodeSet*> children;
  for (size_t v = 0; v < buckets->size(); ++v) {
    NodeSet& bucket = (*buckets)[v];
    bucket.tuples = std::move(tuples[v]);
    children.push_back(&bucket);
  }
  std::vector<int32_t> listed_to;
  const std::vector<NodeSet*> listed =
      ListedChildren(children, num_lists, stops, to, &listed_to);
  if (listed.empty()) {
    set->lists.clear();
    return;
  }
  ForEachIndex(pool, num_lists, [&](size_t j) {
    if (!IsNumerical(data, j)) return;
    FilterEvents(set->lists[j], listed_to, listed, j);
    set->lists[j] = AttributeEvents();
  });
}

}  // namespace udt
