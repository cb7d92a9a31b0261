#include "split/attribute_scan.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "pdf/pdf_kernels.h"

namespace udt {

namespace {

// One (tuple, effective sample point) contribution. `tag` packs the class
// (tag >> 1) with a flag marking the tuple's first or last effective point
// (its support boundary, tag & 1).
struct ScanEvent {
  uint32_t rank;
  uint32_t tag;
  double mass;
};

// How many working-set entries ahead the gather prefetches (measured best
// at 3-4 on a 4-CPU x86 host; 4 absorbs more memory latency).
constexpr size_t kPrefetchDistance = 4;

}  // namespace

AttributeScan AttributeScan::Build(const Dataset& data,
                                   const AttributeIndex& index,
                                   const WorkingSet& set, int attribute,
                                   int num_classes) {
  UDT_DCHECK(index.num_tuples() == data.num_tuples());
  const size_t j = static_cast<size_t>(attribute);
  const size_t k = static_cast<size_t>(num_classes);

  AttributeScan scan;
  scan.num_classes_ = num_classes;
  scan.class_totals_.assign(k, 0.0);

  // Gather one event per (tuple, effective sample point): one lockstep
  // window search per tuple finds the points inside its constraint.
  size_t max_events = 0;
  for (const FractionalTuple& ft : set) {
    max_events += index.num_points(attribute, ft.tuple_index);
  }
  std::vector<ScanEvent> events;
  events.reserve(max_events);
  uint32_t min_rank = std::numeric_limits<uint32_t>::max();
  uint32_t max_rank = 0;
  for (size_t i = 0; i < set.size(); ++i) {
    // Each tuple's pdf, ranks and constraint sit behind their own pointers;
    // start the loads of a tuple a few iterations ahead of its search.
    if (i + kPrefetchDistance < set.size()) {
      const FractionalTuple& ahead = set[i + kPrefetchDistance];
      const SampledPdf& pdf = data.tuple(ahead.tuple_index).values[j].pdf();
      __builtin_prefetch(pdf.points_data());
      __builtin_prefetch(pdf.cumulative_data());
      __builtin_prefetch(index.ranks(attribute, ahead.tuple_index));
      __builtin_prefetch(ahead.lo.data() + j);
      __builtin_prefetch(ahead.hi.data() + j);
    }
    const FractionalTuple& ft = set[i];
    const UncertainTuple& tuple = data.tuple(ft.tuple_index);
    const SampledPdf& pdf = tuple.values[j].pdf();
    UDT_DCHECK(static_cast<size_t>(pdf.num_points()) ==
               index.num_points(attribute, ft.tuple_index));
    const PdfWindow window = PdfConstrainedWindow(pdf, ft.lo[j], ft.hi[j]);
    if (window.mass <= 0.0) continue;  // no mass under the constraint
    const double scale = ft.weight / window.mass;
    const uint32_t* ranks = index.ranks(attribute, ft.tuple_index);
    const uint32_t label = static_cast<uint32_t>(tuple.label) << 1;
    for (size_t p = window.begin; p < window.end; ++p) {
      const bool boundary = p == window.begin || p + 1 == window.end;
      events.push_back(ScanEvent{ranks[p], label | (boundary ? 1u : 0u),
                                 pdf.mass(static_cast<int>(p)) * scale});
    }
    min_rank = std::min(min_rank, ranks[window.begin]);
    max_rank = std::max(max_rank, ranks[window.end - 1]);
  }
  if (events.empty()) return scan;

  // Order by rank. Only the working set's rank span needs sorting, which
  // shrinks the passes at deep nodes; stability keeps ties in working-set
  // order.
  {
    std::vector<ScanEvent> scratch;
    RadixSortByKey(&events, &scratch, std::bit_width(max_rank - min_rank),
                   [min_rank](const ScanEvent& event) {
                     return static_cast<uint64_t>(event.rank - min_rank);
                   });
  }

  // Compress: one position per distinct rank, with a running per-class sum
  // that is checkpointed every kCheckpoint positions.
  const size_t num_events = events.size();
  size_t num_positions = 1;
  for (size_t e = 1; e < num_events; ++e) {
    if (events[e].rank != events[e - 1].rank) ++num_positions;
  }
  scan.xs_.resize(num_positions);
  scan.event_end_.resize(num_positions);
  scan.event_class_.resize(num_events);
  scan.event_mass_.resize(num_events);
  scan.checkpoints_.resize((num_positions + kCheckpoint - 1) / kCheckpoint *
                           k);

  std::vector<double> running(k, 0.0);
  size_t position = 0;
  for (size_t e = 0; e < num_events; ++position) {
    const uint32_t rank = events[e].rank;
    bool endpoint = false;
    for (; e < num_events && events[e].rank == rank; ++e) {
      const uint32_t cls = events[e].tag >> 1;
      running[cls] += events[e].mass;
      scan.event_class_[e] = static_cast<int32_t>(cls);
      scan.event_mass_[e] = events[e].mass;
      endpoint |= (events[e].tag & 1u) != 0;
    }
    scan.xs_[position] = index.value(attribute, rank);
    scan.event_end_[position] = static_cast<uint32_t>(e);
    if (endpoint) {
      scan.endpoint_positions_.push_back(static_cast<int>(position));
    }
    if (position % kCheckpoint == 0) {
      std::copy(running.begin(), running.end(),
                scan.checkpoints_.begin() +
                    static_cast<std::ptrdiff_t>(position / kCheckpoint * k));
    }
  }
  scan.class_totals_ = running;
  scan.total_mass_ = 0.0;
  for (double t : running) scan.total_mass_ += t;

  UDT_DCHECK(!scan.endpoint_positions_.empty());
  UDT_DCHECK(scan.endpoint_positions_.front() == 0);
  UDT_DCHECK(scan.endpoint_positions_.back() == scan.num_positions() - 1);
  return scan;
}

void AttributeScan::AddPosition(int idx, double* row) const {
  const size_t end = event_end_[static_cast<size_t>(idx)];
  for (size_t e = idx == 0 ? 0 : event_end_[static_cast<size_t>(idx) - 1];
       e < end; ++e) {
    row[event_class_[e]] += event_mass_[e];
  }
}

void AttributeScan::LoadRow(int idx, double* row) const {
  const int base = idx - idx % kCheckpoint;
  const double* checkpoint =
      checkpoints_.data() + static_cast<size_t>(base / kCheckpoint) *
                                static_cast<size_t>(num_classes_);
  std::copy(checkpoint, checkpoint + num_classes_, row);
  for (int p = base + 1; p <= idx; ++p) AddPosition(p, row);
}

double AttributeScan::CumulativeMass(int idx, int cls) const {
  const int base = idx - idx % kCheckpoint;
  double mass = checkpoints_[static_cast<size_t>(base / kCheckpoint) *
                                 static_cast<size_t>(num_classes_) +
                             static_cast<size_t>(cls)];
  const size_t begin = event_end_[static_cast<size_t>(base)];
  const size_t end = event_end_[static_cast<size_t>(idx)];
  for (size_t e = begin; e < end; ++e) {
    if (event_class_[e] == cls) mass += event_mass_[e];
  }
  return mass;
}

void AttributeScan::LeftCounts(int idx, std::vector<double>* out) const {
  out->resize(static_cast<size_t>(num_classes_));
  LoadRow(idx, out->data());
}

void AttributeScan::RightCounts(int idx, std::vector<double>* out) const {
  LeftCounts(idx, out);
  for (size_t c = 0; c < out->size(); ++c) {
    const double v = class_totals_[c] - (*out)[c];
    (*out)[c] = v > 0.0 ? v : 0.0;
  }
}

void AttributeScan::IntervalStats(int a_idx, int b_idx,
                                  std::vector<double>* nc,
                                  std::vector<double>* kc,
                                  std::vector<double>* mc) const {
  UDT_DCHECK(a_idx < b_idx);
  LeftCounts(a_idx, nc);
  LeftCounts(b_idx, kc);
  mc->resize(static_cast<size_t>(num_classes_));
  for (size_t c = 0; c < nc->size(); ++c) {
    const double at_b = (*kc)[c];
    const double k = at_b - (*nc)[c];
    (*kc)[c] = k > 0.0 ? k : 0.0;
    const double m = class_totals_[c] - at_b;
    (*mc)[c] = m > 0.0 ? m : 0.0;
  }
}

const std::vector<double>& ScanCursor::Seek(const AttributeScan& scan,
                                            int idx) {
  UDT_DCHECK(scan_ == nullptr || scan_ == &scan);
  scan_ = &scan;
  const int base = idx - idx % AttributeScan::kCheckpoint;
  if (pos_ < base || pos_ > idx) {
    row_.resize(static_cast<size_t>(scan.num_classes()));
    pos_ = idx;
    scan.LoadRow(idx, row_.data());
    return row_;
  }
  for (int p = pos_ + 1; p <= idx; ++p) scan.AddPosition(p, row_.data());
  pos_ = idx;
  return row_;
}

}  // namespace udt
