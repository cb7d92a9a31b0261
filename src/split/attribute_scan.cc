#include "split/attribute_scan.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"
#include "common/math.h"

namespace udt {

AttributeScan AttributeScan::Build(const Dataset& data,
                                   const AttributeIndex& index,
                                   const NodeSet& set, int attribute,
                                   int num_classes) {
  AttributeScan scan;
  scan.num_classes_ = num_classes;
  scan.Compress(data, index, set.tuples,
                set.lists[static_cast<size_t>(attribute)], attribute);
  return scan;
}

void AttributeScan::Compress(const Dataset& data, const AttributeIndex& index,
                             const WorkingSet& tuples,
                             const AttributeEvents& list, int attribute) {
  const size_t k = static_cast<size_t>(num_classes_);
  class_totals_.assign(k, 0.0);
  const size_t num_events = list.events.size();
  if (num_events == 0) return;
  events_ = list.events.data();
  index_ = &index;
  attribute_ = attribute;

  // An event's mass is its raw pdf mass times its tuple's scale. Each
  // tuple with events flags at most two of them as window ends.
  shares_.resize(tuples.size());
  size_t max_endpoints = 0;
  for (size_t f = 0; f < tuples.size(); ++f) {
    if (list.window_size[f] == 0) continue;  // no events
    shares_[f] = TupleShare{tuples[f].weight / list.window_mass[f],
                            data.tuple(tuples[f].tuple_index).label};
    max_endpoints += 2;
  }

  // One position per distinct rank, with a running per-class sum that is
  // checkpointed every kCheckpoint positions. Sized for one position per
  // event, then cut to the positions written. At every end point the
  // running row also classifies the interval the end point closes.
  event_end_.resize(num_events);
  checkpoints_.resize((num_events + kCheckpoint - 1) / kCheckpoint * k);
  endpoint_positions_.reserve(max_endpoints);
  endpoint_interval_classes_.reserve(max_endpoints);

  // The loop reads and writes only through these restrict pointers, so
  // no store to a position's end or checkpoint can alias the running row
  // or the row at the last end point, which stay in `rows`.
  std::vector<double> rows(2 * k, 0.0);
  double* __restrict running = rows.data();
  double* __restrict at_endpoint = running + k;
  const SampleEvent* __restrict events = events_;
  const TupleShare* __restrict shares = shares_.data();
  uint32_t* __restrict event_end = event_end_.data();
  double* __restrict checkpoints = checkpoints_.data();

  size_t position = 0;
  for (size_t e = 0; e < num_events; ++position) {
    const uint32_t rank = events[e].rank;
    uint32_t tags = 0;  // bit 0: some event of the position is a window end
    do {
      const SampleEvent event = events[e];
      const TupleShare share = shares[event.tag >> 1];
      running[share.cls] += event.mass * share.scale;
      tags |= event.tag;
    } while (++e < num_events && events[e].rank == rank);
    event_end[position] = static_cast<uint32_t>(e);
    if ((tags & 1u) != 0) {
      if (!endpoint_positions_.empty()) {
        uint8_t classes = 0;
        for (size_t c = 0; c < k; ++c) {
          classes += running[c] - at_endpoint[c] > kMassEpsilon ? 1 : 0;
        }
        endpoint_interval_classes_.push_back(std::min<uint8_t>(classes, 2));
      }
      endpoint_positions_.push_back(static_cast<int>(position));
      std::copy(running, running + k, at_endpoint);
    }
    if (position % kCheckpoint == 0) {
      std::copy(running, running + k, checkpoints + position / kCheckpoint * k);
    }
  }
  event_end_.resize(position);
  checkpoints_.resize((position + kCheckpoint - 1) / kCheckpoint * k);
  std::copy(running, running + k, class_totals_.begin());
  total_mass_ = 0.0;
  for (double t : class_totals_) total_mass_ += t;

  UDT_DCHECK(!endpoint_positions_.empty());
  UDT_DCHECK(endpoint_positions_.front() == 0);
  UDT_DCHECK(endpoint_positions_.back() == num_positions() - 1);
}

void AttributeScan::AddPosition(int idx, double* row) const {
  const size_t end = event_end_[static_cast<size_t>(idx)];
  for (size_t e = idx == 0 ? 0 : event_end_[static_cast<size_t>(idx) - 1];
       e < end; ++e) {
    const TupleShare& share = shares_[events_[e].tag >> 1];
    row[share.cls] += events_[e].mass * share.scale;
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
    const TupleShare& share = shares_[events_[e].tag >> 1];
    if (share.cls == cls) mass += events_[e].mass * share.scale;
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
