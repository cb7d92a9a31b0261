#include "split/attribute_index.h"

#include <bit>
#include <limits>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/task_pool.h"
#include "pdf/pdf_kernels.h"

namespace udt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Maps doubles to unsigned keys with the same order: flip every bit of a
// negative, only the sign bit of a non-negative. -0.0 is folded onto +0.0
// first (x + 0.0), so the two zeros, which compare equal, share a key.
uint64_t OrderKey(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x + 0.0);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double KeyValue(uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
}

// One (tuple, point) in the sort: its order key, its flat index into the
// column's masses, and the tag of its root event (tuple << 1 |
// window-boundary flag; kOutsideWindow for a point the root never sees).
struct KeyedPoint {
  uint64_t key;
  uint32_t id;
  uint32_t tag;
};

constexpr uint32_t kOutsideWindow = std::numeric_limits<uint32_t>::max();

}  // namespace

AttributeIndex::Column AttributeIndex::BuildColumn(const Dataset& data,
                                                   int attribute) {
  Column column;
  if (data.schema().attribute(attribute).kind != AttributeKind::kNumerical) {
    return column;
  }
  const size_t j = static_cast<size_t>(attribute);
  const size_t num_tuples = static_cast<size_t>(data.num_tuples());
  // The largest tag, (num_tuples - 1) << 1 | 1, stays below kOutsideWindow.
  UDT_CHECK(num_tuples <= std::numeric_limits<uint32_t>::max() >> 1);
  column.offsets.resize(num_tuples + 1);
  size_t total = 0;
  for (size_t t = 0; t < num_tuples; ++t) {
    column.offsets[t] = total;
    total += static_cast<size_t>(
        data.tuple(static_cast<int>(t)).values[j].pdf().num_points());
  }
  column.offsets[num_tuples] = total;
  UDT_CHECK(total <= std::numeric_limits<uint32_t>::max());

  // One sequential pass over the pdfs reads every point and mass, and
  // each tuple's root window: the whole pdf, [0, n) holding
  // cumulative[n-1], found by the window search every list uses.
  AttributeEvents& root = column.root;
  root.window_mass.resize(num_tuples);
  root.window_size.resize(num_tuples);
  DefaultInitVector<KeyedPoint> points(total);
  DefaultInitVector<KeyedPoint> scratch(total);
  DefaultInitVector<double> masses(total);
  size_t num_events = 0;
  for (size_t t = 0; t < num_tuples; ++t) {
    const SampledPdf& pdf = data.tuple(static_cast<int>(t)).values[j].pdf();
    const PdfWindow window = PdfConstrainedWindow(pdf, -kInf, kInf);
    const bool has_mass = window.mass > 0.0;
    root.window_mass[t] = window.mass;
    root.window_size[t] =
        has_mass ? static_cast<uint32_t>(window.end - window.begin) : 0;
    num_events += root.window_size[t];
    const uint32_t tag = static_cast<uint32_t>(t) << 1;
    const size_t base = column.offsets[t];
    for (size_t p = 0; p < static_cast<size_t>(pdf.num_points()); ++p) {
      uint32_t root_tag = kOutsideWindow;
      if (has_mass && p >= window.begin && p < window.end) {
        const bool boundary = p == window.begin || p + 1 == window.end;
        root_tag = tag | (boundary ? 1u : 0u);
      }
      const uint32_t id = static_cast<uint32_t>(base + p);
      const double x = pdf.point(static_cast<int>(p));
      points[id] = KeyedPoint{OrderKey(x), id, root_tag};
      masses[id] = pdf.mass(static_cast<int>(p));
    }
  }
  RadixSortByKey(&points, &scratch, 64,
                 [](const KeyedPoint& point) { return point.key; });
  scratch = DefaultInitVector<KeyedPoint>();

  size_t num_values = total == 0 ? 0 : 1;
  for (size_t i = 1; i < total; ++i) {
    num_values += points[i].key != points[i - 1].key ? 1 : 0;
  }
  column.values.reserve(num_values);
  root.events.resize(num_events);
  // Sorted order is rank order with ties in tuple-then-point order — the
  // root's event order.
  SampleEvent* event = root.events.data();
  uint32_t rank = 0;
  for (size_t i = 0; i < total; ++i) {
    const KeyedPoint& point = points[i];
    if (i == 0 || point.key != points[i - 1].key) {
      if (i > 0) ++rank;
      column.values.push_back(KeyValue(point.key));
    }
    if (point.tag != kOutsideWindow) {
      *event++ = SampleEvent{rank, point.tag, masses[point.id]};
    }
  }
  UDT_CHECK(event == root.events.data() + num_events);
  return column;
}

Status AttributeIndex::CheckMatches(const Dataset& data) const {
  if (num_tuples_ != data.num_tuples() ||
      columns_.size() != static_cast<size_t>(data.num_attributes())) {
    return Status::InvalidArgument(
        "attribute index was built for a data set of another shape");
  }
  for (size_t j = 0; j < columns_.size(); ++j) {
    if (data.schema().attribute(static_cast<int>(j)).kind !=
        AttributeKind::kNumerical) {
      continue;
    }
    const Column& column = columns_[j];
    if (column.offsets.size() != static_cast<size_t>(num_tuples_) + 1) {
      return Status::InvalidArgument(
          "attribute index lacks a numerical attribute of the data set");
    }
    for (size_t t = 0; t < static_cast<size_t>(num_tuples_); ++t) {
      const int points =
          data.tuple(static_cast<int>(t)).values[j].pdf().num_points();
      if (column.offsets[t + 1] - column.offsets[t] !=
          static_cast<size_t>(points)) {
        return Status::InvalidArgument(
            "attribute index point counts differ from the data set's");
      }
    }
  }
  return Status::OK();
}

AttributeIndex AttributeIndex::Build(const Dataset& data, TaskPool* pool) {
  AttributeIndex index;
  index.num_tuples_ = data.num_tuples();
  index.columns_.resize(static_cast<size_t>(data.num_attributes()));
  // Each task writes only its own column.
  ForEachIndex(pool, index.columns_.size(), [&data, &index](size_t j) {
    index.columns_[j] = BuildColumn(data, static_cast<int>(j));
  });
  return index;
}

}  // namespace udt
