#include "split/attribute_index.h"

#include <bit>
#include <limits>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/task_pool.h"

namespace udt {

namespace {

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

struct KeyedPoint {
  uint64_t key;
  uint32_t id;  // flat (tuple, point) index into the column's ranks
};

}  // namespace

AttributeIndex::Column AttributeIndex::BuildColumn(const Dataset& data,
                                                   int attribute) {
  Column column;
  if (data.schema().attribute(attribute).kind != AttributeKind::kNumerical) {
    return column;
  }
  const size_t j = static_cast<size_t>(attribute);
  const size_t num_tuples = static_cast<size_t>(data.num_tuples());
  column.offsets.resize(num_tuples + 1);
  size_t total = 0;
  for (size_t t = 0; t < num_tuples; ++t) {
    column.offsets[t] = total;
    total += static_cast<size_t>(
        data.tuple(static_cast<int>(t)).values[j].pdf().num_points());
  }
  column.offsets[num_tuples] = total;
  UDT_CHECK(total <= std::numeric_limits<uint32_t>::max());

  std::vector<KeyedPoint> points;
  points.reserve(total);
  for (size_t t = 0; t < num_tuples; ++t) {
    const SampledPdf& pdf = data.tuple(static_cast<int>(t)).values[j].pdf();
    for (int p = 0; p < pdf.num_points(); ++p) {
      points.push_back(KeyedPoint{OrderKey(pdf.point(p)),
                                  static_cast<uint32_t>(points.size())});
    }
  }
  std::vector<KeyedPoint> scratch;
  RadixSortByKey(&points, &scratch, 64,
                 [](const KeyedPoint& point) { return point.key; });

  column.ranks.resize(total);
  uint32_t rank = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i == 0 || points[i].key != points[i - 1].key) {
      if (i > 0) ++rank;
      column.values.push_back(KeyValue(points[i].key));
    }
    column.ranks[points[i].id] = rank;
  }
  column.values.shrink_to_fit();
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
