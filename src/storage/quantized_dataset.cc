#include "storage/quantized_dataset.h"

#include <set>
#include <vector>

#include "common/logging.h"

namespace udt {

namespace {

// One slot's quantize buffers, on a cache line of its own: their vector
// headers change with every value, and two slots sharing a line would
// stall each other.
struct alignas(64) SlotScratch {
  QuantizeScratch buffers;
};

// Quantizes attribute j of `source` into `column` and its per-tuple `ids`.
Status QuantizeColumn(const Dataset& source, int j,
                      const QuantizationOptions& options,
                      QuantizeScratch* scratch, QuantizedColumn* column,
                      std::vector<uint32_t>* ids) {
  const int num_tuples = source.num_tuples();
  const AttributeInfo& info = source.schema().attribute(j);
  column->kind = info.kind;
  ids->reserve(static_cast<size_t>(num_tuples));

  if (info.kind == AttributeKind::kCategorical) {
    const int width = info.num_categories;
    column->dict = PdfDictionary(width);
    std::vector<double> weights(static_cast<size_t>(width), 0.0);
    for (int i = 0; i < num_tuples; ++i) {
      const CategoricalPdf& pdf =
          source.tuple(i).values[static_cast<size_t>(j)].categorical();
      UDT_CHECK(pdf.num_categories() == width);
      for (int c = 0; c < width; ++c) {
        weights[static_cast<size_t>(c)] = pdf.probability(c);
      }
      ids->push_back(column->dict.Intern(
          FixedPointMasses(weights.data(), width, scratch)));
    }
    return Status::OK();
  }

  // Numerical: gather the distinct sample points, bailing to a uniform
  // grid as soon as they outgrow the bin budget (the set stays bounded
  // either way).
  std::set<double> distinct;
  bool exact = true;
  for (int i = 0; i < num_tuples && exact; ++i) {
    const SampledPdf& pdf =
        source.tuple(i).values[static_cast<size_t>(j)].pdf();
    for (int p = 0; p < pdf.num_points(); ++p) {
      distinct.insert(pdf.point(p));
      if (distinct.size() > static_cast<size_t>(options.bins)) {
        exact = false;
        break;
      }
    }
  }
  if (exact) {
    UDT_ASSIGN_OR_RETURN(
        column->grid,
        AttributeGrid::FromSortedPoints(
            std::vector<double>(distinct.begin(), distinct.end())));
  } else {
    const auto [lo, hi] = source.AttributeRange(j);
    column->grid = AttributeGrid::Uniform(lo, hi, options.bins);
  }
  column->dict = PdfDictionary(column->grid.num_points());
  for (int i = 0; i < num_tuples; ++i) {
    ids->push_back(column->dict.Intern(QuantizeToGrid(
        source.tuple(i).values[static_cast<size_t>(j)].pdf(), column->grid,
        scratch)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<QuantizedDataset> QuantizedDataset::FromDataset(
    const Dataset& source, const QuantizationOptions& options,
    TaskPool* pool) {
  UDT_RETURN_NOT_OK(options.Validate());
  if (source.empty()) {
    return Status::InvalidArgument("cannot quantize an empty data set");
  }

  QuantizedDataset result(source.schema(), options);
  const size_t num_attributes = static_cast<size_t>(source.num_attributes());
  result.columns_.resize(num_attributes);
  result.ids_.resize(num_attributes);
  result.labels_.reserve(static_cast<size_t>(source.num_tuples()));
  for (const UncertainTuple& tuple : source.tuples()) {
    result.labels_.push_back(tuple.label);
  }

  // Each column writes only its own grid, dictionary, ids and status. A
  // column is built locally and moved into place: the result's columns
  // lie side by side, and vector headers that change with every value
  // must not share a cache line with a neighbour's.
  std::vector<SlotScratch> scratch(static_cast<size_t>(NumSlots(pool)));
  std::vector<Status> status(num_attributes);
  ForEachSlotIndex(pool, num_attributes, [&](int slot, size_t j) {
    QuantizedColumn column;
    std::vector<uint32_t> ids;
    status[j] = QuantizeColumn(source, static_cast<int>(j), options,
                               &scratch[static_cast<size_t>(slot)].buffers,
                               &column, &ids);
    result.columns_[j] = std::move(column);
    result.ids_[j] = std::move(ids);
  });
  for (const Status& column_status : status) {
    UDT_RETURN_NOT_OK(column_status);
  }
  return result;
}

size_t QuantizedDataset::MemoryUsageBytes() const {
  size_t bytes = sizeof(QuantizedDataset) +
                 sizeof(int32_t) * labels_.capacity();
  for (size_t j = 0; j < columns_.size(); ++j) {
    bytes += columns_[j].MemoryUsageBytes() +
             sizeof(uint32_t) * ids_[j].capacity();
  }
  return bytes;
}

int64_t QuantizedDataset::dictionary_entries() const {
  int64_t total = 0;
  for (const QuantizedColumn& column : columns_) {
    total += column.dict.num_entries();
  }
  return total;
}

double QuantizedDataset::dictionary_hit_rate() const {
  const double values =
      static_cast<double>(num_tuples()) * schema_.num_attributes();
  if (values <= 0.0) return 0.0;
  return 1.0 - static_cast<double>(dictionary_entries()) / values;
}

const AttributeGrid& QuantizedDataset::grid(int attribute) const {
  const QuantizedColumn& column = columns_[static_cast<size_t>(attribute)];
  UDT_CHECK(column.kind == AttributeKind::kNumerical);
  return column.grid;
}

const PdfDictionary& QuantizedDataset::dictionary(int attribute) const {
  return columns_[static_cast<size_t>(attribute)].dict;
}

const std::vector<uint32_t>& QuantizedDataset::column_ids(
    int attribute) const {
  return ids_[static_cast<size_t>(attribute)];
}

}  // namespace udt
