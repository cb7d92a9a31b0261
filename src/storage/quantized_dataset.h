// QuantizedDataset: the columnar, dictionary-compressed in-memory form of
// an uncertain data set. Per attribute it holds one AttributeGrid (numeric
// axis, stored once), one PdfDictionary of distinct quantized mass
// vectors, and one uint32 dictionary id per tuple; labels are a flat int32
// column. It is the "udt-dataset v1" writer's intermediate form
// (ConvertDatasetToFile, storage/dataset_file.h): FromDataset quantizes,
// the writer serialises. Decoding happens only on the read side
// (DatasetReader), through the same QuantizedColumn::Decode.

#ifndef UDT_STORAGE_QUANTIZED_DATASET_H_
#define UDT_STORAGE_QUANTIZED_DATASET_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "common/task_pool.h"
#include "storage/quantized_pdf.h"
#include "table/dataset.h"

namespace udt {

class QuantizedDataset {
 public:
  // Quantizes `source` column by column. Numerical attributes whose
  // distinct sample points fit in options.bins keep them exactly (the
  // decode is lossless up to uint16 mass rounding); denser attributes
  // snap to a uniform grid over the observed range. Categorical columns
  // dictionary-compress their probability vectors at full width. Fails on
  // an empty source or invalid options. Columns quantize independently, on
  // `pool`'s threads when given (inline when null), with the same result.
  static StatusOr<QuantizedDataset> FromDataset(
      const Dataset& source, const QuantizationOptions& options = {},
      TaskPool* pool = nullptr);

  const Schema& schema() const { return schema_; }
  int64_t num_tuples() const { return static_cast<int64_t>(labels_.size()); }
  // Resident bytes of the quantized representation (grids + dictionaries +
  // id columns + labels).
  size_t MemoryUsageBytes() const;

  // -------------------------------------------------------- introspection

  const QuantizationOptions& options() const { return options_; }

  // Distinct dictionary entries across all attributes; the hit rate is the
  // fraction of tuple values that reused an existing entry,
  // 1 - entries / (tuples * attributes).
  int64_t dictionary_entries() const;
  double dictionary_hit_rate() const;

  // Per-attribute pieces, for the file writer. `grid`
  // requires a numerical attribute.
  const AttributeGrid& grid(int attribute) const;
  const PdfDictionary& dictionary(int attribute) const;
  const std::vector<uint32_t>& column_ids(int attribute) const;
  const std::vector<int32_t>& labels() const { return labels_; }

 private:
  QuantizedDataset(Schema schema, QuantizationOptions options)
      : schema_(std::move(schema)), options_(options) {}

  Schema schema_;
  QuantizationOptions options_;
  std::vector<QuantizedColumn> columns_;
  std::vector<std::vector<uint32_t>> ids_;  // per attribute, one per tuple
  std::vector<int32_t> labels_;
};

}  // namespace udt

#endif  // UDT_STORAGE_QUANTIZED_DATASET_H_
