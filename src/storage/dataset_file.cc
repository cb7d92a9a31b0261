#include "storage/dataset_file.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/quantized_dataset.h"

namespace udt {
namespace {

constexpr char kMagic[] = "udt-dataset v1";
constexpr char kContext[] = "udt-dataset";

// Hostile-header allocation caps: every declared count is bounded before
// anything is reserved. The writer enforces the same caps.
constexpr int64_t kMaxTuples = QuantizationOptions::kMaxTuples;
constexpr int64_t kMaxDictEntries = QuantizationOptions::kMaxDictEntries;
constexpr int kMaxChunkTuples = QuantizationOptions::kMaxChunkTuples;

// Parses one bounded non-negative count token.
std::optional<int64_t> ParseCount(std::string_view token, int64_t max) {
  std::optional<uint64_t> value = ParseUint64(token);
  if (!value || *value > static_cast<uint64_t>(max)) return std::nullopt;
  return static_cast<int64_t>(*value);
}

// Reads one dictionary entry line ("d" + width u16 tokens) into `row`.
Status ReadDictRow(LineReader* reader, int width, std::vector<uint16_t>* row) {
  UDT_RETURN_NOT_OK(reader->Next("dictionary entry"));
  const std::vector<std::string> tokens = SplitString(reader->line(), ' ');
  if (tokens.size() != static_cast<size_t>(width) + 1 || tokens[0] != "d") {
    return reader->Error("bad dictionary entry line");
  }
  row->clear();
  row->reserve(static_cast<size_t>(width));
  uint32_t sum = 0;
  for (int i = 0; i < width; ++i) {
    std::optional<int> mass = ParseInt(tokens[static_cast<size_t>(i) + 1]);
    if (!mass || *mass > static_cast<int>(kQuantizedOne)) {
      return reader->Error("bad dictionary mass: " +
                           tokens[static_cast<size_t>(i) + 1]);
    }
    row->push_back(static_cast<uint16_t>(*mass));
    sum += static_cast<uint32_t>(*mass);
  }
  if (sum == 0) {
    return reader->Error("dictionary entry carries no mass");
  }
  return Status::OK();
}

// Emits `data` in the layout documented in dataset_file.h.
Status WriteDatasetFile(const QuantizedDataset& data,
                        size_t source_decoded_bytes,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);

  const Schema& schema = data.schema();
  const int64_t num_tuples = data.num_tuples();
  out << kMagic << "\n";
  out << "quantized bins " << data.options().bins << " chunk "
      << data.options().chunk_tuples << "\n";
  out << "tuples " << num_tuples << "\n";
  out << "source bytes " << source_decoded_bytes << "\n";
  WriteSchemaBlock(schema, out);

  out << "columns " << schema.num_attributes() << "\n";
  for (int j = 0; j < schema.num_attributes(); ++j) {
    const PdfDictionary& dict = data.dictionary(j);
    if (schema.attribute(j).kind == AttributeKind::kNumerical) {
      const AttributeGrid& grid = data.grid(j);
      out << "column " << j << " num grid " << grid.num_points() << " dict "
          << dict.num_entries() << "\n";
      out << "g";
      for (double point : grid.points()) {
        out << StrFormat(" %a", point);
      }
      out << "\n";
    } else {
      out << "column " << j << " cat width " << dict.width() << " dict "
          << dict.num_entries() << "\n";
    }
    for (uint32_t id = 0; id < dict.num_entries(); ++id) {
      const uint16_t* row = dict.entry(id);
      out << "d";
      for (int i = 0; i < dict.width(); ++i) out << ' ' << row[i];
      out << "\n";
    }
  }

  const int64_t chunk_tuples = data.options().chunk_tuples;
  const int64_t num_chunks = (num_tuples + chunk_tuples - 1) / chunk_tuples;
  out << "chunks " << num_chunks << "\n";
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t begin = c * chunk_tuples;
    const int64_t end = std::min(begin + chunk_tuples, num_tuples);
    out << "chunk " << c << " tuples " << (end - begin) << "\n";
    out << "l";
    for (int64_t i = begin; i < end; ++i) {
      out << ' ' << data.labels()[static_cast<size_t>(i)];
    }
    out << "\n";
    for (int j = 0; j < schema.num_attributes(); ++j) {
      const std::vector<uint32_t>& ids = data.column_ids(j);
      out << "c " << j;
      for (int64_t i = begin; i < end; ++i) {
        out << ' ' << ids[static_cast<size_t>(i)];
      }
      out << "\n";
    }
  }
  out << "end\n";

  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace

StatusOr<DatasetFileStats> ConvertDatasetToFile(
    const Dataset& source, const std::string& path,
    const QuantizationOptions& options) {
  if (source.num_tuples() > kMaxTuples) {
    return Status::InvalidArgument(
        StrFormat("source holds %d tuples, above the container cap %lld",
                  source.num_tuples(), static_cast<long long>(kMaxTuples)));
  }
  UDT_ASSIGN_OR_RETURN(QuantizedDataset quantized,
                       QuantizedDataset::FromDataset(source, options));
  for (int j = 0; j < source.num_attributes(); ++j) {
    const uint32_t entries = quantized.dictionary(j).num_entries();
    if (entries > kMaxDictEntries) {
      return Status::InvalidArgument(StrFormat(
          "attribute %d quantizes to %u dictionary entries, above the "
          "container cap %lld",
          j, entries, static_cast<long long>(kMaxDictEntries)));
    }
  }
  const DatasetMemoryBreakdown breakdown = source.MemoryBreakdown();
  UDT_RETURN_NOT_OK(
      WriteDatasetFile(quantized, breakdown.unshared_total_bytes, path));

  DatasetFileStats stats;
  stats.num_tuples = quantized.num_tuples();
  stats.dictionary_entries = quantized.dictionary_entries();
  stats.dictionary_hit_rate = quantized.dictionary_hit_rate();
  stats.source_decoded_bytes = breakdown.unshared_total_bytes;
  stats.quantized_bytes = quantized.MemoryUsageBytes();
  std::ifstream written(path, std::ios::binary | std::ios::ate);
  if (written) {
    stats.file_bytes = static_cast<size_t>(written.tellg());
  }
  return stats;
}

StatusOr<DatasetReader> DatasetReader::Open(const std::string& path) {
  auto in = std::make_unique<std::ifstream>(path);
  if (!*in) return Status::IOError("cannot open for read: " + path);
  auto reader = std::make_unique<LineReader>(*in, kContext);

  UDT_RETURN_NOT_OK(reader->Next("magic"));
  if (reader->line() != kMagic) {
    return reader->Error("bad magic line: " + reader->line());
  }

  UDT_RETURN_NOT_OK(reader->Next("quantized"));
  {
    const std::vector<std::string> tokens =
        SplitString(reader->line(), ' ');
    if (tokens.size() != 5 || tokens[0] != "quantized" ||
        tokens[1] != "bins" || tokens[3] != "chunk") {
      return reader->Error("expected quantized line");
    }
  }
  const std::vector<std::string> quantized_tokens =
      SplitString(reader->line(), ' ');
  std::optional<int64_t> bins =
      ParseCount(quantized_tokens[2], QuantizationOptions::kMaxBins);
  std::optional<int64_t> chunk_tuples =
      ParseCount(quantized_tokens[4], kMaxChunkTuples);
  if (!bins || *bins < 1 || !chunk_tuples || *chunk_tuples < 1) {
    return reader->Error("bad quantized line: " + reader->line());
  }

  UDT_RETURN_NOT_OK(reader->Next("tuples"));
  if (reader->line().rfind("tuples ", 0) != 0) {
    return reader->Error("expected tuples line");
  }
  std::optional<int64_t> num_tuples =
      ParseCount(reader->line().substr(7), kMaxTuples);
  if (!num_tuples || *num_tuples < 1) {
    return reader->Error("bad tuple count");
  }

  UDT_RETURN_NOT_OK(reader->Next("source bytes"));
  if (reader->line().rfind("source bytes ", 0) != 0) {
    return reader->Error("expected source bytes line");
  }
  std::optional<uint64_t> source_bytes =
      ParseUint64(reader->line().substr(13));
  if (!source_bytes) {
    return reader->Error("bad source bytes");
  }

  UDT_ASSIGN_OR_RETURN(Schema schema, ReadSchemaBlock(reader.get()));

  UDT_RETURN_NOT_OK(reader->Next("columns"));
  if (reader->line().rfind("columns ", 0) != 0) {
    return reader->Error("expected columns line");
  }
  std::optional<int> num_columns = ParseInt(reader->line().substr(8));
  if (!num_columns || *num_columns != schema.num_attributes()) {
    return reader->Error("column count does not match the schema");
  }

  std::vector<QuantizedColumn> columns(static_cast<size_t>(*num_columns));
  std::vector<uint16_t> row;
  for (int j = 0; j < *num_columns; ++j) {
    QuantizedColumn& column = columns[static_cast<size_t>(j)];
    const AttributeInfo& info = schema.attribute(j);
    column.kind = info.kind;

    UDT_RETURN_NOT_OK(reader->Next("column header"));
    const std::vector<std::string> tokens =
        SplitString(reader->line(), ' ');
    if (tokens.size() != 7 || tokens[0] != "column" || tokens[5] != "dict") {
      return reader->Error("bad column header: " + reader->line());
    }
    std::optional<int> column_index = ParseInt(tokens[1]);
    if (!column_index || *column_index != j) {
      return reader->Error("column out of order: " + reader->line());
    }
    std::optional<int64_t> dict_entries =
        ParseCount(tokens[6], kMaxDictEntries);
    if (!dict_entries || *dict_entries < 1) {
      return reader->Error("bad dictionary size: " + reader->line());
    }

    int width = 0;
    if (info.kind == AttributeKind::kNumerical) {
      if (tokens[2] != "num" || tokens[3] != "grid") {
        return reader->Error("column kind does not match the schema");
      }
      std::optional<int64_t> grid_points =
          ParseCount(tokens[4], QuantizationOptions::kMaxBins);
      if (!grid_points || *grid_points < 1) {
        return reader->Error("bad grid size: " + reader->line());
      }
      UDT_RETURN_NOT_OK(reader->Next("grid"));
      const std::vector<std::string> grid_tokens =
          SplitString(reader->line(), ' ');
      if (grid_tokens.size() != static_cast<size_t>(*grid_points) + 1 ||
          grid_tokens[0] != "g") {
        return reader->Error("bad grid line");
      }
      std::vector<double> points;
      points.reserve(static_cast<size_t>(*grid_points));
      for (int64_t g = 0; g < *grid_points; ++g) {
        std::optional<double> point =
            ParseDouble(grid_tokens[static_cast<size_t>(g) + 1]);
        if (!point) {
          return reader->Error("bad grid point: " +
                               grid_tokens[static_cast<size_t>(g) + 1]);
        }
        points.push_back(*point);
      }
      // FromSortedPoints rejects NaN/infinite and unsorted points.
      StatusOr<AttributeGrid> grid =
          AttributeGrid::FromSortedPoints(std::move(points));
      if (!grid.ok()) return reader->Error(grid.status().message());
      column.grid = std::move(grid).value();
      width = column.grid.num_points();
    } else {
      if (tokens[2] != "cat" || tokens[3] != "width") {
        return reader->Error("column kind does not match the schema");
      }
      std::optional<int> categories = ParseInt(tokens[4]);
      if (!categories || *categories != info.num_categories) {
        return reader->Error("category width does not match the schema");
      }
      width = *categories;
    }

    column.dict = PdfDictionary(width);
    for (int64_t d = 0; d < *dict_entries; ++d) {
      UDT_RETURN_NOT_OK(ReadDictRow(reader.get(), width, &row));
      column.dict.Append(row.data());
    }
  }

  UDT_RETURN_NOT_OK(reader->Next("chunks"));
  if (reader->line().rfind("chunks ", 0) != 0) {
    return reader->Error("expected chunks line");
  }
  std::optional<int64_t> num_chunks =
      ParseCount(reader->line().substr(7), kMaxTuples);
  const int64_t expected_chunks =
      (*num_tuples + *chunk_tuples - 1) / *chunk_tuples;
  if (!num_chunks || *num_chunks != expected_chunks) {
    return reader->Error(
        StrFormat("bad chunk count: %s (tuples and chunk size imply %lld)",
                  reader->line().c_str(),
                  static_cast<long long>(expected_chunks)));
  }

  DatasetReader result(std::move(schema));
  result.columns_ = std::move(columns);
  result.bins_ = static_cast<int>(*bins);
  result.chunk_tuples_ = static_cast<int>(*chunk_tuples);
  result.num_tuples_ = *num_tuples;
  result.num_chunks_ = *num_chunks;
  result.source_decoded_bytes_ = static_cast<size_t>(*source_bytes);
  result.in_ = std::move(in);
  result.reader_ = std::move(reader);
  return result;
}

Status DatasetReader::AppendChunk(int64_t chunk, Dataset* out) {
  if (chunk < 0 || chunk >= num_chunks_) {
    return Status::InvalidArgument(
        StrFormat("chunk %lld out of range (file holds %lld)",
                  static_cast<long long>(chunk),
                  static_cast<long long>(num_chunks_)));
  }
  if (chunk != next_chunk_) {
    return Status::InvalidArgument(StrFormat(
        "chunks must be streamed in ascending order: asked for %lld, next "
        "is %lld",
        static_cast<long long>(chunk), static_cast<long long>(next_chunk_)));
  }
  if (!SchemaEquals(out->schema(), schema_)) {
    return Status::InvalidArgument(
        "destination schema does not match the storage schema");
  }

  LineReader* reader = reader_.get();
  UDT_RETURN_NOT_OK(reader->Next("chunk header"));
  const std::vector<std::string> header_tokens =
      SplitString(reader->line(), ' ');
  if (header_tokens.size() != 4 || header_tokens[0] != "chunk" ||
      header_tokens[2] != "tuples" ||
      ParseCount(header_tokens[1], kMaxTuples) != chunk) {
    return reader->Error("bad chunk header: " + reader->line());
  }
  const std::optional<int64_t> header_tuples =
      ParseCount(header_tokens[3], kMaxChunkTuples);
  const int64_t begin = chunk * chunk_tuples_;
  const int64_t expected =
      std::min<int64_t>(begin + chunk_tuples_, num_tuples_) - begin;
  if (header_tuples != expected) {
    return reader->Error(
        StrFormat("chunk %lld holds %s tuples, expected %lld",
                  static_cast<long long>(chunk), header_tokens[3].c_str(),
                  static_cast<long long>(expected)));
  }
  const size_t count = static_cast<size_t>(expected);

  UDT_RETURN_NOT_OK(reader->Next("labels"));
  const std::vector<std::string> label_tokens =
      SplitString(reader->line(), ' ');
  if (label_tokens.size() != count + 1 || label_tokens[0] != "l") {
    return reader->Error("bad label line");
  }
  std::vector<int> labels;
  labels.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::optional<int> label = ParseInt(label_tokens[i + 1]);
    if (!label || *label >= schema_.num_classes()) {
      return reader->Error("bad label: " + label_tokens[i + 1]);
    }
    labels.push_back(*label);
  }

  const int num_attributes = schema_.num_attributes();
  std::vector<std::vector<uint32_t>> ids(
      static_cast<size_t>(num_attributes));
  for (int j = 0; j < num_attributes; ++j) {
    UDT_RETURN_NOT_OK(reader->Next("id column"));
    const std::vector<std::string> tokens =
        SplitString(reader->line(), ' ');
    if (tokens.size() != count + 2 || tokens[0] != "c" ||
        tokens[1] != StrFormat("%d", j)) {
      return reader->Error("bad id column line");
    }
    const QuantizedColumn& column = columns_[static_cast<size_t>(j)];
    std::vector<uint32_t>& column_ids = ids[static_cast<size_t>(j)];
    column_ids.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      std::optional<int64_t> id =
          ParseCount(tokens[i + 2], kMaxDictEntries - 1);
      if (!id || *id >= column.dict.num_entries()) {
        return reader->Error("dictionary id out of range: " + tokens[i + 2]);
      }
      column_ids.push_back(static_cast<uint32_t>(*id));
    }
  }

  for (size_t i = 0; i < count; ++i) {
    UncertainTuple tuple;
    tuple.label = labels[i];
    tuple.values.reserve(static_cast<size_t>(num_attributes));
    for (size_t j = 0; j < columns_.size(); ++j) {
      UDT_RETURN_NOT_OK(columns_[j].Decode(ids[j][i], &tuple.values));
    }
    UDT_RETURN_NOT_OK(out->AddTuple(std::move(tuple)));
  }

  ++next_chunk_;
  if (next_chunk_ == num_chunks_) {
    UDT_RETURN_NOT_OK(reader->Next("end"));
    if (reader->line() != "end") {
      return reader->Error("expected end line");
    }
  }
  return Status::OK();
}

size_t DatasetReader::MemoryUsageBytes() const {
  size_t bytes = sizeof(DatasetReader);
  for (const QuantizedColumn& column : columns_) {
    bytes += column.MemoryUsageBytes();
  }
  return bytes;
}

int64_t DatasetReader::dictionary_entries() const {
  int64_t total = 0;
  for (const QuantizedColumn& column : columns_) {
    total += column.dict.num_entries();
  }
  return total;
}

StatusOr<Dataset> MaterializeDataset(DatasetReader* reader,
                                     const StorageBudget& budget) {
  UDT_CHECK(reader != nullptr);
  Dataset out(reader->schema());
  const int64_t chunks = reader->num_chunks();
  for (int64_t c = 0; c < chunks; ++c) {
    UDT_RETURN_NOT_OK(reader->AppendChunk(c, &out));
    if (budget.max_materialized_bytes > 0) {
      const size_t used = out.MemoryUsageBytes();
      if (used > budget.max_materialized_bytes) {
        return Status::OutOfRange(StrFormat(
            "materialised working set exceeds the memory budget after chunk "
            "%lld of %lld: %zu > %zu bytes",
            static_cast<long long>(c + 1), static_cast<long long>(chunks),
            used, budget.max_materialized_bytes));
      }
    }
  }
  return out;
}

}  // namespace udt
