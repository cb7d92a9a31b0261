#include "storage/dataset_file.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string_view>
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

// Parses a dictionary entry line the way the writer emits it: "d", then
// `width` tokens of plain digits, each at most kQuantizedOne and preceded
// by one space. Returns false on any other line, leaving the verdict to
// the general parse; a line it accepts, the general parse reads the same.
bool ParsePlainDictRow(std::string_view line, int width, uint16_t* row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (p == end || *p++ != 'd') return false;
  for (int i = 0; i < width; ++i) {
    if (p == end || *p++ != ' ') return false;
    uint32_t mass = 0;
    const auto [next, ec] = std::from_chars(p, end, mass);
    if (ec != std::errc() || mass > kQuantizedOne) return false;
    row[i] = static_cast<uint16_t>(mass);
    p = next;
  }
  return p == end;
}

// Parses one dictionary entry line ("d" + width u16 tokens), line
// `line_number` of `reader`'s stream, into `row`. `tokens` is the
// caller's scratch for lines ParsePlainDictRow leaves to the general
// parse.
Status ParseDictRow(const LineReader& reader, int line_number,
                    std::string_view line, int width,
                    std::vector<std::string_view>* tokens, uint16_t* row) {
  if (!ParsePlainDictRow(line, width, row)) {
    SplitStringViews(line, ' ', tokens);
    if (tokens->size() != static_cast<size_t>(width) + 1 ||
        (*tokens)[0] != "d") {
      return reader.ErrorAt(line_number, "bad dictionary entry line");
    }
    for (int i = 0; i < width; ++i) {
      const std::string_view token = (*tokens)[static_cast<size_t>(i) + 1];
      std::optional<int> mass = ParseInt(token);
      if (!mass || *mass > static_cast<int>(kQuantizedOne)) {
        return reader.ErrorAt(line_number,
                              "bad dictionary mass: " + std::string(token));
      }
      row[i] = static_cast<uint16_t>(*mass);
    }
  }
  uint32_t sum = 0;
  for (int i = 0; i < width; ++i) sum += row[i];
  if (sum == 0) {
    return reader.ErrorAt(line_number, "dictionary entry carries no mass");
  }
  return Status::OK();
}

// One column's dictionary rows as the resident pass read them: the lines
// back to back, parsed once the pass is over.
struct DictionaryText {
  int width = 0;
  int first_line = 0;  // line number of row 0
  std::string text;
  std::vector<size_t> ends;  // end offset of each row in `text`

  size_t num_rows() const { return ends.size(); }
  std::string_view row(size_t r) const {
    const size_t begin = r == 0 ? 0 : ends[r - 1];
    return std::string_view(text).substr(begin, ends[r] - begin);
  }
};

// Parses `rows` into `dict`, stopping at the first bad row.
Status ParseDictionary(const LineReader& reader, const DictionaryText& rows,
                       PdfDictionary* dict) {
  std::vector<std::string_view> tokens;
  std::vector<uint16_t> row(static_cast<size_t>(rows.width));
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    UDT_RETURN_NOT_OK(ParseDictRow(reader,
                                   rows.first_line + static_cast<int>(r),
                                   rows.row(r), rows.width, &tokens,
                                   row.data()));
    dict->Append(row.data());
  }
  return Status::OK();
}

// Text emitter of the writer: lines are formatted straight into a
// growing buffer, which goes to the stream with one write. Integers go
// through std::to_chars, which prints the digits operator<< prints
// without the stream's per-value sentry and locale work.
class TextBuffer {
 public:
  // Appends `text` verbatim.
  void Append(std::string_view text) {
    Reserve(text.size());
    std::memcpy(text_.data() + size_, text.data(), text.size());
    size_ += text.size();
  }

  // Starts a line with its one-letter tag ('d', 'l', 'c', 'g') that will
  // carry at most `values` values.
  void Begin(char tag, size_t values) {
    Reserve(2 + values * kMaxValueChars);
    text_[size_++] = tag;
  }

  // Appends " <value>" in decimal.
  void AppendInt(int64_t value) {
    char* end = text_.data() + size_;
    *end++ = ' ';
    end = std::to_chars(end, end + kMaxValueChars - 1, value).ptr;
    size_ = static_cast<size_t>(end - text_.data());
  }

  // Appends " <value as printf %a>": the hexfloat every udt container uses
  // for doubles.
  void AppendHexFloat(double value) {
    size_ += static_cast<size_t>(
        std::snprintf(text_.data() + size_, kMaxValueChars, " %a", value));
  }

  // Ends the line.
  void End() { text_[size_++] = '\n'; }

  // Writes the buffered text to `out` and empties the buffer.
  void WriteTo(std::ostream& out) {
    out.write(text_.data(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }

 private:
  // Room for one " <value>": an int64 takes at most 20 characters, a %a
  // double at most 24.
  static constexpr size_t kMaxValueChars = 32;

  void Reserve(size_t bytes) {
    if (text_.size() < size_ + bytes) {
      text_.resize(std::max(size_ + bytes, 2 * text_.size()));
    }
  }

  std::vector<char> text_;
  size_t size_ = 0;
};

// Formats attribute j's section of the resident part: its column header,
// grid line (numerical columns) and dictionary rows.
void FormatColumn(const QuantizedDataset& data, int j, TextBuffer* text) {
  const PdfDictionary& dict = data.dictionary(j);
  if (data.schema().attribute(j).kind == AttributeKind::kNumerical) {
    const AttributeGrid& grid = data.grid(j);
    text->Append(StrFormat("column %d num grid %d dict %u\n", j,
                           grid.num_points(), dict.num_entries()));
    text->Begin('g', grid.points().size());
    for (double point : grid.points()) text->AppendHexFloat(point);
    text->End();
  } else {
    text->Append(StrFormat("column %d cat width %d dict %u\n", j,
                           dict.width(), dict.num_entries()));
  }
  for (uint32_t id = 0; id < dict.num_entries(); ++id) {
    const uint16_t* row = dict.entry(id);
    text->Begin('d', static_cast<size_t>(dict.width()));
    for (int i = 0; i < dict.width(); ++i) text->AppendInt(row[i]);
    text->End();
  }
}

// Emits `data` in the layout documented in dataset_file.h. The column
// sections are formatted on `pool`'s threads, each into its own buffer,
// and written in column order.
Status WriteDatasetFile(const QuantizedDataset& data,
                        size_t source_decoded_bytes, const std::string& path,
                        TaskPool* pool) {
  // An existing file is overwritten in place and then cut to the new
  // length: a spill path is rewritten on every retrain, and keeping its
  // blocks costs far less than freeing them on truncation and allocating
  // them again. A new file is created.
  std::ofstream out(path, std::ios::in | std::ios::out);
  if (!out) {
    out.clear();
    out.open(path);
  }
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
  // Each section is formatted into a local buffer and moved into place,
  // so no two threads write one cache line.
  std::vector<TextBuffer> sections(
      static_cast<size_t>(schema.num_attributes()));
  ForEachIndex(pool, sections.size(), [&data, &sections](size_t j) {
    TextBuffer section;
    FormatColumn(data, static_cast<int>(j), &section);
    sections[j] = std::move(section);
  });
  for (TextBuffer& section : sections) section.WriteTo(out);

  TextBuffer text;
  const int64_t chunk_tuples = data.options().chunk_tuples;
  const int64_t num_chunks = (num_tuples + chunk_tuples - 1) / chunk_tuples;
  out << "chunks " << num_chunks << "\n";
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t begin = c * chunk_tuples;
    const int64_t end = std::min(begin + chunk_tuples, num_tuples);
    text.Append(StrFormat("chunk %lld tuples %lld\n",
                          static_cast<long long>(c),
                          static_cast<long long>(end - begin)));
    text.Begin('l', static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) {
      text.AppendInt(data.labels()[static_cast<size_t>(i)]);
    }
    text.End();
    for (int j = 0; j < schema.num_attributes(); ++j) {
      const std::vector<uint32_t>& ids = data.column_ids(j);
      text.Begin('c', static_cast<size_t>(end - begin) + 1);
      text.AppendInt(j);
      for (int64_t i = begin; i < end; ++i) {
        text.AppendInt(ids[static_cast<size_t>(i)]);
      }
      text.End();
    }
    text.WriteTo(out);
  }
  out << "end\n";

  const std::streamoff written = out.tellp();
  out.close();
  if (!out) return Status::IOError("write failed: " + path);
  std::error_code error;
  const uintmax_t on_disk = std::filesystem::file_size(path, error);
  if (!error && on_disk > static_cast<uintmax_t>(written)) {
    std::filesystem::resize_file(path, static_cast<uintmax_t>(written),
                                 error);
    if (error) return Status::IOError("cannot cut to length: " + path);
  }
  return Status::OK();
}

}  // namespace

StatusOr<DatasetFileStats> ConvertDatasetToFile(
    const Dataset& source, const std::string& path,
    const QuantizationOptions& options, TaskPool* pool) {
  if (source.num_tuples() > kMaxTuples) {
    return Status::InvalidArgument(
        StrFormat("source holds %d tuples, above the container cap %lld",
                  source.num_tuples(), static_cast<long long>(kMaxTuples)));
  }
  UDT_ASSIGN_OR_RETURN(QuantizedDataset quantized,
                       QuantizedDataset::FromDataset(source, options, pool));
  for (int j = 0; j < source.num_attributes(); ++j) {
    const uint32_t entries = quantized.dictionary(j).num_entries();
    if (entries > kMaxDictEntries) {
      return Status::InvalidArgument(StrFormat(
          "attribute %d quantizes to %u dictionary entries, above the "
          "container cap %lld",
          j, entries, static_cast<long long>(kMaxDictEntries)));
    }
  }
  const size_t source_bytes = source.UnsharedMemoryUsageBytes();
  UDT_RETURN_NOT_OK(WriteDatasetFile(quantized, source_bytes, path, pool));

  DatasetFileStats stats;
  stats.num_tuples = quantized.num_tuples();
  stats.dictionary_entries = quantized.dictionary_entries();
  stats.dictionary_hit_rate = quantized.dictionary_hit_rate();
  stats.source_decoded_bytes = source_bytes;
  stats.quantized_bytes = quantized.MemoryUsageBytes();
  std::ifstream written(path, std::ios::binary | std::ios::ate);
  if (written) {
    stats.file_bytes = static_cast<size_t>(written.tellg());
  }
  return stats;
}

namespace {

// The resident part of a container as its sequential pass reads it.
struct ResidentPart {
  int64_t bins = 0;
  int64_t chunk_tuples = 0;
  int64_t num_tuples = 0;
  uint64_t source_bytes = 0;
  std::optional<Schema> schema;
  // One per column of the file; the dictionaries stay empty until their
  // rows are parsed.
  std::vector<QuantizedColumn> columns;
  // The dictionary rows of every column whose rows the pass began. Sized
  // up front, so an entry never moves once its rows are handed out.
  std::vector<DictionaryText> dictionaries;
  // Each column's parse verdict, one per column of the file.
  std::vector<Status> parsed;
  int64_t num_chunks = 0;
};

// Reads the resident part through `reader` in one pass, checking every
// line except the dictionary rows, which it only collects; `rows_read(j)`
// runs as soon as column j's rows are all in part->dictionaries[j], which
// the pass then leaves alone. Stops at the first bad line; `part` then
// holds the dictionary rows read before it.
Status ReadResident(LineReader* reader, ResidentPart* part,
                    const std::function<void(size_t)>& rows_read) {
  UDT_RETURN_NOT_OK(reader->Next("magic"));
  if (reader->line() != kMagic) {
    return reader->Error("bad magic line: " + reader->line());
  }

  // Token views into the current line, reused by every split below.
  std::vector<std::string_view> tokens;
  UDT_RETURN_NOT_OK(reader->Next("quantized"));
  SplitStringViews(reader->line(), ' ', &tokens);
  if (tokens.size() != 5 || tokens[0] != "quantized" || tokens[1] != "bins" ||
      tokens[3] != "chunk") {
    return reader->Error("expected quantized line");
  }
  std::optional<int64_t> bins =
      ParseCount(tokens[2], QuantizationOptions::kMaxBins);
  std::optional<int64_t> chunk_tuples = ParseCount(tokens[4], kMaxChunkTuples);
  if (!bins || *bins < 1 || !chunk_tuples || *chunk_tuples < 1) {
    return reader->Error("bad quantized line: " + reader->line());
  }
  part->bins = *bins;
  part->chunk_tuples = *chunk_tuples;

  UDT_RETURN_NOT_OK(reader->Next("tuples"));
  if (reader->line().rfind("tuples ", 0) != 0) {
    return reader->Error("expected tuples line");
  }
  std::optional<int64_t> num_tuples =
      ParseCount(std::string_view(reader->line()).substr(7), kMaxTuples);
  if (!num_tuples || *num_tuples < 1) {
    return reader->Error("bad tuple count");
  }
  part->num_tuples = *num_tuples;

  UDT_RETURN_NOT_OK(reader->Next("source bytes"));
  if (reader->line().rfind("source bytes ", 0) != 0) {
    return reader->Error("expected source bytes line");
  }
  std::optional<uint64_t> source_bytes =
      ParseUint64(std::string_view(reader->line()).substr(13));
  if (!source_bytes) {
    return reader->Error("bad source bytes");
  }
  part->source_bytes = *source_bytes;

  UDT_ASSIGN_OR_RETURN(part->schema, ReadSchemaBlock(reader));
  const Schema& schema = *part->schema;

  UDT_RETURN_NOT_OK(reader->Next("columns"));
  if (reader->line().rfind("columns ", 0) != 0) {
    return reader->Error("expected columns line");
  }
  std::optional<int> num_columns =
      ParseInt(std::string_view(reader->line()).substr(8));
  if (!num_columns || *num_columns != schema.num_attributes()) {
    return reader->Error("column count does not match the schema");
  }

  part->columns.resize(static_cast<size_t>(*num_columns));
  part->dictionaries.reserve(static_cast<size_t>(*num_columns));
  part->parsed.resize(static_cast<size_t>(*num_columns));
  for (int j = 0; j < *num_columns; ++j) {
    QuantizedColumn& column = part->columns[static_cast<size_t>(j)];
    const AttributeInfo& info = schema.attribute(j);
    column.kind = info.kind;

    UDT_RETURN_NOT_OK(reader->Next("column header"));
    SplitStringViews(reader->line(), ' ', &tokens);
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
      SplitStringViews(reader->line(), ' ', &tokens);
      if (tokens.size() != static_cast<size_t>(*grid_points) + 1 ||
          tokens[0] != "g") {
        return reader->Error("bad grid line");
      }
      std::vector<double> points;
      points.reserve(static_cast<size_t>(*grid_points));
      for (int64_t g = 0; g < *grid_points; ++g) {
        const std::string_view token = tokens[static_cast<size_t>(g) + 1];
        std::optional<double> point = ParseDouble(token);
        if (!point) {
          return reader->Error("bad grid point: " + std::string(token));
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
    DictionaryText& rows = part->dictionaries.emplace_back();
    rows.width = width;
    rows.first_line = reader->line_number() + 1;
    for (int64_t d = 0; d < *dict_entries; ++d) {
      UDT_RETURN_NOT_OK(reader->AppendNext("dictionary entry", &rows.text));
      rows.ends.push_back(rows.text.size());
    }
    rows_read(static_cast<size_t>(j));
  }

  UDT_RETURN_NOT_OK(reader->Next("chunks"));
  if (reader->line().rfind("chunks ", 0) != 0) {
    return reader->Error("expected chunks line");
  }
  std::optional<int64_t> num_chunks =
      ParseCount(std::string_view(reader->line()).substr(7), kMaxTuples);
  const int64_t expected_chunks =
      (*num_tuples + *chunk_tuples - 1) / *chunk_tuples;
  if (!num_chunks || *num_chunks != expected_chunks) {
    return reader->Error(
        StrFormat("bad chunk count: %s (tuples and chunk size imply %lld)",
                  reader->line().c_str(),
                  static_cast<long long>(expected_chunks)));
  }
  part->num_chunks = *num_chunks;
  return Status::OK();
}

}  // namespace

StatusOr<DatasetReader> DatasetReader::Open(const std::string& path,
                                            TaskPool* pool) {
  auto in = std::make_unique<std::ifstream>(path);
  if (!*in) return Status::IOError("cannot open for read: " + path);
  auto reader = std::make_unique<LineReader>(*in, kContext);

  // Each column parses its own rows, on the pool while the pass reads on:
  // a column's parse starts as soon as the pass has read its rows, and a
  // column the pass stopped inside parses the rows read before the stop.
  // Every row the pass collected comes before the line it stopped at, so
  // a bad row, the first in file order, is the verdict.
  ResidentPart part;
  const LineReader& rows_reader = *reader;
  auto parse = [&part, &rows_reader](size_t j) {
    PdfDictionary& dict = part.columns[j].dict;
    PdfDictionary local(dict.width());  // moved in: see WriteDatasetFile
    part.parsed[j] =
        ParseDictionary(rows_reader, part.dictionaries[j], &local);
    dict = std::move(local);
  };
  TaskGroup parsing;
  size_t handed_out = 0;
  const Status resident =
      ReadResident(reader.get(), &part, [&](size_t j) {
        if (pool != nullptr) {
          pool->Submit(&parsing, [&parse, j] { parse(j); });
        } else {
          parse(j);
        }
        handed_out = j + 1;
      });
  for (size_t j = handed_out; j < part.dictionaries.size(); ++j) parse(j);
  if (pool != nullptr) pool->Wait(&parsing);
  for (size_t j = 0; j < part.dictionaries.size(); ++j) {
    UDT_RETURN_NOT_OK(part.parsed[j]);
  }
  UDT_RETURN_NOT_OK(resident);

  DatasetReader result(std::move(*part.schema));
  result.columns_ = std::move(part.columns);
  result.bins_ = static_cast<int>(part.bins);
  result.chunk_tuples_ = static_cast<int>(part.chunk_tuples);
  result.num_tuples_ = part.num_tuples;
  result.num_chunks_ = part.num_chunks;
  result.source_decoded_bytes_ = static_cast<size_t>(part.source_bytes);
  result.in_ = std::move(in);
  result.reader_ = std::move(reader);
  return result;
}

Status DatasetReader::AppendChunk(int64_t chunk, Dataset* out,
                                 TaskPool* pool) {
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
  std::vector<std::string_view>& tokens = tokens_;
  UDT_RETURN_NOT_OK(reader->Next("chunk header"));
  SplitStringViews(reader->line(), ' ', &tokens);
  if (tokens.size() != 4 || tokens[0] != "chunk" || tokens[2] != "tuples" ||
      ParseCount(tokens[1], kMaxTuples) != chunk) {
    return reader->Error("bad chunk header: " + reader->line());
  }
  const std::optional<int64_t> header_tuples =
      ParseCount(tokens[3], kMaxChunkTuples);
  const int64_t begin = chunk * chunk_tuples_;
  const int64_t expected =
      std::min<int64_t>(begin + chunk_tuples_, num_tuples_) - begin;
  if (header_tuples != expected) {
    return reader->Error(
        StrFormat("chunk %lld holds %s tuples, expected %lld",
                  static_cast<long long>(chunk), std::string(tokens[3]).c_str(),
                  static_cast<long long>(expected)));
  }
  const size_t count = static_cast<size_t>(expected);

  UDT_RETURN_NOT_OK(reader->Next("labels"));
  SplitStringViews(reader->line(), ' ', &tokens);
  if (tokens.size() != count + 1 || tokens[0] != "l") {
    return reader->Error("bad label line");
  }
  std::vector<int> labels;
  labels.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::optional<int> label = ParseInt(tokens[i + 1]);
    if (!label || *label >= schema_.num_classes()) {
      return reader->Error("bad label: " + std::string(tokens[i + 1]));
    }
    labels.push_back(*label);
  }

  const int num_attributes = schema_.num_attributes();
  std::vector<std::vector<uint32_t>> ids(
      static_cast<size_t>(num_attributes));
  for (int j = 0; j < num_attributes; ++j) {
    UDT_RETURN_NOT_OK(reader->Next("id column"));
    SplitStringViews(reader->line(), ' ', &tokens);
    char index[16];
    const char* index_end = std::to_chars(index, index + sizeof(index), j).ptr;
    if (tokens.size() != count + 2 || tokens[0] != "c" ||
        tokens[1] != std::string_view(
                         index, static_cast<size_t>(index_end - index))) {
      return reader->Error("bad id column line");
    }
    const QuantizedColumn& column = columns_[static_cast<size_t>(j)];
    std::vector<uint32_t>& column_ids = ids[static_cast<size_t>(j)];
    column_ids.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      std::optional<int64_t> id =
          ParseCount(tokens[i + 2], kMaxDictEntries - 1);
      if (!id || *id >= column.dict.num_entries()) {
        return reader->Error("dictionary id out of range: " +
                             std::string(tokens[i + 2]));
      }
      column_ids.push_back(static_cast<uint32_t>(*id));
    }
  }

  // Each column decodes its ids through its own cache. A column stops at
  // its first failure; the tuples are then assembled in order up to the
  // first failing tuple, whose lowest failing column is the verdict.
  std::vector<std::vector<UncertainValue>> values(columns_.size());
  std::vector<size_t> failed_at(columns_.size(), count);
  std::vector<Status> failure(columns_.size());
  ForEachIndex(pool, columns_.size(), [&](size_t j) {
    std::vector<UncertainValue> decoded;  // moved in: see WriteDatasetFile
    decoded.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      failure[j] = columns_[j].Decode(ids[j][i], &decoded);
      if (!failure[j].ok()) {
        failed_at[j] = i;
        break;
      }
    }
    values[j] = std::move(decoded);
  });
  for (size_t i = 0; i < count; ++i) {
    UncertainTuple tuple;
    tuple.label = labels[i];
    tuple.values.reserve(columns_.size());
    for (size_t j = 0; j < columns_.size(); ++j) {
      if (failed_at[j] == i) return failure[j];
      tuple.values.push_back(std::move(values[j][i]));
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
                                     const StorageBudget& budget,
                                     TaskPool* pool) {
  UDT_CHECK(reader != nullptr);
  Dataset out(reader->schema());
  DatasetFootprint footprint;
  const int64_t chunks = reader->num_chunks();
  for (int64_t c = 0; c < chunks; ++c) {
    UDT_RETURN_NOT_OK(reader->AppendChunk(c, &out, pool));
    if (budget.max_materialized_bytes > 0) {
      const size_t used = footprint.Update(out);
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
