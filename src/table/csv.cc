#include "table/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"

namespace udt {

namespace {

bool IsFieldBlank(char c) { return c == ' ' || c == '\t'; }

// Walks the fields of one CSV record without copying them. A plain field
// comes back as a view into the record; a quoted field is unescaped into
// the reader's scratch string and viewed there, so a view stays valid only
// until the next Next() call (and never beyond the record).
class CsvFieldReader {
 public:
  explicit CsvFieldReader(std::string_view record) : record_(record) {}

  // True once the record's last field has been read.
  bool done() const { return done_; }

  // Reads the next field. Requires !done().
  Status Next(std::string_view* field) {
    size_t i = pos_;
    // A field whose first non-blank character is '"' is quoted; blanks
    // outside the quotes are decoration (hand-edited CSVs put a space
    // after the comma), blanks inside are content. Without the skip,
    // ` "x, y"` would silently parse as an unquoted field — quotes
    // retained, comma mis-split — the exact failure mode this parser
    // exists to eliminate.
    size_t ws = i;
    while (ws < record_.size() && IsFieldBlank(record_[ws])) ++ws;
    if (ws < record_.size() && record_[ws] == '"') {
      scratch_.clear();
      i = ws + 1;  // consume the leading blanks and the opening quote
      bool closed = false;
      while (i < record_.size()) {
        const char c = record_[i];
        if (c == '"') {
          if (i + 1 < record_.size() && record_[i + 1] == '"') {
            scratch_ += '"';  // escaped quote
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        scratch_ += c;
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument(
            "unterminated quoted field (quoted fields cannot span lines)");
      }
      while (i < record_.size() && IsFieldBlank(record_[i])) ++i;
      if (i < record_.size() && record_[i] != ',') {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' after a closing quote "
                      "(expected a comma or end of record)",
                      record_[i]));
      }
      *field = scratch_;
    } else {
      i = std::min(record_.find(',', i), record_.size());
      *field = record_.substr(pos_, i - pos_);
    }
    if (i >= record_.size()) {
      done_ = true;
    } else {
      pos_ = i + 1;  // past the separating comma
    }
    return Status::OK();
  }

 private:
  std::string_view record_;
  size_t pos_ = 0;
  bool done_ = false;
  std::string scratch_;
};

}  // namespace

StatusOr<std::vector<std::string>> SplitCsvRecord(std::string_view record) {
  std::vector<std::string> fields;
  CsvFieldReader reader(record);
  while (!reader.done()) {
    std::string_view field;
    UDT_RETURN_NOT_OK(reader.Next(&field));
    fields.emplace_back(field);
  }
  return fields;
}

std::string CsvEscapeField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

StatusOr<PointDataset> ReadCsvFromString(const std::string& text) {
  // Every line and plain field below is a view into `text`; only quoted
  // fields and new class names are copied.
  std::vector<std::string_view> lines;
  for (size_t start = 0; start <= text.size();) {
    const size_t end = std::min(text.find('\n', start), text.size());
    // Trimming the raw line strips the \r of CRLF endings; blank lines
    // (e.g. a trailing newline at end of file) are skipped entirely.
    std::string_view trimmed =
        TrimWhitespace(std::string_view(text).substr(start, end - start));
    if (!trimmed.empty()) lines.push_back(trimmed);
    start = end + 1;
  }
  if (lines.size() < 2) {
    return Status::InvalidArgument("CSV needs a header and at least one row");
  }

  StatusOr<std::vector<std::string>> header_or = SplitCsvRecord(lines[0]);
  if (!header_or.ok()) {
    return Status::InvalidArgument("header: " + header_or.status().message());
  }
  std::vector<std::string> header = std::move(header_or).value();
  if (header.size() < 2) {
    return Status::InvalidArgument(
        "CSV header needs at least one attribute and the class column");
  }
  const size_t num_attributes = header.size() - 1;
  const size_t num_rows = lines.size() - 1;

  // One pass over the rows: structure, the class vocabulary (ids in order
  // of first appearance) and the values, row-major. A malformed number is
  // only remembered here: structural errors in any row take precedence,
  // and the first bad number is reported in row order with the rows
  // before it, exactly as a split-everything-then-parse reader would.
  std::vector<std::string> class_names;
  std::vector<int> labels(num_rows);
  std::vector<double> values(num_rows * num_attributes);
  size_t bad_row = num_rows;  // first row holding a malformed number
  size_t bad_column = 0;
  size_t first_missing_row = num_rows;  // first row holding a '?'
  for (size_t r = 1; r <= num_rows; ++r) {
    const size_t row = r - 1;
    CsvFieldReader reader(lines[r]);
    size_t num_fields = 0;
    std::string_view label;
    while (!reader.done()) {
      std::string_view field;
      Status st = reader.Next(&field);
      if (!st.ok()) {
        return Status::InvalidArgument(
            StrFormat("row %zu: %s", r, st.message().c_str()));
      }
      const size_t j = num_fields++;
      if (j == num_attributes) label = TrimWhitespace(field);
      if (j >= num_attributes || bad_row < num_rows) continue;
      field = TrimWhitespace(field);
      double& value = values[row * num_attributes + j];
      if (field == "?") {  // missing-value marker (UCI convention)
        value = std::numeric_limits<double>::quiet_NaN();
        first_missing_row = std::min(first_missing_row, row);
        continue;
      }
      std::optional<double> v = ParseDouble(field);
      if (v.has_value()) {
        value = *v;
      } else {
        bad_row = row;
        bad_column = j;
      }
    }
    if (num_fields != header.size()) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu fields, expected %zu", r, num_fields,
                    header.size()));
    }
    if (label.empty()) {
      return Status::InvalidArgument(StrFormat("row %zu has empty class", r));
    }
    size_t id = 0;
    while (id < class_names.size() && class_names[id] != label) ++id;
    if (id == class_names.size()) class_names.emplace_back(label);
    labels[row] = static_cast<int>(id);
  }

  std::vector<AttributeInfo> attributes;
  attributes.reserve(num_attributes);
  for (size_t j = 0; j < num_attributes; ++j) {
    std::string name(TrimWhitespace(header[j]));
    attributes.push_back(
        AttributeInfo{std::move(name), AttributeKind::kNumerical, 0});
  }
  UDT_ASSIGN_OR_RETURN(Schema schema,
                       Schema::Create(std::move(attributes), class_names));

  PointDataset dataset(std::move(schema));
  for (size_t row = 0; row < num_rows; ++row) {
    if (row == bad_row) {
      return Status::InvalidArgument(
          StrFormat("row %zu column %zu is not a number", row + 1,
                    bad_column));
    }
    const double* first = values.data() + row * num_attributes;
    std::vector<double> row_values(first, first + num_attributes);
    UDT_RETURN_NOT_OK(row >= first_missing_row
                          ? dataset.AddRowWithMissing(std::move(row_values),
                                                      labels[row])
                          : dataset.AddRow(std::move(row_values), labels[row]));
  }
  return dataset;
}

StatusOr<PointDataset> ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvFromString(buffer.str());
}

std::string WriteCsvToString(const PointDataset& dataset) {
  std::string out;
  const Schema& schema = dataset.schema();
  for (int j = 0; j < schema.num_attributes(); ++j) {
    out += CsvEscapeField(schema.attribute(j).name);
    out += ',';
  }
  out += "class\n";
  for (int i = 0; i < dataset.num_tuples(); ++i) {
    for (int j = 0; j < schema.num_attributes(); ++j) {
      if (dataset.is_missing(i, j)) {
        out += "?,";
      } else {
        out += StrFormat("%.17g,", dataset.value(i, j));
      }
    }
    out += CsvEscapeField(schema.class_name(dataset.label(i)));
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const PointDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvToString(dataset);
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

}  // namespace udt
