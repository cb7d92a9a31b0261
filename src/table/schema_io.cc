#include "table/schema_io.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace udt {
namespace {

// Declared counts are bounded before any allocation; shared with the
// containers' own table headers via the same spirit, not the same value.
constexpr int kMaxDeclaredCount = 1 << 20;

}  // namespace

Status LineReader::Next(std::string_view what) {
  if (!std::getline(in_, line_)) {
    // The missing line would have been line_number_ + 1.
    return Status::InvalidArgument(
        StrFormat("%s: line %d: truncated before %s", context_.c_str(),
                  line_number_ + 1, std::string(what).c_str()));
  }
  ++line_number_;
  // Tolerate CRLF line endings (a file saved through a text-mode stream on
  // Windows must load everywhere).
  if (!line_.empty() && line_.back() == '\r') line_.pop_back();
  return Status::OK();
}

Status LineReader::Error(std::string_view message) const {
  return ErrorAt(line_number_, message);
}

Status LineReader::ErrorAt(int line_number, std::string_view message) const {
  return Status::InvalidArgument(StrFormat("%s: line %d: %s", context_.c_str(),
                                           line_number,
                                           std::string(message).c_str()));
}

void WriteSchemaBlock(const Schema& schema, std::ostream& out) {
  out << "classes " << schema.num_classes() << "\n";
  for (const std::string& name : schema.class_names()) out << name << "\n";
  out << "attributes " << schema.num_attributes() << "\n";
  for (const AttributeInfo& attr : schema.attributes()) {
    if (attr.kind == AttributeKind::kCategorical) {
      out << "attr cat " << attr.num_categories << " " << attr.name << "\n";
    } else {
      out << "attr num 0 " << attr.name << "\n";
    }
  }
}

bool SchemaEquals(const Schema& a, const Schema& b) {
  if (a.num_attributes() != b.num_attributes() ||
      a.class_names() != b.class_names()) {
    return false;
  }
  for (int j = 0; j < a.num_attributes(); ++j) {
    const AttributeInfo& x = a.attribute(j);
    const AttributeInfo& y = b.attribute(j);
    if (x.name != y.name || x.kind != y.kind ||
        x.num_categories != y.num_categories) {
      return false;
    }
  }
  return true;
}

StatusOr<Schema> ReadSchemaBlock(LineReader* reader) {
  UDT_RETURN_NOT_OK(reader->Next("classes"));
  if (reader->line().rfind("classes ", 0) != 0) {
    return reader->Error("expected classes line");
  }
  std::optional<int> num_classes = ParseInt(reader->line().substr(8));
  if (!num_classes || *num_classes < 1 || *num_classes > kMaxDeclaredCount) {
    return reader->Error("bad class count");
  }
  std::vector<std::string> class_names;
  class_names.reserve(static_cast<size_t>(*num_classes));
  for (int c = 0; c < *num_classes; ++c) {
    UDT_RETURN_NOT_OK(reader->Next("class name"));
    class_names.push_back(reader->line());
  }

  UDT_RETURN_NOT_OK(reader->Next("attributes"));
  if (reader->line().rfind("attributes ", 0) != 0) {
    return reader->Error("expected attributes line");
  }
  std::optional<int> num_attributes = ParseInt(reader->line().substr(11));
  if (!num_attributes || *num_attributes < 1 ||
      *num_attributes > kMaxDeclaredCount) {
    return reader->Error("bad attribute count");
  }
  std::vector<AttributeInfo> attributes;
  attributes.reserve(static_cast<size_t>(*num_attributes));
  for (int j = 0; j < *num_attributes; ++j) {
    UDT_RETURN_NOT_OK(reader->Next("attr"));
    // "attr num 0 <name>" | "attr cat <n> <name>"; the name is the rest of
    // the line and may contain spaces.
    const std::string& line = reader->line();
    std::vector<std::string> head = SplitString(line, ' ');
    if (head.size() < 4 || head[0] != "attr") {
      return reader->Error("bad attr line: " + line);
    }
    AttributeInfo info;
    std::optional<int> categories = ParseInt(head[2]);
    if (!categories) {
      return reader->Error("bad attr arity: " + line);
    }
    if (head[1] == "cat") {
      info.kind = AttributeKind::kCategorical;
      info.num_categories = *categories;
    } else if (head[1] == "num") {
      info.kind = AttributeKind::kNumerical;
    } else {
      return reader->Error("bad attr kind: " + line);
    }
    const size_t name_offset =
        head[0].size() + head[1].size() + head[2].size() + 3;
    info.name = line.substr(name_offset);
    attributes.push_back(std::move(info));
  }
  return Schema::Create(std::move(attributes), std::move(class_names));
}

}  // namespace udt
