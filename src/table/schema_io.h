// The schema block shared by every versioned udt container ("udt-model
// v1", "udt-forest-model v1", "udt-dataset v1", and the write-only
// "udt-forest v1" of CompiledForest::Serialize): a line-oriented classes +
// attributes section. Historically each container carried its own copy of
// the writer and parser; this header is the single implementation they all
// delegate to, so a format fix lands everywhere at once.
//
// Block shape (names own the rest of their line and may contain spaces):
//
//   classes <n>
//   <class name> x n
//   attributes <k>
//   attr (num 0 | cat <categories>) <attribute name> x k

#ifndef UDT_TABLE_SCHEMA_IO_H_
#define UDT_TABLE_SCHEMA_IO_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "table/attribute.h"

namespace udt {

// Reads a container line by line with CRLF tolerance and context- and
// position-tagged errors ("<context>: line <n>: truncated before <what>").
// The containers' own header lines go through Next()/line() too, so one
// reader serves a whole Deserialize and every error it reports carries the
// offending 1-based line number. Read paths that consume lines behind the
// reader's back (raw getline on stream()) would desynchronise the count —
// route every line through Next(), or report a raw read with
// AccountRawLines() as the forest container does for its framed tree
// bodies.
class LineReader {
 public:
  // `context` tags error messages, e.g. "udt-model". `in` must outlive
  // the reader.
  LineReader(std::istream& in, std::string context)
      : in_(in), context_(std::move(context)) {}

  // Loads the next line into line(); `what` names the expected content in
  // the truncation error.
  Status Next(std::string_view what);

  // Next(), but appends the line to `*text` instead of loading line(): it
  // scans the stream's buffer in place and copies the line once, so a
  // caller collecting many lines back to back pays no intermediate string.
  Status AppendNext(std::string_view what, std::string* text);

  const std::string& line() const { return line_; }
  const std::string& context() const { return context_; }
  std::istream& stream() { return in_; }

  // 1-based number of the line currently in line(); 0 before the first
  // Next().
  int line_number() const { return line_number_; }

  // Accounts for lines a caller consumed directly from stream() — e.g. a
  // byte-framed container body pulled with istream::read. Raw reads are
  // safe (Next() buffers nothing) but invisible to the counter, so without
  // this every later Error() reports a line number frozen at the frame
  // header. Pass the number of '\n' the raw read consumed.
  void AccountRawLines(int lines) { line_number_ += lines; }

  // InvalidArgument("<context>: line <n>: <message>") for parse errors at
  // the current position.
  Status Error(std::string_view message) const;

  // Error() for line `line_number` of the same stream, for a caller that
  // keeps lines and parses them after reading on.
  Status ErrorAt(int line_number, std::string_view message) const;

 private:
  std::istream& in_;
  std::string context_;
  std::string line_;
  int line_number_ = 0;
};

// Writes the classes + attributes block of `schema`.
void WriteSchemaBlock(const Schema& schema, std::ostream& out);

// Deep structural equality: same attribute names/kinds/arities and the
// same class vocabulary, in order.
bool SchemaEquals(const Schema& a, const Schema& b);

// Parses the block written by WriteSchemaBlock. Declared counts are
// bounded before any allocation, so hostile headers fail with a Status
// instead of a bad_alloc.
StatusOr<Schema> ReadSchemaBlock(LineReader* reader);

}  // namespace udt

#endif  // UDT_TABLE_SCHEMA_IO_H_
