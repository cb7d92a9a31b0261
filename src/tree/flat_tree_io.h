// Text serialisation of the flat serving layout, written by the compiled
// container ("udt-forest v1" wraps one body per tree; a compiled tree is a
// one-tree forest). The body is self-delimiting — a tables header declares
// every count up front — so bodies concatenate and a truncated file fails
// cleanly. Doubles travel as hexfloats: the loaded
// layout is bitwise-identical to the saved one.
//
// Body shape:
//
//   tables nodes=<n> children=<c> leaves=<l>
//   n <kind> <attribute> <split hexfloat> <first> <num_children>   x n
//   <child id> x c (one line)
//   <leaf hexfloat> x l (one line)

#ifndef UDT_TREE_FLAT_TREE_IO_H_
#define UDT_TREE_FLAT_TREE_IO_H_

#include <ostream>

#include "common/statusor.h"
#include "table/attribute.h"
#include "table/schema_io.h"
#include "tree/flat_tree.h"

namespace udt {

// Writes the tables header and the three array sections of `flat`.
void WriteFlatTreeBody(const FlatTree& flat, std::ostream& out);

// Parses one body through the container's LineReader, leaving the reader
// positioned after the body's final line (ready for a sibling body or
// EOF). `num_classes` sizes the leaf rows; the reader supplies the error
// context and the offending line number, so a parse error in the third
// tree of a forest container points at the absolute line in the file.
// The result is unvalidated — run ValidateFlatTree before traversing it.
StatusOr<FlatTree> ReadFlatTreeBody(LineReader* reader, int num_classes);

// Structural validation of an untrusted flat layout: every index a
// traversal will follow must land in range, child ids must point strictly
// forward (breadth-first order implies it, and it rules out cycles), and
// tested attributes must exist in the schema with the matching kind.
Status ValidateFlatTree(const FlatTree& flat, const Schema& schema,
                        const std::string& context);

}  // namespace udt

#endif  // UDT_TREE_FLAT_TREE_IO_H_
