#include "api/compiled_model.h"

#include "api/container_tags.h"

#include <sstream>
#include <utility>

#include "table/schema_io.h"
#include "tree/flat_tree_io.h"

namespace udt {
namespace {

// Serialisation keywords of the v1 compiled container. Like the model v1
// format the header is line-oriented; the flat-tree body counts every
// table up front so a truncated file fails cleanly. The schema block and
// the body live in table/schema_io and tree/flat_tree_io, shared with the
// forest container.
constexpr char kMagic[] = "udt-compiled v1";
constexpr char kContext[] = "udt-compiled";

std::vector<FlatTree> OneTree(FlatTree tree) {
  std::vector<FlatTree> trees;
  trees.push_back(std::move(tree));
  return trees;
}

}  // namespace

CompiledModel::CompiledModel(Schema schema, ModelKind kind, FlatTree tree)
    : forest_(std::move(schema), kind, ForestVote::kAverage,
              OneTree(std::move(tree))) {}

CompiledModel CompiledModel::Compile(const Model& model) {
  return CompiledModel(model.schema(), model.kind(),
                       FlattenTree(model.tree()));
}

CompiledModel Model::Compile() const { return CompiledModel::Compile(*this); }

std::string CompiledModel::Serialize() const {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "kind " << wire::KindTag(kind()) << "\n";
  WriteSchemaBlock(schema(), out);
  WriteFlatTreeBody(flat_tree(), out);
  return out.str();
}

StatusOr<CompiledModel> CompiledModel::Deserialize(const std::string& text) {
  std::istringstream in(text);
  LineReader reader(in, kContext);

  UDT_RETURN_NOT_OK(reader.Next("magic"));
  if (reader.line() != kMagic) {
    return reader.Error("bad magic line: " + reader.line());
  }

  UDT_RETURN_NOT_OK(reader.Next("kind"));
  if (reader.line().rfind("kind ", 0) != 0) {
    return reader.Error("expected kind line");
  }
  UDT_ASSIGN_OR_RETURN(ModelKind kind,
                       wire::ParseKindTag(reader.line().substr(5)));

  UDT_ASSIGN_OR_RETURN(Schema schema, ReadSchemaBlock(&reader));
  UDT_ASSIGN_OR_RETURN(FlatTree flat,
                       ReadFlatTreeBody(&reader, schema.num_classes()));
  UDT_RETURN_NOT_OK(ValidateFlatTree(flat, schema, kContext));
  return CompiledModel(std::move(schema), kind, std::move(flat));
}

Status CompiledModel::Save(const std::string& path) const {
  return wire::WriteTextFile(path, Serialize());
}

StatusOr<CompiledModel> CompiledModel::Load(const std::string& path) {
  UDT_ASSIGN_OR_RETURN(std::string text, wire::ReadTextFile(path));
  return Deserialize(text);
}

}  // namespace udt
