#include "api/compiled_forest.h"

#include "api/container_tags.h"

#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "table/schema_io.h"
#include "tree/flat_tree_io.h"

namespace udt {
namespace {

constexpr char kMagic[] = "udt-forest v1";
constexpr char kContext[] = "udt-forest";

bool FlatTreeEquals(const FlatTree& a, const FlatTree& b) {
  return a.num_classes == b.num_classes &&
         wire::BitwiseEquals(a.kind, b.kind) &&
         wire::BitwiseEquals(a.attribute, b.attribute) &&
         wire::BitwiseEquals(a.split_point, b.split_point) &&
         wire::BitwiseEquals(a.first, b.first) &&
         wire::BitwiseEquals(a.num_children, b.num_children) &&
         wire::BitwiseEquals(a.child_table, b.child_table) &&
         wire::BitwiseEquals(a.leaf_values, b.leaf_values);
}

}  // namespace

CompiledForest::CompiledForest(Schema schema, ModelKind kind,
                               ForestVote vote, std::vector<FlatTree> trees)
    : rep_(std::make_shared<const Rep>(
          Rep{std::move(schema), kind, vote, std::move(trees)})) {}

CompiledForest CompiledForest::Compile(const ForestModel& model) {
  std::vector<FlatTree> trees;
  trees.reserve(static_cast<size_t>(model.num_trees()));
  for (int t = 0; t < model.num_trees(); ++t) {
    trees.push_back(FlattenTree(model.tree(t).tree()));
  }
  return CompiledForest(model.schema(), model.kind(), model.vote(),
                        std::move(trees));
}

CompiledForest CompiledForest::Compile(const Model& model) {
  std::vector<FlatTree> trees;
  trees.push_back(FlattenTree(model.tree()));
  return CompiledForest(model.schema(), model.kind(), ForestVote::kAverage,
                        std::move(trees));
}

CompiledForest ForestModel::Compile() const {
  return CompiledForest::Compile(*this);
}

CompiledForest Model::Compile() const {
  return CompiledForest::Compile(*this);
}

int CompiledForest::num_nodes() const {
  int total = 0;
  for (const FlatTree& tree : rep_->trees) total += tree.num_nodes();
  return total;
}

bool CompiledForest::LayoutEquals(const CompiledForest& other) const {
  if (rep_->kind != other.rep_->kind || rep_->vote != other.rep_->vote ||
      !SchemaEquals(rep_->schema, other.rep_->schema) ||
      rep_->trees.size() != other.rep_->trees.size()) {
    return false;
  }
  for (size_t t = 0; t < rep_->trees.size(); ++t) {
    if (!FlatTreeEquals(rep_->trees[t], other.rep_->trees[t])) return false;
  }
  return true;
}

std::string CompiledForest::Serialize() const {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "kind " << wire::KindTag(rep_->kind) << "\n";
  out << "vote " << wire::VoteTag(rep_->vote) << "\n";
  WriteSchemaBlock(rep_->schema, out);
  out << "trees " << num_trees() << "\n";
  // The flat-tree bodies are self-delimiting (a tables header counts every
  // section), so they simply concatenate.
  for (const FlatTree& tree : rep_->trees) {
    WriteFlatTreeBody(tree, out);
  }
  return out.str();
}

StatusOr<CompiledForest> CompiledForest::Deserialize(const std::string& text) {
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

  UDT_RETURN_NOT_OK(reader.Next("vote"));
  if (reader.line().rfind("vote ", 0) != 0) {
    return reader.Error("expected vote line");
  }
  UDT_ASSIGN_OR_RETURN(ForestVote vote,
                       wire::ParseVoteTag(reader.line().substr(5)));

  UDT_ASSIGN_OR_RETURN(Schema schema, ReadSchemaBlock(&reader));

  UDT_RETURN_NOT_OK(reader.Next("trees"));
  constexpr int kMaxTrees = 1 << 16;
  if (reader.line().rfind("trees ", 0) != 0) {
    return reader.Error("expected trees line");
  }
  std::optional<int> num_trees = ParseInt(reader.line().substr(6));
  if (!num_trees || *num_trees < 1 || *num_trees > kMaxTrees) {
    return reader.Error("bad tree count");
  }

  std::vector<FlatTree> trees;
  trees.reserve(static_cast<size_t>(*num_trees));
  for (int t = 0; t < *num_trees; ++t) {
    UDT_ASSIGN_OR_RETURN(FlatTree tree,
                         ReadFlatTreeBody(&reader, schema.num_classes()));
    UDT_RETURN_NOT_OK(ValidateFlatTree(tree, schema, kContext));
    trees.push_back(std::move(tree));
  }
  return CompiledForest(std::move(schema), kind, vote, std::move(trees));
}

Status CompiledForest::Save(const std::string& path) const {
  return wire::WriteTextFile(path, Serialize());
}

StatusOr<CompiledForest> CompiledForest::Load(const std::string& path) {
  UDT_ASSIGN_OR_RETURN(std::string text, wire::ReadTextFile(path));
  return Deserialize(text);
}

}  // namespace udt
