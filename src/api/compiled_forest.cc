#include "api/compiled_forest.h"

#include "api/container_tags.h"

#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "table/schema_io.h"

namespace udt {
namespace {

// One flat-tree body of the "udt-forest v1" text: a tables header that
// counts every section, one node record per line (kind attribute split
// first num_children), then the child table and the leaf pool on one line
// each. Doubles are hexfloats, so the text pins every bit of the layout.
void WriteFlatTreeBody(const FlatTree& flat, std::ostream& out) {
  out << StrFormat("tables nodes=%d children=%zu leaves=%zu\n",
                   flat.num_nodes(), flat.child_table.size(),
                   flat.leaf_values.size());
  for (int i = 0; i < flat.num_nodes(); ++i) {
    const size_t ui = static_cast<size_t>(i);
    out << StrFormat("n %d %d %a %d %d\n", static_cast<int>(flat.kind[ui]),
                     flat.attribute[ui], flat.split_point[ui], flat.first[ui],
                     flat.num_children[ui]);
  }
  for (size_t i = 0; i < flat.child_table.size(); ++i) {
    out << flat.child_table[i]
        << (i + 1 == flat.child_table.size() ? "\n" : " ");
  }
  for (size_t i = 0; i < flat.leaf_values.size(); ++i) {
    out << StrFormat("%a", flat.leaf_values[i])
        << (i + 1 == flat.leaf_values.size() ? "\n" : " ");
  }
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

std::string CompiledForest::Serialize() const {
  std::ostringstream out;
  out << "udt-forest v1\n";
  out << "kind " << wire::KindTag(rep_->kind) << "\n";
  out << "vote " << wire::VoteTag(rep_->vote) << "\n";
  WriteSchemaBlock(rep_->schema, out);
  out << "trees " << num_trees() << "\n";
  for (const FlatTree& tree : rep_->trees) {
    WriteFlatTreeBody(tree, out);
  }
  return out.str();
}

}  // namespace udt
