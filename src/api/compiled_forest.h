// udt::CompiledForest — the one immutable serving artifact, for trees and
// forests alike. ForestModel::Compile() flattens every pointer tree into a
// FlatTree record block and bundles the lot with the shared schema, model
// kind and vote rule. Model::Compile() makes a one-tree
// probability-average forest: zero-init, one add and a divide by 1.0 are
// exact, so it serves the tree's bytes unchanged. A CompiledForest is one
// shared pointer wide — copy it freely across worker threads and hand one
// to each udt::PredictSession.
//
// A CompiledForest is never loaded from disk: persist the model
// ("udt-model v1" / "udt-forest-model v1") and Compile() after Load. The
// model container determines the compiled layout, and compiling is linear
// in each tree's size. Serialize() writes the layout as text
// ("udt-forest v1", hexfloat doubles) only so that tests and the
// end-to-end benchmark can compare two artifacts byte for byte.

#ifndef UDT_API_COMPILED_FOREST_H_
#define UDT_API_COMPILED_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "api/forest.h"
#include "api/model.h"
#include "table/attribute.h"
#include "tree/flat_tree.h"

namespace udt {

// An immutable compiled forest. Obtain one from Model::Compile,
// ForestModel::Compile or CompiledForest::Compile.
class CompiledForest {
 public:
  // Flattens every tree of the forest. The artifact classifies
  // bitwise-identically to the source ForestModel.
  static CompiledForest Compile(const ForestModel& model);

  // Flattens the model's tree into a one-tree ForestVote::kAverage forest.
  // The artifact classifies bitwise-identically to the source Model.
  static CompiledForest Compile(const Model& model);

  // ----------------------------------------------------------- metadata

  ModelKind kind() const { return rep_->kind; }
  ForestVote vote() const { return rep_->vote; }
  const Schema& schema() const { return rep_->schema; }
  int num_trees() const { return static_cast<int>(rep_->trees.size()); }
  const FlatTree& tree(int t) const {
    return rep_->trees[static_cast<size_t>(t)];
  }
  const std::vector<FlatTree>& trees() const { return rep_->trees; }
  const std::vector<std::string>& class_names() const {
    return rep_->schema.class_names();
  }
  int num_classes() const { return rep_->schema.num_classes(); }
  // Total node count across all trees.
  int num_nodes() const;

  // The whole artifact as text: kind, vote, schema, then every tree's
  // flat tables with hexfloat doubles, so equal bytes mean equal layouts.
  // Write-only: there is no reader.
  std::string Serialize() const;

 private:
  struct Rep {
    Schema schema;
    ModelKind kind;
    ForestVote vote;
    std::vector<FlatTree> trees;
  };

  // Wraps freshly compiled flat trees.
  CompiledForest(Schema schema, ModelKind kind, ForestVote vote,
                 std::vector<FlatTree> trees);

  std::shared_ptr<const Rep> rep_;
};

}  // namespace udt

#endif  // UDT_API_COMPILED_FOREST_H_
