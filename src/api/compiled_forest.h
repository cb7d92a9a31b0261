// udt::CompiledForest — the one immutable serving artifact, for trees and
// forests alike. ForestModel::Compile() flattens every pointer tree into a
// FlatTree record block and bundles the lot with the shared schema, model
// kind and vote rule. Model::Compile() makes a one-tree
// probability-average forest: zero-init, one add and a divide by 1.0 are
// exact, so it serves the tree's bytes unchanged. A CompiledForest is one
// shared pointer wide — copy it freely across worker threads and hand one
// to each udt::PredictSession.
//
// Persistence is versioned and self-contained ("udt-forest v1", the one
// compiled container): the header carries kind/vote/schema, then one
// flat-tree body per tree (tree/flat_tree_io.h, hexfloat doubles), each
// structurally validated on load before anything traverses it.

#ifndef UDT_API_COMPILED_FOREST_H_
#define UDT_API_COMPILED_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "api/forest.h"
#include "api/model.h"
#include "common/statusor.h"
#include "table/attribute.h"
#include "tree/flat_tree.h"

namespace udt {

// An immutable compiled forest. Obtain one from Model::Compile,
// ForestModel::Compile, CompiledForest::Compile, or Load/Deserialize.
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

  // True when the two artifacts are bitwise-identical: same kind, vote and
  // schema, and every tree's flat layout equal byte for byte. Load after
  // Save reproduces the layout exactly, by this definition.
  bool LayoutEquals(const CompiledForest& other) const;

  // -------------------------------------------------------- persistence

  // Self-contained versioned text serialisation. Doubles are written as
  // hexfloats, so Deserialize(Serialize()) is layout-identical.
  std::string Serialize() const;
  static StatusOr<CompiledForest> Deserialize(const std::string& text);

  // File round-trip of Serialize/Deserialize.
  Status Save(const std::string& path) const;
  static StatusOr<CompiledForest> Load(const std::string& path);

 private:
  struct Rep {
    Schema schema;
    ModelKind kind;
    ForestVote vote;
    std::vector<FlatTree> trees;
  };

  // Wraps trusted (compiled or validated) flat trees.
  CompiledForest(Schema schema, ModelKind kind, ForestVote vote,
                 std::vector<FlatTree> trees);

  std::shared_ptr<const Rep> rep_;
};

}  // namespace udt

#endif  // UDT_API_COMPILED_FOREST_H_
