// udt::CompiledModel — the compiled form of one udt::Model. Model::Compile()
// flattens the trained pointer tree into a FlatTree (breadth-first
// struct-of-arrays records, pooled leaf distribution table) and bundles it
// with the schema and model kind: the exact set of facts a serving process
// needs, and nothing it doesn't (no training config, no mutable state).
//
// A tree is served as a one-tree probability-average forest: a
// CompiledModel holds a shared one-tree CompiledForest and converts to it
// implicitly, so `PredictSession session(compiled)` and
// `serve::Servable(compiled)` copy one shared pointer, never the flat
// arrays. What CompiledModel adds is the tree's own persistence
// ("udt-compiled v1"): Save writes the flat arrays with hexfloat doubles
// so Load rebuilds a bitwise-identical in-memory layout, validated
// structurally (child ids, table offsets, attribute kinds against the
// schema) before anything traverses it.

#ifndef UDT_API_COMPILED_MODEL_H_
#define UDT_API_COMPILED_MODEL_H_

#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/model.h"
#include "common/statusor.h"
#include "table/attribute.h"
#include "tree/flat_tree.h"

namespace udt {

// An immutable compiled model. Obtain one from Model::Compile,
// CompiledModel::Compile, or Load/Deserialize.
class CompiledModel {
 public:
  // Flattens the model's tree. The compiled artifact classifies
  // bitwise-identically to the source model.
  static CompiledModel Compile(const Model& model);

  // ----------------------------------------------------------- metadata

  ModelKind kind() const { return forest_.kind(); }
  const Schema& schema() const { return forest_.schema(); }
  const FlatTree& flat_tree() const { return forest_.tree(0); }
  const std::vector<std::string>& class_names() const {
    return forest_.class_names();
  }
  int num_classes() const { return forest_.num_classes(); }
  int num_nodes() const { return flat_tree().num_nodes(); }
  int num_leaves() const { return flat_tree().num_leaves(); }

  // The one-tree forest this model serves as (shares the flat arrays).
  // Implicit on purpose: every serving entry point takes a CompiledForest.
  operator const CompiledForest&() const { return forest_; }

  // True when the two artifacts have bitwise-identical flat layouts (every
  // node record, table entry and double, plus kind and schema). Load after
  // Save reproduces the layout exactly, by this definition.
  bool LayoutEquals(const CompiledModel& other) const {
    return forest_.LayoutEquals(other.forest_);
  }

  // -------------------------------------------------------- persistence

  // Self-contained versioned text serialisation. Doubles are written as
  // hexfloats, so Deserialize(Serialize()) is layout-identical.
  std::string Serialize() const;
  static StatusOr<CompiledModel> Deserialize(const std::string& text);

  // File round-trip of Serialize/Deserialize.
  Status Save(const std::string& path) const;
  static StatusOr<CompiledModel> Load(const std::string& path);

 private:
  CompiledModel(Schema schema, ModelKind kind, FlatTree tree);

  CompiledForest forest_;
};

}  // namespace udt

#endif  // UDT_API_COMPILED_MODEL_H_
