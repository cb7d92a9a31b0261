// udt::Model — the immutable, shareable trained-model half of the public
// facade (the other half, udt::Trainer, produces it). A Model wraps a
// shared_ptr<const DecisionTree> plus the metadata a serving system needs
// (the config it was trained with, its kind, the schema / class labels).
// Serving compiles it once (Compile) and classifies batches through
// udt::PredictSession values over the result (api/predict_session.h).
// Copying a Model copies two pointers and a config — trees are never
// duplicated — so one trained Model can be shared freely across threads
// and request handlers.

#ifndef UDT_API_MODEL_H_
#define UDT_API_MODEL_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/config.h"
#include "table/dataset.h"
#include "tree/tree.h"

namespace udt {

class CompiledForest;

// What the model does with a test tuple before traversal.
enum class ModelKind {
  kAveraging,  // AVG (Section 4.1): tuple reduced to its means
  kUdt,        // UDT (Section 4.2): full fractional propagation
};

const char* ModelKindToString(ModelKind kind);

// Knobs for one batch prediction — the single options struct every
// serving layer consumes: PredictSession::PredictBatchInto (trees and
// forests), the ServeSession wrapper, and the BatchingQueue's per-drain
// classification (BatchingConfig embeds one). The sharding knob
// (num_threads) never changes results; the output-policy knobs (top_k,
// abstain_threshold) shape what a ServeResult reports on top of the
// distribution.
struct PredictOptions {
  // Worker threads the batch is sharded over: 1 runs inline on the calling
  // thread, 0 uses one thread per hardware thread, values above the batch
  // size are clamped. Negative values are rejected with an InvalidArgument
  // Status (they used to silently run inline). Sessions run multi-threaded
  // batches on a persistent session-owned worker pool, created lazily at
  // the first batch with num_threads > 1 and reused for every later call
  // — steady-state serving never spawns threads per batch. A worker
  // shard holds at least max(1, 8 / num_trees) tuples, so tiny batches
  // stay on one or two threads instead of waking the whole pool.
  int num_threads = 1;

  // Serving output policy (leaves already store full class distributions,
  // so both are free at predict time — see Kent & Ménager's Indecision
  // Trees for the motivation). Consumed by the serving front end when it
  // builds ServeResults; batch entry points validate but ignore them.
  //
  // top_k > 0 asks for the k most probable classes (descending
  // probability, ties -> lowest class id) in ServeResult::top_classes;
  // 0 reports the argmax only.
  int top_k = 0;

  // A prediction whose winning probability falls below this threshold is
  // flagged abstained (ServeResult::abstained) — the label is still
  // reported, the caller decides whether to act on it or escalate.
  // 0 disables abstention; must be within [0, 1].
  double abstain_threshold = 0.0;

  // Rejects out-of-range policy fields (negative top_k, an abstain
  // threshold outside [0, 1]). num_threads is validated where it is
  // resolved against the batch size. Defined in api/model.cc.
  Status Validate() const;
};

// An immutable trained model. Obtain one from Trainer::Train, Model::Load
// or Model::Deserialize; there is no way to mutate the tree afterwards.
class Model {
 public:
  // Wraps an already-built tree (the trusted path used by Trainer and by
  // callers that construct trees through tree_io directly).
  static Model FromTree(DecisionTree tree, ModelKind kind, TreeConfig config);

  // ----------------------------------------------------------- metadata

  ModelKind kind() const { return kind_; }
  // The config the model was trained with (algorithm, measure, pruning).
  const TreeConfig& config() const { return config_; }
  const DecisionTree& tree() const { return *tree_; }
  // The schema the tree was built on.
  const Schema& schema() const { return tree_->schema(); }
  // Class-label vocabulary, index-aligned with prediction labels.
  const std::vector<std::string>& class_names() const {
    return schema().class_names();
  }
  int num_classes() const { return schema().num_classes(); }

  // Shares ownership of the underlying tree (e.g. to hand a reference to
  // an async pipeline that may outlive this Model value).
  std::shared_ptr<const DecisionTree> shared_tree() const { return tree_; }

  // --------------------------------------------------------- inference

  // Probability distribution over class labels for one tuple. An
  // averaging-kind model reduces the tuple to its means first.
  std::vector<double> ClassifyDistribution(const UncertainTuple& tuple) const;

  // Argmax of ClassifyDistribution (ties -> lowest class id).
  int Predict(const UncertainTuple& tuple) const;

  // Flattens the tree into an immutable, shareable serving artifact: a
  // one-tree CompiledForest (api/compiled_forest.h). It classifies
  // bitwise-identically to this model; serving code should compile once
  // and hold udt::PredictSession values over the result.
  [[nodiscard]] CompiledForest Compile() const;

  // -------------------------------------------------------- persistence

  // Self-contained text serialisation: kind + schema + config header plus
  // the tree_io tree body. Unlike SerializeTree, no external schema is
  // needed to load the result.
  std::string Serialize() const;
  [[nodiscard]] static StatusOr<Model> Deserialize(const std::string& text);

  // File round-trip of Serialize/Deserialize.
  Status Save(const std::string& path) const;
  [[nodiscard]] static StatusOr<Model> Load(const std::string& path);

 private:
  Model(std::shared_ptr<const DecisionTree> tree, ModelKind kind,
        TreeConfig config)
      : tree_(std::move(tree)), kind_(kind), config_(std::move(config)) {}

  std::shared_ptr<const DecisionTree> tree_;
  ModelKind kind_;
  TreeConfig config_;
};

}  // namespace udt

#endif  // UDT_API_MODEL_H_
