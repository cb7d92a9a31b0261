// udt::Trainer — the training half of the public facade. A Trainer owns a
// TreeConfig, wraps the core TreeBuilder, and produces immutable udt::Model
// values for both of the paper's classifier families: distribution-based
// (UDT, Section 4.2) and averaging (AVG, Section 4.1). It subsumes the
// deprecated UncertainTreeClassifier / AveragingClassifier pair; evaluation
// code selects the family with a ModelKind argument instead of a type.
//
// Training is requested through one TrainRequest struct
// (api/train_request.h) that names the in-memory dataset, kind, optional
// per-tuple weights, a seed override and optionally a caller-owned pool.
// Trainers see only Datasets: a "udt-dataset v1" file trains after
// MaterializeDataset (storage/dataset_file.h) has turned it into one. The
// TrainUdt/TrainAveraging shorthands are the convenience layer.

#ifndef UDT_API_TRAINER_H_
#define UDT_API_TRAINER_H_

#include "api/model.h"
#include "api/train_request.h"
#include "common/statusor.h"
#include "core/builder.h"
#include "core/config.h"
#include "table/dataset.h"

namespace udt {

// Builds Models from uncertain data sets under a fixed config.
class Trainer {
 public:
  Trainer() = default;
  explicit Trainer(TreeConfig config) : config_(std::move(config)) {}

  const TreeConfig& config() const { return config_; }
  TreeConfig& mutable_config() { return config_; }

  // The unified entry point: trains one model as described by `request`
  // (dataset, kind, weights, seed override — see api/train_request.h).
  // For kAveraging the data is reduced to pdf means and the exhaustive
  // point search is used (the config's algorithm is overridden to kAvg),
  // exactly as the paper's AVG baseline; for kUdt the configured
  // algorithm runs on the full pdfs. Fails on an empty data
  // set, an invalid config, or an inconsistent request — including a pool
  // not as wide as config().num_threads asks. Requests carrying
  // forest-only fields (oob, warm_start) are rejected.
  [[nodiscard]] StatusOr<Model> Train(const TrainRequest& request) const;

  // Shorthand for the common distribution-based case.
  StatusOr<Model> TrainUdt(const Dataset& train,
                           BuildStats* stats = nullptr) const {
    TrainRequest request = TrainRequest::For(train, ModelKind::kUdt);
    request.stats = stats;
    return Train(request);
  }

  // Shorthand for the averaging baseline.
  StatusOr<Model> TrainAveraging(const Dataset& train,
                                 BuildStats* stats = nullptr) const {
    TrainRequest request = TrainRequest::For(train, ModelKind::kAveraging);
    request.stats = stats;
    return Train(request);
  }

 private:
  TreeConfig config_;
};

}  // namespace udt

#endif  // UDT_API_TRAINER_H_
