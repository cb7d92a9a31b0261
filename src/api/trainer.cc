#include "api/trainer.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace udt {

Status TrainRequest::Validate() const {
  if (dataset == nullptr) {
    return Status::InvalidArgument("TrainRequest needs a dataset");
  }
  if (!weights.empty() &&
      weights.size() != static_cast<size_t>(dataset->num_tuples())) {
    return Status::InvalidArgument(
        StrFormat("TrainRequest::weights holds %zu weights for %d tuples",
                  weights.size(), dataset->num_tuples()));
  }
  if (num_threads < -1) {
    return Status::InvalidArgument(
        "TrainRequest::num_threads must be >= -1 "
        "(-1 keeps the trainer config)");
  }
  if (warm_trees < 0) {
    return Status::InvalidArgument("TrainRequest::warm_trees must be >= 0");
  }
  if (warm_trees > 0 && warm_start == nullptr) {
    return Status::InvalidArgument(
        "TrainRequest::warm_trees requires warm_start");
  }
  return Status::OK();
}

StatusOr<Model> Trainer::Train(const TrainRequest& request) const {
  UDT_RETURN_NOT_OK(request.Validate());
  if (request.oob != nullptr) {
    return Status::InvalidArgument(
        "TrainRequest::oob is an ensemble estimate; use ForestTrainer");
  }
  if (request.warm_start != nullptr) {
    return Status::InvalidArgument(
        "TrainRequest::warm_start carries forest trees; use ForestTrainer");
  }

  TreeConfig config = config_;
  if (request.num_threads >= 0) config.num_threads = request.num_threads;
  if (request.seed) config.subspace_seed = *request.seed;
  if (request.kind == ModelKind::kAveraging) {
    // AVG (Section 4.1): classical tree over pdf means, exhaustive point
    // search. The trained Model remembers its kind and reduces test tuples
    // to their means before traversal.
    config.algorithm = SplitAlgorithm::kAvg;
  }

  const Dataset& source = *request.dataset;
  std::optional<Dataset> means;
  if (request.kind == ModelKind::kAveraging) means = source.ToMeans();
  const Dataset& build_data = means ? *means : source;

  TreeBuilder builder(config);
  StatusOr<DecisionTree> tree =
      request.weights.empty()
          ? builder.Build(build_data, request.stats)
          : builder.BuildWeighted(
                build_data,
                std::vector<double>(request.weights.begin(),
                                    request.weights.end()),
                request.stats);
  UDT_RETURN_NOT_OK(tree.status());
  return Model::FromTree(std::move(tree).value(), request.kind,
                         std::move(config));
}

}  // namespace udt
