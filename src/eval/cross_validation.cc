#include "eval/cross_validation.h"

#include <cmath>
#include <limits>

#include "api/predict_session.h"
#include "eval/metrics.h"

namespace udt {

namespace {

// Shared tail: mean and population stddev of the fold accuracies.
Status FinishAccuracyStats(CrossValidationResult* result) {
  if (result->fold_accuracies.empty()) {
    return Status::Internal("no usable folds");
  }
  double sum = 0.0;
  for (double a : result->fold_accuracies) sum += a;
  result->mean_accuracy =
      sum / static_cast<double>(result->fold_accuracies.size());
  double var = 0.0;
  for (double a : result->fold_accuracies) {
    double d = a - result->mean_accuracy;
    var += d * d;
  }
  var /= static_cast<double>(result->fold_accuracies.size());
  result->stddev_accuracy = std::sqrt(var);
  return Status::OK();
}

}  // namespace

StatusOr<CrossValidationResult> RunCrossValidation(const Dataset& data,
                                                   const TreeConfig& config,
                                                   ModelKind kind,
                                                   int folds, Rng* rng) {
  if (folds < 2) return Status::InvalidArgument("folds must be >= 2");
  if (data.num_tuples() < folds) {
    return Status::InvalidArgument("fewer tuples than folds");
  }
  UDT_RETURN_NOT_OK(config.Validate());

  std::vector<int> fold_of = data.StratifiedFolds(folds, rng);

  Trainer trainer(config);
  CrossValidationResult result;
  result.fold_accuracies.reserve(static_cast<size_t>(folds));
  for (int f = 0; f < folds; ++f) {
    auto [train, test] = data.SplitByFold(fold_of, f);
    if (train.empty() || test.empty()) continue;
    BuildStats stats;
    TrainRequest request = TrainRequest::For(train, kind);
    request.stats = &stats;
    UDT_ASSIGN_OR_RETURN(Model model, trainer.Train(request));
    // Evaluate through the serving path: compile the fold's tree once and
    // run a session over the held-out fold.
    PredictSession session(model.Compile());
    double accuracy = EvaluateAccuracy(session, test);
    result.fold_accuracies.push_back(accuracy);
    result.total_build_stats += stats;
  }
  UDT_RETURN_NOT_OK(FinishAccuracyStats(&result));
  return result;
}

StatusOr<ForestCrossValidationResult> RunForestCrossValidation(
    const Dataset& data, const ForestConfig& config, ModelKind kind,
    int folds, Rng* rng) {
  if (folds < 2) return Status::InvalidArgument("folds must be >= 2");
  if (data.num_tuples() < folds) {
    return Status::InvalidArgument("fewer tuples than folds");
  }
  UDT_RETURN_NOT_OK(config.Validate());

  std::vector<int> fold_of = data.StratifiedFolds(folds, rng);

  ForestTrainer trainer(config);
  ForestCrossValidationResult result;
  result.cv.fold_accuracies.reserve(static_cast<size_t>(folds));
  double oob_error_sum = 0.0;
  double oob_coverage_sum = 0.0;
  int oob_folds = 0;
  for (int f = 0; f < folds; ++f) {
    auto [train, test] = data.SplitByFold(fold_of, f);
    if (train.empty() || test.empty()) continue;
    OobEstimate oob;
    BuildStats stats;
    TrainRequest request = TrainRequest::For(train, kind);
    request.oob = &oob;
    request.stats = &stats;
    UDT_ASSIGN_OR_RETURN(ForestModel forest, trainer.Train(request));
    // Evaluate through the serving path: compile the fold's forest once
    // and run a session over the held-out fold.
    PredictSession session(forest.Compile());
    result.cv.fold_accuracies.push_back(EvaluateAccuracy(session, test));
    result.cv.total_build_stats += stats;
    // A fold with zero evaluated tuples reports NaN rates (the OobEstimate
    // sentinel); averaging it in would poison the mean, so only folds that
    // produced an estimate contribute.
    if (oob.evaluated_tuples > 0) {
      oob_error_sum += oob.error;
      ++oob_folds;
    }
    oob_coverage_sum += oob.coverage;
  }
  UDT_RETURN_NOT_OK(FinishAccuracyStats(&result.cv));
  const double used_folds =
      static_cast<double>(result.cv.fold_accuracies.size());
  result.mean_oob_error =
      oob_folds > 0 ? oob_error_sum / static_cast<double>(oob_folds)
                    : std::numeric_limits<double>::quiet_NaN();
  result.mean_oob_coverage = oob_coverage_sum / used_folds;
  return result;
}

}  // namespace udt
