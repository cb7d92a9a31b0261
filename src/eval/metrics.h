// Classification quality metrics: accuracy and confusion matrices over
// uncertain test sets. Following the paper, the predicted label is the
// class of highest probability in the classifier's output distribution.

#ifndef UDT_EVAL_METRICS_H_
#define UDT_EVAL_METRICS_H_

#include <string>
#include <vector>

#include "api/model.h"
#include "api/predict_session.h"
#include "table/dataset.h"

namespace udt {

// Forward declaration (api/forest.h): the forest overloads below take
// references only, so consumers that never touch forests don't pay for
// the ensemble header.
class ForestModel;

// Row-per-true-class confusion matrix with weighted helpers.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  void Add(int true_label, int predicted_label);

  int num_classes() const { return num_classes_; }
  int64_t count(int true_label, int predicted_label) const;
  int64_t total() const { return total_; }

  // Fraction of predictions on the diagonal; 0 for an empty matrix.
  double Accuracy() const;

  // Per-class recall (diagonal / row sum); 0 for empty rows.
  std::vector<double> Recalls() const;

  // Pretty table for reports.
  std::string ToString(const std::vector<std::string>& class_names) const;

 private:
  int num_classes_;
  int64_t total_ = 0;
  std::vector<int64_t> cells_;  // row-major [true][predicted]
};

// Classifies every tuple of `test` through an existing serving session
// (one PredictBatchInto call; a tree or a forest) and tallies the matrix.
// `options` controls batch sharding and must be valid (a negative thread
// count is a checked error; validate it at the serving edge, where
// PredictBatchInto returns it as a Status).
ConfusionMatrix EvaluateConfusion(PredictSession& session, const Dataset& test,
                                  const PredictOptions& options = {});
double EvaluateAccuracy(PredictSession& session, const Dataset& test,
                        const PredictOptions& options = {});

// Convenience overloads that compile `model` and run a one-shot session.
ConfusionMatrix EvaluateConfusion(const Model& model, const Dataset& test,
                                  const PredictOptions& options = {});
double EvaluateAccuracy(const Model& model, const Dataset& test,
                        const PredictOptions& options = {});

// Ensemble counterparts of the one-shot overloads.
ConfusionMatrix EvaluateConfusion(const ForestModel& forest,
                                  const Dataset& test,
                                  const PredictOptions& options = {});
double EvaluateAccuracy(const ForestModel& forest, const Dataset& test,
                        const PredictOptions& options = {});

// Quality under an abstention policy (PredictOptions::abstain_threshold):
// a prediction whose winning probability falls below the threshold is not
// answered, so accuracy is measured over the answered subset only and
// coverage reports how much of the test set that subset is. The classic
// selective-classification trade-off: raising the threshold should raise
// accuracy_on_answered and lower coverage.
struct AbstentionReport {
  int64_t total = 0;
  int64_t answered = 0;
  int64_t abstained = 0;
  // answered / total; 0 for an empty test set.
  double coverage = 0.0;
  // Correct answered predictions / answered; 0 when everything abstained.
  double accuracy_on_answered = 0.0;
  // Correct / total regardless of abstention — the figure to compare
  // against a no-abstention baseline.
  double accuracy_overall = 0.0;
};

// Evaluates `test` through a session under `options`'s abstention
// threshold (sharding knobs honoured as usual). options.abstain_threshold
// = 0 degenerates to coverage 1 and both accuracies equal.
AbstentionReport EvaluateWithAbstention(PredictSession& session,
                                        const Dataset& test,
                                        const PredictOptions& options);
// One-shot: compiles `forest` and evaluates through a fresh session.
AbstentionReport EvaluateWithAbstention(const ForestModel& forest,
                                        const Dataset& test,
                                        const PredictOptions& options);

}  // namespace udt

#endif  // UDT_EVAL_METRICS_H_
