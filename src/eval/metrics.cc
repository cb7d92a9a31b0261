#include "eval/metrics.h"

#include "api/forest.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace udt {

ConfusionMatrix::ConfusionMatrix(int num_classes)
    : num_classes_(num_classes),
      cells_(static_cast<size_t>(num_classes) *
                 static_cast<size_t>(num_classes),
             0) {
  UDT_CHECK(num_classes >= 1);
}

void ConfusionMatrix::Add(int true_label, int predicted_label) {
  UDT_CHECK(true_label >= 0 && true_label < num_classes_);
  UDT_CHECK(predicted_label >= 0 && predicted_label < num_classes_);
  ++cells_[static_cast<size_t>(true_label) *
               static_cast<size_t>(num_classes_) +
           static_cast<size_t>(predicted_label)];
  ++total_;
}

int64_t ConfusionMatrix::count(int true_label, int predicted_label) const {
  return cells_[static_cast<size_t>(true_label) *
                    static_cast<size_t>(num_classes_) +
                static_cast<size_t>(predicted_label)];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  int64_t correct = 0;
  for (int c = 0; c < num_classes_; ++c) correct += count(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

std::vector<double> ConfusionMatrix::Recalls() const {
  std::vector<double> recalls(static_cast<size_t>(num_classes_), 0.0);
  for (int c = 0; c < num_classes_; ++c) {
    int64_t row = 0;
    for (int p = 0; p < num_classes_; ++p) row += count(c, p);
    if (row > 0) {
      recalls[static_cast<size_t>(c)] =
          static_cast<double>(count(c, c)) / static_cast<double>(row);
    }
  }
  return recalls;
}

std::string ConfusionMatrix::ToString(
    const std::vector<std::string>& class_names) const {
  std::string out = StrFormat("%-12s", "true\\pred");
  for (int p = 0; p < num_classes_; ++p) {
    out += StrFormat("%10s",
                     p < static_cast<int>(class_names.size())
                         ? class_names[static_cast<size_t>(p)].c_str()
                         : "?");
  }
  out += "\n";
  for (int c = 0; c < num_classes_; ++c) {
    out += StrFormat("%-12s",
                     c < static_cast<int>(class_names.size())
                         ? class_names[static_cast<size_t>(c)].c_str()
                         : "?");
    for (int p = 0; p < num_classes_; ++p) {
      out += StrFormat("%10lld", static_cast<long long>(count(c, p)));
    }
    out += "\n";
  }
  return out;
}

ConfusionMatrix EvaluateConfusion(PredictSession& session, const Dataset& test,
                                  const PredictOptions& options) {
  FlatBatchResult batch;
  UDT_CHECK(session.PredictBatchInto(test.tuples(), options, &batch).ok());
  ConfusionMatrix matrix(test.num_classes());
  for (int i = 0; i < test.num_tuples(); ++i) {
    matrix.Add(test.tuple(i).label, batch.labels[static_cast<size_t>(i)]);
  }
  return matrix;
}

double EvaluateAccuracy(PredictSession& session, const Dataset& test,
                        const PredictOptions& options) {
  return EvaluateConfusion(session, test, options).Accuracy();
}

ConfusionMatrix EvaluateConfusion(const Model& model, const Dataset& test,
                                  const PredictOptions& options) {
  PredictSession session(model.Compile());
  return EvaluateConfusion(session, test, options);
}

double EvaluateAccuracy(const Model& model, const Dataset& test,
                        const PredictOptions& options) {
  return EvaluateConfusion(model, test, options).Accuracy();
}

ConfusionMatrix EvaluateConfusion(const ForestModel& forest,
                                  const Dataset& test,
                                  const PredictOptions& options) {
  PredictSession session(forest.Compile());
  return EvaluateConfusion(session, test, options);
}

double EvaluateAccuracy(const ForestModel& forest, const Dataset& test,
                        const PredictOptions& options) {
  return EvaluateConfusion(forest, test, options).Accuracy();
}

AbstentionReport EvaluateWithAbstention(PredictSession& session,
                                        const Dataset& test,
                                        const PredictOptions& options) {
  FlatBatchResult batch;
  UDT_CHECK(session.PredictBatchInto(test.tuples(), options, &batch).ok());
  AbstentionReport report;
  report.total = test.num_tuples();
  int64_t correct_answered = 0;
  int64_t correct_total = 0;
  for (int i = 0; i < test.num_tuples(); ++i) {
    const size_t idx = static_cast<size_t>(i);
    const int label = batch.labels[idx];
    const bool correct = label == test.tuple(i).label;
    if (correct) ++correct_total;
    const double confidence =
        batch.distribution(idx)[static_cast<size_t>(label)];
    if (options.abstain_threshold > 0.0 &&
        confidence < options.abstain_threshold) {
      ++report.abstained;
      continue;
    }
    ++report.answered;
    if (correct) ++correct_answered;
  }
  if (report.total > 0) {
    report.coverage = static_cast<double>(report.answered) /
                      static_cast<double>(report.total);
    report.accuracy_overall = static_cast<double>(correct_total) /
                              static_cast<double>(report.total);
  }
  if (report.answered > 0) {
    report.accuracy_on_answered = static_cast<double>(correct_answered) /
                                  static_cast<double>(report.answered);
  }
  return report;
}

AbstentionReport EvaluateWithAbstention(const ForestModel& forest,
                                        const Dataset& test,
                                        const PredictOptions& options) {
  PredictSession session(forest.Compile());
  return EvaluateWithAbstention(session, test, options);
}

}  // namespace udt
