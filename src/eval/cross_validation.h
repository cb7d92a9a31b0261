// k-fold cross-validation (the paper uses 10-fold for data sets without a
// predefined train/test split, Section 4.3).

#ifndef UDT_EVAL_CROSS_VALIDATION_H_
#define UDT_EVAL_CROSS_VALIDATION_H_

#include <vector>

#include "api/forest.h"
#include "api/trainer.h"
#include "common/random.h"
#include "common/statusor.h"
#include "core/builder.h"
#include "core/config.h"
#include "table/dataset.h"

namespace udt {

// Which model family a cross-validation run trains. Historically a
// separate enum; now the api layer's ModelKind (kAveraging / kUdt) is
// used directly.
using ClassifierKind = ModelKind;

struct CrossValidationResult {
  std::vector<double> fold_accuracies;
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
  // Work statistics accumulated over all folds.
  BuildStats total_build_stats;
};

// Runs stratified k-fold cross-validation of the given model kind through
// the Trainer/Model facade. Deterministic in *rng's state.
StatusOr<CrossValidationResult> RunCrossValidation(const Dataset& data,
                                                   const TreeConfig& config,
                                                   ModelKind kind,
                                                   int folds, Rng* rng);

// Cross-validation of an ensemble, plus the out-of-bag view: held-out
// fold accuracy comes from the compiled forest serving path, and each
// fold's OOB estimate (computed on its training split only) is averaged
// alongside — so single-tree vs forest comparisons get both the unbiased
// k-fold number and the cheaper OOB proxy in one run.
struct ForestCrossValidationResult {
  CrossValidationResult cv;
  // Mean of the per-fold out-of-bag error, over the folds that evaluated
  // at least one tuple; NaN when no fold produced an estimate (e.g.
  // ForestConfig::bootstrap off — no bags, nothing out of bag). Coverage
  // is averaged over all folds, so a degenerate fold drags it toward 0
  // instead of vanishing silently.
  double mean_oob_error = 0.0;
  double mean_oob_coverage = 0.0;
};

// Runs stratified k-fold cross-validation of a forest. Deterministic in
// *rng's state and config.seed (the same forest seed is reused per fold;
// fold diversity comes from the fold split itself).
StatusOr<ForestCrossValidationResult> RunForestCrossValidation(
    const Dataset& data, const ForestConfig& config, ModelKind kind,
    int folds, Rng* rng);

}  // namespace udt

#endif  // UDT_EVAL_CROSS_VALIDATION_H_
