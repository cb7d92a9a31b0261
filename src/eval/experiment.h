// Shared experiment drivers for the bench harnesses: data-set preparation
// (Section 4.3 pipeline over the Table 2 catalogue) and timed/counted
// tree builds.

#ifndef UDT_EVAL_EXPERIMENT_H_
#define UDT_EVAL_EXPERIMENT_H_

#include "api/trainer.h"
#include "common/statusor.h"
#include "core/builder.h"
#include "core/config.h"
#include "datagen/uci_like.h"
#include "eval/cross_validation.h"
#include "table/uncertainty_injector.h"

namespace udt {

// Prepares the uncertain form of a Table 2 data set:
//  * "JapaneseVowel" (spec.from_raw_samples): pdfs from raw repeated
//    measurements; `w`, `s` and `model` are ignored as in the paper.
//  * otherwise: synthetic point data (shape per spec, shrunk by `scale`)
//    run through the Section 4.3 injector with the given parameters.
StatusOr<Dataset> PrepareUncertainDataset(const datagen::UciDatasetSpec& spec,
                                          double scale, double w, int s,
                                          ErrorModel model);

// Cross-validated accuracy of one model family on `data`, trained and
// evaluated through the Trainer/Model facade. Deterministic in `seed`.
StatusOr<double> CvAccuracy(const Dataset& data, const TreeConfig& config,
                            ModelKind kind, int folds, uint64_t seed);

// One full tree build, returning its work statistics (wall-clock seconds
// and entropy-calculation counters; Figs 6-9 are built from these).
StatusOr<BuildStats> MeasureTreeBuild(const Dataset& data,
                                      const TreeConfig& config);

}  // namespace udt

#endif  // UDT_EVAL_EXPERIMENT_H_
