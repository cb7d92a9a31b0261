#include "eval/experiment.h"

#include <algorithm>

#include "datagen/japanese_vowel.h"

namespace udt {

StatusOr<Dataset> PrepareUncertainDataset(const datagen::UciDatasetSpec& spec,
                                          double scale, double w, int s,
                                          ErrorModel model) {
  if (spec.from_raw_samples) {
    datagen::JapaneseVowelConfig config;
    config.num_tuples = std::max(
        spec.num_classes * 4,
        static_cast<int>(spec.num_tuples * scale));
    config.num_speakers = spec.num_classes;
    config.num_attributes = spec.num_attributes;
    return datagen::GenerateJapaneseVowelLike(config);
  }
  PointDataset points = datagen::MakeUciLikePointData(spec, scale);
  UncertaintyOptions options;
  options.width_fraction = w;
  options.samples_per_pdf = s;
  options.error_model = model;
  return InjectUncertainty(points, options);
}

StatusOr<double> CvAccuracy(const Dataset& data, const TreeConfig& config,
                            ModelKind kind, int folds, uint64_t seed) {
  Rng rng(seed);
  UDT_ASSIGN_OR_RETURN(CrossValidationResult result,
                       RunCrossValidation(data, config, kind, folds, &rng));
  return result.mean_accuracy;
}

StatusOr<BuildStats> MeasureTreeBuild(const Dataset& data,
                                      const TreeConfig& config) {
  Trainer trainer(config);
  BuildStats stats;
  UDT_ASSIGN_OR_RETURN(Model model, trainer.TrainUdt(data, &stats));
  (void)model;  // only the statistics matter here
  return stats;
}

}  // namespace udt
