#include "core/config.h"

#include <cmath>

#include "common/string_util.h"

namespace udt {

// Every range check below is written as "value inside the range", which
// NaN fails; a negated comparison such as `x < 0.0` would let NaN through.
Status TreeConfig::Validate() const {
  if (max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (!(min_split_weight >= 0.0)) {
    return Status::InvalidArgument("min_split_weight must be >= 0");
  }
  if (!std::isfinite(min_gain)) {
    return Status::InvalidArgument("min_gain must be finite");
  }
  if (!(pruning_confidence > 0.0 && pruning_confidence < 1.0)) {
    return Status::InvalidArgument("pruning_confidence must be in (0, 1)");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = one per hardware thread)");
  }
  if (subspace_attributes < 0) {
    return Status::InvalidArgument(
        "subspace_attributes must be >= 0 (0 = all attributes)");
  }
  if (!(split_options.es_endpoint_sample_rate > 0.0 &&
        split_options.es_endpoint_sample_rate <= 1.0)) {
    return Status::InvalidArgument(
        "es_endpoint_sample_rate must be in (0, 1]");
  }
  if (split_options.percentiles_per_class < 1) {
    return Status::InvalidArgument("percentiles_per_class must be >= 1");
  }
  if (!(split_options.min_side_mass >= 0.0)) {
    return Status::InvalidArgument("min_side_mass must be >= 0");
  }
  return Status::OK();
}

std::string TreeConfig::ToString() const {
  return StrFormat(
      "algorithm=%s measure=%s max_depth=%d min_split_weight=%.3g "
      "min_gain=%.3g post_prune=%s cf=%.2f es_rate=%.2f threads=%d "
      "subspace=%d",
      SplitAlgorithmToString(algorithm), DispersionMeasureToString(measure),
      max_depth, min_split_weight, min_gain, post_prune ? "yes" : "no",
      pruning_confidence, split_options.es_endpoint_sample_rate,
      num_threads, subspace_attributes);
}

}  // namespace udt
