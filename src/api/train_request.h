// udt::TrainRequest — the one options struct behind every training entry
// point. Historically the trainers grew a signature per concern —
// Train(data, kind), TrainFromStorage(storage, kind, budget), per-tree
// weights hidden inside the forest trainer — and every new knob (seed
// override, warm start) would have multiplied them again. A TrainRequest
// names each knob once and both facades consume it:
//
//   TrainRequest request = TrainRequest::For(train, ModelKind::kUdt);
//   request.stats = &stats;
//   StatusOr<Model> model = trainer.Train(request);
//
// Trainers see only in-memory Datasets. Out-of-core training materialises
// a "udt-dataset v1" file first (storage/dataset_file.h) and then trains
// through the same request:
//
//   StatusOr<Dataset> pooled = MaterializeDataset(&reader, budget);
//   StatusOr<ForestModel> forest =
//       forest_trainer.Train(TrainRequest::For(*pooled));
//
// This struct is the only training entry point. Every call site —
// including the streaming RetrainController, which trains exclusively
// through requests — constructs a TrainRequest.

#ifndef UDT_API_TRAIN_REQUEST_H_
#define UDT_API_TRAIN_REQUEST_H_

#include <cstdint>
#include <optional>
#include <span>

#include "api/model.h"
#include "common/status.h"
#include "core/builder.h"
#include "table/dataset.h"

namespace udt {

class ForestModel;   // api/forest.h
struct OobEstimate;  // api/forest.h

// One training run, fully described. The dataset source must be set;
// everything else is optional and defaulted.
struct TrainRequest {
  // ------------------------------------------------------------- source
  // Trains directly on `*dataset` (must outlive the Train call).
  const Dataset* dataset = nullptr;

  // Optional per-tuple root weights over the dataset (one finite
  // non-negative weight per tuple, at least one positive; weight <= 0
  // excludes the tuple) — the bagged/boosted entry point, previously
  // reachable only through TreeBuilder::BuildWeighted. Single-tree only:
  // forests derive their own bootstrap bags from the seed, so a weighted
  // forest request is rejected. Empty means unweighted.
  std::span<const double> weights;

  // ------------------------------------------------------------- policy
  ModelKind kind = ModelKind::kUdt;

  // Training parallelism override: -1 keeps the trainer config's thread
  // count, 0 = one thread per hardware thread, N >= 1 = exactly N. The
  // result is bitwise-identical for every value.
  int num_threads = -1;

  // Seed override: replaces ForestConfig::seed (bags + subspaces) for
  // forest requests and TreeConfig::subspace_seed for single-tree
  // requests — the retrain loop varies this per generation without
  // mutating its trainer.
  std::optional<uint64_t> seed;

  // Forest warm start: carry the first `warm_trees` trees of `warm_start`
  // into the new ensemble unchanged and train only the remaining
  // num_trees - warm_trees fresh trees on the request's source. The
  // carried trees must match the fresh schema and kind. OOB is then
  // estimated over the fresh trees only (the carried trees never saw this
  // window, so counting them would overstate coverage). Single-tree
  // requests reject a warm start.
  const ForestModel* warm_start = nullptr;
  int warm_trees = 0;

  // --------------------------------------------------------- out-params
  BuildStats* stats = nullptr;  // may be null
  OobEstimate* oob = nullptr;   // forest requests only; may be null

  // ------------------------------------------------------- construction
  static TrainRequest For(const Dataset& data,
                          ModelKind kind = ModelKind::kUdt) {
    TrainRequest request;
    request.dataset = &data;
    request.kind = kind;
    return request;
  }

  // Source/knob consistency shared by both trainers (each adds its own
  // facade-specific checks on top). Defined in api/trainer.cc.
  Status Validate() const;
};

}  // namespace udt

#endif  // UDT_API_TRAIN_REQUEST_H_
