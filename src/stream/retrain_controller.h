// udt::stream::RetrainController — the actuator of the adaptive serving
// loop. It accumulates labeled feedback tuples in a bounded ring window
// (the most recent window_capacity tuples — the freshest picture of the
// live distribution), and on a trigger (a DriftEvent, a tuple-count
// schedule, or an explicit call) it:
//
//   1. splits the window into a training set and a deterministic holdout,
//   2. trains a candidate forest through the unified TrainRequest entry
//      point — optionally warm-starting from the incumbent's first
//      warm_trees trees, optionally spilling the training split to a
//      "udt-dataset v1" container (ConvertDatasetToFile) and training on
//      the re-opened, materialised file (DatasetReader::Open, then
//      MaterializeDataset — the storage round-trip the compact tier
//      guarantees is lossless at serving precision),
//   3. validates the candidate against the holdout and against the
//      incumbent's holdout accuracy,
//   4. publishes the candidate through the ModelRegistry (atomic hot swap:
//      the queue's next drain serves it) — or rolls it back untouched if
//      it regressed beyond max_regression.
//
// The controller never blocks serving: training happens on the caller's
// thread (the adaptive server invokes it from its feedback path) while the
// BatchingQueue keeps draining against the incumbent snapshot; the swap is
// one registry pointer replacement. Every retrain runs on one pool the
// controller builds once, as wide as the forest trains (its workers plus
// the caller): the spill's layers, the trees with their subtree and scan
// tasks, the out-of-bag scoring and the holdout scores — the incumbent's
// beside the spill, over the artifact kept from its publish. So a retrain
// spawns no thread, and the pool is the one place a worker policy for
// training would go. Not thread-safe; callers serialise.
// The adaptive server's instance is declared UDT_GUARDED_BY(retrain_mu_),
// so under clang's -Wthread-safety that serialisation is
// compiler-enforced, not hoped for.

#ifndef UDT_STREAM_RETRAIN_CONTROLLER_H_
#define UDT_STREAM_RETRAIN_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "api/forest.h"
#include "common/statusor.h"
#include "common/task_pool.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "storage/quantized_pdf.h"
#include "table/dataset.h"

namespace udt {
namespace stream {

struct RetrainPolicy {
  // Labeled tuples retained: the training window. Oldest fall off first.
  size_t window_capacity = 2048;

  // Retrain refuses to run (NotEnoughData... InvalidArgument) below this
  // many window tuples — a forest trained on a handful of tuples would
  // validate as noise.
  size_t min_window = 64;

  // Tuple-count schedule: when > 0, ScheduleDue() turns true every this
  // many labeled tuples since the last publish, drift or not. 0 disables
  // (drift-triggered only).
  int64_t schedule_every = 0;

  // Fraction of the window held out for validation (deterministic
  // striding, so the same window always yields the same split).
  double holdout_fraction = 0.25;

  // Rollback rule: the candidate must score at least
  // incumbent_holdout_accuracy - max_regression to be published.
  double max_regression = 0.02;

  // Carry this many incumbent trees into each candidate (TrainRequest
  // warm start); 0 retrains every tree from scratch.
  int warm_trees = 0;

  // When true, the training split is written by ConvertDatasetToFile to
  // `spill_path`, re-opened with DatasetReader::Open and materialised with
  // MaterializeDataset, and the candidate trains on that Dataset — the
  // out-of-core window assembly. The three run column-parallel on the
  // controller's pool, as wide as the forest trains (the trainer's
  // num_threads). When false the window trains in memory.
  bool spill_to_storage = false;
  std::string spill_path;
  QuantizationOptions spill_options;

  Status Validate() const;
};

// What one retrain attempt did.
struct RetrainReport {
  std::string reason;
  bool published = false;
  bool rolled_back = false;
  // Registry version of the published candidate (0 when rolled back).
  uint64_t version = 0;
  int64_t window_tuples = 0;
  int64_t holdout_tuples = 0;
  // Holdout accuracies; incumbent_accuracy is NaN for the first publish
  // (nothing to compare against).
  double candidate_accuracy = std::numeric_limits<double>::quiet_NaN();
  double incumbent_accuracy = std::numeric_limits<double>::quiet_NaN();
  // The candidate's out-of-bag estimate — the baseline the DriftMonitor
  // re-anchors on after a publish.
  OobEstimate oob;

  std::string ToString() const;
};

class RetrainController {
 public:
  // Publishes under `name` into `registry` (not owned, must outlive the
  // controller). `trainer` fixes the forest config each generation trains
  // under; its seed is varied per generation through the request override
  // so consecutive candidates don't reuse bags.
  RetrainController(serve::ModelRegistry* registry, std::string name,
                    Schema schema, ForestTrainer trainer,
                    const RetrainPolicy& policy = {});

  // Trains the first generation on `seed_data` (whole data set, no
  // holdout gate — there is no incumbent to regress against) and
  // publishes it. Must be the first publish.
  StatusOr<RetrainReport> Bootstrap(const Dataset& seed_data);

  // Copies one labeled tuple into the window (schema-checked label and
  // arity; oldest tuple evicted at capacity).
  Status AddLabeled(UncertainTuple tuple);

  // True when the tuple-count schedule has fired since the last publish.
  bool ScheduleDue() const;

  // True when the window holds enough tuples for Retrain to accept — the
  // adaptive server parks drift triggers until this turns true.
  bool CanRetrain() const { return window_.size() >= policy_.min_window; }

  // Runs one retrain attempt (see class comment). `reason` is recorded in
  // the report — "drift", "schedule", "manual". Fails below min_window.
  StatusOr<RetrainReport> Retrain(const std::string& reason);

  // The currently published generation (nullptr before Bootstrap).
  const ForestModel* incumbent() const { return incumbent_.get(); }
  uint64_t incumbent_version() const { return incumbent_version_; }
  // The incumbent's OOB error — the DriftMonitor's reference baseline
  // (NaN before the first bootstrap-with-bags publish).
  double incumbent_oob_error() const { return incumbent_oob_error_; }

  int64_t window_size() const {
    return static_cast<int64_t>(window_.size());
  }
  int64_t labeled_since_publish() const { return labeled_since_publish_; }
  int64_t generations() const { return generations_; }

 private:
  StatusOr<RetrainReport> TrainValidatePublish(const Dataset& train,
                                               const Dataset* holdout,
                                               const std::string& reason);

  // Writes `train` to the policy's spill path, re-opens it and
  // materialises it, each layer column-parallel on pool_.
  StatusOr<Dataset> SpillAndReload(const Dataset& train);

  serve::ModelRegistry* registry_;
  std::string name_;
  Schema schema_;
  ForestTrainer trainer_;
  RetrainPolicy policy_;

  // Every retrain's spill, forest and holdout scoring run on this pool,
  // built once at the forest's width: its workers plus the calling thread.
  std::unique_ptr<TaskPool> pool_;

  std::deque<UncertainTuple> window_;
  std::shared_ptr<const ForestModel> incumbent_;
  // The artifact published for incumbent_, which its holdout score reads.
  std::optional<serve::Servable> incumbent_servable_;
  uint64_t incumbent_version_ = 0;
  double incumbent_oob_error_ = std::numeric_limits<double>::quiet_NaN();
  int64_t labeled_since_publish_ = 0;
  int64_t generations_ = 0;
};

}  // namespace stream
}  // namespace udt

#endif  // UDT_STREAM_RETRAIN_CONTROLLER_H_
