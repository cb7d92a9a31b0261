// udt::stream::AdaptiveServer — the closed adaptive serving loop, wired
// from the pieces this directory and serve/ provide:
//
//            point readings                uncertain tuples
//   clients ----------------> Calibrator -----------------.
//   clients ------------------------------ Submit --------+--> BatchingQueue
//                                                              |  (micro-batches,
//                      response tap (confidence stream)        |   one registry
//            .-------------------------------------------------  snapshot per
//            v                                                    drain)
//       DriftMonitor  <--- labeled feedback (Feedback) --- clients
//            |  DriftEvent
//            v
//       RetrainController --- TrainRequest ---> ForestTrainer
//            |  publish / rollback
//            v
//       ModelRegistry  (atomic hot swap; the queue's next drain serves
//                       the new version)
//
// Threading. Submit/SubmitReading are safe from any thread (the queue's
// admission contract). Feedback serialises the monitor and the controller
// under the server's mutexes; a retrain runs on the feedback caller's
// thread while the queue keeps draining against the incumbent snapshot —
// serving never blocks on training, and the swap is one registry pointer
// replacement. The queue's response tap observes every successful
// response's confidence under the monitor mutex only (never the retrain
// mutex), so the drainer thread cannot be held behind a retrain; a drift
// event the tap detects is parked and acted on at the next Feedback call.

#ifndef UDT_STREAM_ADAPTIVE_SERVER_H_
#define UDT_STREAM_ADAPTIVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/forest.h"
#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "stream/drift_monitor.h"
#include "stream/retrain_controller.h"
#include "stream/uncertainty_calibrator.h"

namespace udt {
namespace stream {

struct AdaptiveServerOptions {
  // Registry name the loop publishes under.
  std::string model_name = "adaptive";

  // Queue shape; `predict` is the loop's one PredictOptions (threads,
  // top_k, abstain_threshold). The response_tap slot is taken by the
  // server itself (rejected if set).
  serve::BatchingConfig batching;

  DriftMonitorOptions drift;
  RetrainPolicy retrain;
  CalibratorOptions calibrator;

  // When false, the queue tap is not installed and only labeled feedback
  // drives the monitor.
  bool monitor_confidence_tap = true;

  // Observability hooks, invoked on whichever thread detected the event /
  // finished the retrain, outside the server's mutexes. Optional.
  std::function<void(const DriftEvent&)> on_drift;
  std::function<void(const RetrainReport&)> on_retrain;
};

class AdaptiveServer {
 public:
  // Trains generation 1 on `seed_data` through the controller's
  // TrainRequest path, publishes it, anchors the drift monitor at its
  // out-of-bag error, and starts the serving queue.
  static StatusOr<std::unique_ptr<AdaptiveServer>> Create(
      const Dataset& seed_data, ForestTrainer trainer,
      AdaptiveServerOptions options = {});

  // Closes the queue (drains admitted requests) before tearing down.
  ~AdaptiveServer();

  AdaptiveServer(const AdaptiveServer&) = delete;
  AdaptiveServer& operator=(const AdaptiveServer&) = delete;

  // ------------------------------------------------------------ serving

  // Serves one already-uncertain tuple. The tuple must stay alive until
  // the future resolves (the queue never copies tuples).
  std::future<serve::ServeResult> Submit(const UncertainTuple* tuple);

  // Wraps a point reading vector under `source`'s learned error models
  // (UncertaintyCalibrator::Wrap) and serves the result. The server owns
  // the wrapped tuple until its completion runs, so there is no lifetime
  // obligation on the caller. A reading the calibrator rejects resolves
  // immediately with the error status.
  std::future<serve::ServeResult> SubmitReading(
      int source, const std::vector<double>& readings);

  // ----------------------------------------------------------- feedback

  // Ground truth arrived for a previously served tuple: feeds the drift
  // monitor with (served label, truth, confidence), adds the tuple to the
  // retrain window under the true label, and — when this observation (or
  // a drift event parked by the tap, or the tuple-count schedule) calls
  // for it — retrains, validates and hot-swaps inline. Returns the
  // retrain report when a retrain ran, nullopt otherwise.
  StatusOr<std::optional<RetrainReport>> Feedback(
      const UncertainTuple& tuple, int true_label,
      const serve::ServeResult& result);

  // Calibration feedback: the true value of one numerical attribute
  // reading became known.
  Status ObserveResidual(int source, int attribute, double reading,
                         double truth);

  // Forces a retrain attempt now (reason "manual" unless given).
  StatusOr<RetrainReport> ForceRetrain(const std::string& reason = "manual");

  // ------------------------------------------------------ introspection

  const serve::ModelRegistry& registry() const { return registry_; }
  serve::BatchingQueue& queue() { return *queue_; }
  const std::string& model_name() const { return options_.model_name; }
  uint64_t live_version() const;
  int64_t drift_events() const;
  // Snapshot of every drift event since construction.
  std::vector<DriftEvent> drift_log() const;
  int64_t generations() const;
  int64_t window_size() const;

 private:
  AdaptiveServer(ForestTrainer trainer, AdaptiveServerOptions options,
                 Schema schema);

  // Appends to the drift log and (for tap events) parks the trigger.
  // on_drift is the caller's job, outside the lock.
  void RecordEvent(const DriftEvent& event, bool from_tap)
      UDT_REQUIRES(monitor_mu_);

  AdaptiveServerOptions options_;

  serve::ModelRegistry registry_;

  // Guards the calibrator (readers wrap, feedback observes residuals).
  mutable Mutex calibrator_mu_;
  UncertaintyCalibrator calibrator_ UDT_GUARDED_BY(calibrator_mu_);

  // Guards the monitor, the drift log and the parked-drift flag. Taken by
  // the queue's drainer (tap) and by Feedback — never held across a
  // retrain.
  mutable Mutex monitor_mu_;
  DriftMonitor monitor_ UDT_GUARDED_BY(monitor_mu_);
  std::vector<DriftEvent> drift_log_ UDT_GUARDED_BY(monitor_mu_);
  bool pending_drift_ UDT_GUARDED_BY(monitor_mu_) = false;

  // Guards the controller (window + retrain + publish). Long holds are
  // confined to the feedback path; the drainer never takes it.
  mutable Mutex retrain_mu_;
  RetrainController controller_ UDT_GUARDED_BY(retrain_mu_);

  std::unique_ptr<serve::BatchingQueue> queue_;
};

}  // namespace stream
}  // namespace udt

#endif  // UDT_STREAM_ADAPTIVE_SERVER_H_
