// udt::serve::BatchingQueue — the admission layer between "millions of
// single-tuple requests" and one fast PredictSession. Concurrent Submit
// calls enqueue (tuple pointer, completion) pairs; a dedicated drainer
// thread coalesces them into micro-batches and classifies each batch with
// one gather PredictBatchInto call on a persistent ServeSession — so N
// clients share one session, one scratch set and one worker pool instead
// of paying per-request session or thread costs.
//
// Coalescing policy. `max_delay_us` is the longest a request waits for
// company, and the queue waits only while the arrival rate predicts
// company. Admission keeps a smoothed gap between consecutive admissions
// (an exponential moving average with gain 1/8, as TCP smooths its
// round-trip time, RFC 6298). When the drainer wakes to a non-empty queue
// and the smoothed gap is at least max_delay_us — fewer than one more
// arrival expected within the window — it serves everything pending at
// once (Stats::unwindowed_drains). Otherwise the classic size-or-deadline
// rule runs: a drain fires when `max_batch` requests are pending or the
// oldest has waited max_delay_us. The smoothed gap starts at 0, so a cold
// queue keeps the window; under heavy load batches fill instantly and the
// deadline never matters. After an idle stretch the next arrivals drain
// without a window until the smoothed gap falls back under it; each such
// drain still takes everything pending, so a burst coalesces while a
// batch runs. Responses do not depend on how requests were batched. The
// drainer runs with a 1 ns timer slack, so a windowed drain fires at its
// deadline to within the thread wake-up latency, not the kernel's default
// 50 µs late. Admission allocates nothing per request beyond the
// std::promise behind Submit's future (SubmitWithCallback: beyond the
// caller's callback); the deque's blocks are amortised.
//
// Hot swap. Each drain takes one registry snapshot (ModelHandle) before
// classifying. The batch in flight when a new version is published
// finishes wholly on the old artifact; the next drain resolves the new
// one and rebinds its session. Every response therefore reflects exactly
// one model version — never a torn mix — and ServeResult reports which.
//
// Backpressure and shutdown. Admission is bounded: when `max_queue`
// requests are already pending, Submit completes immediately with
// kUnavailable (shed load, retry later). Close() stops admission
// (kUnavailable thereafter), drains everything already admitted, and
// joins the drainer; the destructor calls Close(). Submit never blocks on
// classification — it only ever takes the queue mutex for a push.
//
// Threading contract. Submit/SubmitWithCallback/stats are safe from any
// thread. Completions (callbacks, future fulfilment) run on the drainer
// thread — keep them cheap or hop executors yourself. The caller's tuple
// must stay alive and unmodified until its completion runs; the queue
// never copies tuples (that is what keeps admission O(1)). A tuple that
// does not match the served schema fails alone with InvalidArgument; the
// rest of its micro-batch is served.

#ifndef UDT_SERVE_BATCHING_QUEUE_H_
#define UDT_SERVE_BATCHING_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/mutex.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace udt {
namespace serve {

// Per-request response. On OK: argmax label, full class distribution, the
// confidence policy outputs (per-class confidence is what the stream-layer
// DriftMonitor consumes), and the (name, version) of the registry entry
// that served it — the hot-swap stress test keys its byte-identity oracle
// on `model_version`.
struct ServeResult {
  Status status;
  // Argmax of `distribution` (ties -> lowest class id). Reported even
  // when `abstained` is set — the caller decides what a low-confidence
  // label is worth.
  int label = -1;
  // Probability of `label` — the winning class's share of the
  // distribution.
  double confidence = 0.0;
  // True when PredictOptions::abstain_threshold is > 0 and `confidence`
  // fell below it.
  bool abstained = false;
  std::vector<double> distribution;
  // The PredictOptions::top_k most probable classes, descending
  // probability (ties -> lowest class id); empty when top_k is 0.
  std::vector<int> top_classes;
  std::string model_name;
  uint64_t model_version = 0;
};

using ServeCallback = std::function<void(ServeResult)>;

struct BatchingConfig {
  // Drain when this many requests are pending.
  size_t max_batch = 64;
  // ... or when the oldest pending request has waited this long: the
  // longest a request waits for company. The drainer waits only while the
  // smoothed gap between admissions is under this window. 0 serves
  // eagerly; INT64_MAX never expires, so only a full batch or Close()
  // drains.
  int64_t max_delay_us = 200;
  // Admission bound: pending requests beyond this are rejected with
  // kUnavailable.
  size_t max_queue = 4096;
  // The one PredictOptions each drain classifies under: num_threads picks
  // the session's persistent pool width (1 = classify inline on the
  // drainer thread), and the output-policy fields (top_k,
  // abstain_threshold) shape every ServeResult.
  PredictOptions predict;
  // Observability tap: when set, invoked on the drainer thread with every
  // successfully classified response just before its completion runs —
  // the hook the adaptive-serving DriftMonitor hangs off to watch the
  // live confidence stream. Failed/shed requests are not tapped (they
  // carry no distribution). Must be cheap and thread-safe with respect to
  // whatever else reads its sink; it is never called concurrently with
  // itself.
  std::function<void(const ServeResult&)> response_tap;
};

class BatchingQueue {
 public:
  // Resolves a fresh model snapshot before each drain. Returning null
  // fails that batch's requests with kUnavailable (no live version).
  using SnapshotProvider = std::function<ModelHandle()>;

  // Serves whatever `provider` resolves to, re-resolved per drain. The
  // provider must be safe to call from the drainer thread.
  explicit BatchingQueue(SnapshotProvider provider,
                         const BatchingConfig& config = {});

  // Serves registry entry `name`, latest live version per drain — the
  // standard hot-swappable deployment. `registry` must outlive the queue.
  BatchingQueue(const ModelRegistry* registry, std::string name,
                const BatchingConfig& config = {});

  // Close()s, so destruction drains admitted requests first.
  ~BatchingQueue();

  BatchingQueue(const BatchingQueue&) = delete;
  BatchingQueue& operator=(const BatchingQueue&) = delete;

  // Admits one request. The future is fulfilled by the drainer (already
  // fulfilled on rejection). `tuple` must outlive the completion.
  std::future<ServeResult> Submit(const UncertainTuple* tuple);

  // Callback form of Submit; `done` runs exactly once, on the drainer
  // thread — or inline, on the calling thread, when admission rejects.
  void SubmitWithCallback(const UncertainTuple* tuple, ServeCallback done);

  // Stops admission, serves everything already admitted, joins the
  // drainer. Idempotent.
  void Close();

  // Monotonic counters, readable any time (consistent snapshot).
  struct Stats {
    uint64_t submitted = 0;  // admitted requests
    uint64_t rejected = 0;   // refused at admission (full or closed)
    uint64_t served = 0;     // requests taken by a drain (each is
                             // completed, with some status, before the
                             // drainer takes its next batch)
    uint64_t drains = 0;     // micro-batches classified
    uint64_t max_drain = 0;  // largest micro-batch so far
    // Drains that skipped the window because the smoothed admission gap
    // was at least max_delay_us (every drain when max_delay_us is 0).
    uint64_t unwindowed_drains = 0;
  };
  Stats stats() const;

  // Requests admitted but not yet taken by a drain.
  size_t pending() const;

 private:
  // One admitted request. Its completion is either the caller's callback
  // or the promise behind Submit's future, held inline: no shared_ptr to
  // the promise and no heap-stored std::function wrapping it.
  struct Pending {
    const UncertainTuple* tuple;
    std::variant<ServeCallback, std::promise<ServeResult>> done;
    std::chrono::steady_clock::time_point admitted_at;

    // The one completion path: served, malformed, failed batch, rejected.
    // Called exactly once per request.
    void Complete(ServeResult result);
  };

  // Shared admission for both Submit forms: enqueues `request` (stamping
  // admitted_at under mu_, so stamp order is queue order, and folding the
  // gap since the previous admission into smoothed_gap_ns_) or, on
  // rejection, completes it inline on the calling thread.
  void Admit(Pending request);
  void DrainLoop();
  // Classifies `batch` against `handle` (rebinding the session if the
  // snapshot changed) and completes every request; a request whose tuple
  // does not match the artifact's schema completes alone with
  // InvalidArgument. Runs on the drainer, no lock held.
  void ServeBatch(std::vector<Pending>& batch, ModelHandle handle);
  static void FailBatch(std::vector<Pending>& batch, const Status& status);

  const BatchingConfig config_;
  const SnapshotProvider provider_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Pending> pending_ UDT_GUARDED_BY(mu_);
  bool closed_ UDT_GUARDED_BY(mu_) = false;
  Stats stats_ UDT_GUARDED_BY(mu_);
  // Admission time of the newest request, and the exponential moving
  // average (gain 1/8) of the gaps between consecutive admissions, in
  // nanoseconds; 0 until the second admission.
  std::chrono::steady_clock::time_point last_admitted_at_ UDT_GUARDED_BY(mu_);
  int64_t smoothed_gap_ns_ UDT_GUARDED_BY(mu_) = 0;

  // Drainer-thread state (touched only by drainer_, no lock needed).
  ModelHandle bound_;
  std::optional<ServeSession> session_;
  std::vector<const UncertainTuple*> tuple_ptrs_;
  FlatBatchResult flat_;
  std::vector<int> top_scratch_;
  std::vector<Pending> batch_;

  // Written by the constructor (single-threaded), moved out by the first
  // Close() under mu_ so concurrent closers race on the mutex, not the
  // thread object.
  std::thread drainer_ UDT_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace udt

#endif  // UDT_SERVE_BATCHING_QUEUE_H_
