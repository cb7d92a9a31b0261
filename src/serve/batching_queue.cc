#include "serve/batching_queue.h"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/logging.h"
#include "common/string_util.h"

namespace udt {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

// admitted_at + max_delay_us, saturated at time_point::max(): converting a
// huge delay (INT64_MAX meaning "never") to the clock's nanoseconds would
// overflow and land the deadline in the past.
Clock::time_point DrainDeadline(Clock::time_point admitted_at,
                                int64_t max_delay_us) {
  const int64_t headroom_us =
      (Clock::time_point::max() - admitted_at) / std::chrono::microseconds(1);
  if (max_delay_us >= headroom_us) return Clock::time_point::max();
  return admitted_at + std::chrono::microseconds(max_delay_us);
}

// True when the smoothed admission gap is at least the window, i.e. fewer
// than one more arrival is expected before the oldest request's deadline.
// Compared in whole microseconds (floor(g / 1000) >= d exactly when
// g >= 1000 d), so no window up to INT64_MAX overflows.
bool ArrivalsTooSparseForWindow(int64_t smoothed_gap_ns,
                                int64_t max_delay_us) {
  return smoothed_gap_ns / 1000 >= max_delay_us;
}

}  // namespace

BatchingQueue::BatchingQueue(SnapshotProvider provider,
                             const BatchingConfig& config)
    : config_(config), provider_(std::move(provider)) {
  UDT_CHECK(provider_ != nullptr);
  UDT_CHECK(config_.max_batch > 0);
  UDT_CHECK(config_.max_queue > 0);
  UDT_CHECK(config_.max_delay_us >= 0);
  UDT_CHECK(config_.predict.Validate().ok());
  drainer_ = std::thread([this] { DrainLoop(); });
}

BatchingQueue::BatchingQueue(const ModelRegistry* registry, std::string name,
                             const BatchingConfig& config)
    : BatchingQueue(
          [registry, name = std::move(name)] {
            return registry->Resolve(name);
          },
          config) {
  UDT_CHECK(registry != nullptr);
}

BatchingQueue::~BatchingQueue() { Close(); }

void BatchingQueue::Pending::Complete(ServeResult result) {
  if (auto* callback = std::get_if<ServeCallback>(&done)) {
    (*callback)(std::move(result));
  } else {
    std::get<std::promise<ServeResult>>(done).set_value(std::move(result));
  }
}

void BatchingQueue::SubmitWithCallback(const UncertainTuple* tuple,
                                       ServeCallback done) {
  UDT_CHECK(done != nullptr);
  Admit(Pending{tuple, std::move(done), {}});
}

std::future<ServeResult> BatchingQueue::Submit(const UncertainTuple* tuple) {
  std::promise<ServeResult> promise;
  std::future<ServeResult> future = promise.get_future();
  Admit(Pending{tuple, std::move(promise), {}});
  return future;
}

void BatchingQueue::Admit(Pending request) {
  UDT_CHECK(request.tuple != nullptr);
  Status rejection;
  {
    MutexLock lock(&mu_);
    if (closed_) {
      rejection = Status::Unavailable("BatchingQueue is closed");
    } else if (pending_.size() >= config_.max_queue) {
      rejection = Status::Unavailable(
          StrFormat("BatchingQueue admission limit reached (%zu pending)",
                    pending_.size()));
    } else {
      request.admitted_at = Clock::now();
      if (stats_.submitted > 0) {
        // smoothed += (gap - smoothed) / 8. The steady clock makes both
        // terms non-negative, so the difference cannot overflow.
        const std::chrono::nanoseconds gap =
            request.admitted_at - last_admitted_at_;
        smoothed_gap_ns_ += (gap.count() - smoothed_gap_ns_) / 8;
      }
      last_admitted_at_ = request.admitted_at;
      ++stats_.submitted;
      pending_.push_back(std::move(request));
      // Wake the drainer when the batch fills; the first admission after
      // an idle stretch must wake it too, so it can arm the deadline.
      if (pending_.size() == 1 || pending_.size() >= config_.max_batch) {
        cv_.NotifyAll();
      }
      return;
    }
    ++stats_.rejected;
  }
  // Inline completion, outside the lock: the callback may re-enter
  // Submit or take arbitrary time.
  ServeResult result;
  result.status = std::move(rejection);
  request.Complete(std::move(result));
}

void BatchingQueue::Close() {
  std::thread to_join;
  {
    MutexLock lock(&mu_);
    closed_ = true;
    cv_.NotifyAll();
    // Only the first closer receives a joinable thread; concurrent or
    // repeated Close() calls are no-ops past this point.
    to_join = std::move(drainer_);
  }
  if (to_join.joinable()) to_join.join();
}

BatchingQueue::Stats BatchingQueue::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t BatchingQueue::pending() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

void BatchingQueue::DrainLoop() {
#ifdef __linux__
  // Linux adds the thread's timer slack (50 µs by default) to every timed
  // wait, so each windowed drain below would fire ~50 µs past its
  // deadline. 1 ns is the smallest slack the kernel accepts (0 restores
  // the default).
  prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
#endif
  for (;;) {
    // Lock scope per drain iteration; ServeBatch runs unlocked below, so
    // admissions continue while a micro-batch classifies.
    {
      MutexLock lock(&mu_);
      while (!closed_ && pending_.empty()) cv_.Wait(lock);
      if (pending_.empty()) return;  // closed_ and fully drained

      if (ArrivalsTooSparseForWindow(smoothed_gap_ns_, config_.max_delay_us)) {
        // No company is due within the window: serve what is pending now.
        ++stats_.unwindowed_drains;
      } else {
        // Coalescing window: wait for a full batch, the oldest request's
        // deadline, or shutdown (which serves whatever is pending, now).
        const auto deadline =
            DrainDeadline(pending_.front().admitted_at, config_.max_delay_us);
        while (!closed_ && pending_.size() < config_.max_batch &&
               Clock::now() < deadline) {
          cv_.WaitUntil(lock, deadline);
        }
      }

      const size_t take = std::min(pending_.size(), config_.max_batch);
      batch_.clear();
      batch_.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch_.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      ++stats_.drains;
      stats_.max_drain = std::max<uint64_t>(stats_.max_drain, take);
      // Counted at take time, before completions run: a client reading
      // stats() right after its future resolves must already see itself
      // in `served` (the increment-after-drain ordering would lag).
      stats_.served += take;
    }
    // One registry snapshot per micro-batch: the atomic-hot-swap point.
    ServeBatch(batch_, provider_());
  }
}

void BatchingQueue::FailBatch(std::vector<Pending>& batch,
                              const Status& status) {
  for (Pending& request : batch) {
    ServeResult result;
    result.status = status;
    request.Complete(std::move(result));
  }
  batch.clear();
}

void BatchingQueue::ServeBatch(std::vector<Pending>& batch,
                               ModelHandle handle) {
  if (handle == nullptr) {
    FailBatch(batch, Status::Unavailable("no live model version to serve"));
    return;
  }
  if (handle != bound_) {
    // Hot swap observed: bind the new artifact. The session copies the
    // shared handle, so retiring the old registry entry cannot dangle an
    // in-flight batch.
    session_.emplace(handle->servable);
    bound_ = std::move(handle);
  }

  // A malformed request (wrong value count, a value of the wrong kind, a
  // categorical pdf of the wrong width) fails alone with InvalidArgument;
  // the rest of the drain is served. The kernels assume these invariants,
  // so nothing unchecked may reach them.
  const Schema& schema = bound_->servable.schema();
  size_t kept = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Status valid = ValidateTupleValues(schema, *batch[i].tuple);
    if (!valid.ok()) {
      ServeResult result;
      result.status = std::move(valid);
      batch[i].Complete(std::move(result));
      continue;
    }
    if (kept != i) batch[kept] = std::move(batch[i]);
    ++kept;
  }
  batch.resize(kept);
  if (batch.empty()) return;

  tuple_ptrs_.clear();
  tuple_ptrs_.reserve(batch.size());
  for (const Pending& request : batch) tuple_ptrs_.push_back(request.tuple);

  flat_.Clear();
  Status status = session_->PredictBatchInto(
      std::span<const UncertainTuple* const>(tuple_ptrs_.data(),
                                             tuple_ptrs_.size()),
      config_.predict, &flat_);
  if (!status.ok()) {
    FailBatch(batch, status);
    return;
  }

  const size_t k = static_cast<size_t>(flat_.num_classes);
  for (size_t i = 0; i < batch.size(); ++i) {
    ServeResult result;
    result.label = flat_.labels[i];
    const double* row = flat_.distributions.data() + i * k;
    result.distribution.assign(row, row + k);
    result.confidence = row[static_cast<size_t>(result.label)];
    result.abstained = config_.predict.abstain_threshold > 0.0 &&
                       result.confidence < config_.predict.abstain_threshold;
    if (config_.predict.top_k > 0) {
      // Partial sort over class ids: descending probability, ties broken
      // toward the lowest class id (the id order a stable comparator on
      // ascending ids gives for free).
      const size_t top =
          std::min(static_cast<size_t>(config_.predict.top_k), k);
      top_scratch_.resize(k);
      for (size_t c = 0; c < k; ++c) top_scratch_[c] = static_cast<int>(c);
      std::partial_sort(top_scratch_.begin(), top_scratch_.begin() + top,
                        top_scratch_.end(), [row](int a, int b) {
                          if (row[a] != row[b]) return row[a] > row[b];
                          return a < b;
                        });
      result.top_classes.assign(top_scratch_.begin(),
                                top_scratch_.begin() + top);
    }
    result.model_name = bound_->name;
    result.model_version = bound_->version;
    if (config_.response_tap) config_.response_tap(result);
    batch[i].Complete(std::move(result));
  }
  batch.clear();
}

}  // namespace serve
}  // namespace udt
