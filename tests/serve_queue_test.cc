// BatchingQueue: results byte-identical to a direct session, coalescing
// (N concurrent submits -> at most ceil(N/max_batch) drains),
// timeout-triggered partial batches, the deadline as a floor (and a
// saturated "never" deadline), rate-aware windows (a sparse stream skips
// the window, a dense burst keeps it, a burst after an idle stretch still
// coalesces, a "never" window is never skipped), the drainer's timer
// slack, graceful shutdown (drain, then reject-after-close),
// bounded-admission backpressure with inline rejections, mixed
// future/callback drains, malformed requests failing alone, and the
// result-buffer reuse contracts the queue depends on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "api/trainer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/batching_queue.h"
#include "serve/model_registry.h"

namespace udt {
namespace serve {
namespace {

Dataset NumericDataset(int tuples, int attributes, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label) * 1.5, 1.0), 1.2, 8);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

Servable TrainServable(uint64_t seed) {
  auto model = Trainer().TrainUdt(NumericDataset(90, 2, seed));
  UDT_CHECK(model.ok());
  return Servable(model->Compile());
}

// A provider that can be held shut: while closed, the drainer blocks
// inside the provider call (after it has taken a batch), which lets tests
// stage deterministic queue states.
class GatedProvider {
 public:
  explicit GatedProvider(ModelHandle handle) : handle_(std::move(handle)) {}

  BatchingQueue::SnapshotProvider AsProvider() {
    return [this] {
      MutexLock lock(&mu_);
      ++entered_;
      cv_.NotifyAll();
      while (!open_) cv_.Wait(lock);
      return handle_;
    };
  }

  void Open() {
    MutexLock lock(&mu_);
    open_ = true;
    cv_.NotifyAll();
  }

  // Blocks until the drainer is parked inside the provider (i.e. it has
  // taken a batch and the pending queue is at its post-take size).
  void AwaitEntered(int times) {
    MutexLock lock(&mu_);
    while (entered_ < times) cv_.Wait(lock);
  }

 private:
  ModelHandle handle_;
  Mutex mu_;
  CondVar cv_;
  int entered_ UDT_GUARDED_BY(mu_) = 0;
  bool open_ UDT_GUARDED_BY(mu_) = false;
};

// One numerical and one 3-way categorical column.
Dataset MixedDataset(int tuples, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create({{"x", AttributeKind::kNumerical, 0},
                                {"channel", AttributeKind::kCategorical, 3}},
                               {"A", "B", "C"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    auto pdf = MakeGaussianErrorPdf(
        rng.Gaussian(static_cast<double>(t.label), 0.8), 1.0, 8);
    UDT_CHECK(pdf.ok());
    t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    std::vector<double> probs(3, 0.2);
    probs[static_cast<size_t>((i + t.label) % 3)] = 0.6;
    auto cat = CategoricalPdf::Create(std::move(probs));
    UDT_CHECK(cat.ok());
    t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

ModelHandle MakeHandle(uint64_t seed) {
  return std::make_shared<const RegisteredModel>(
      RegisteredModel{"test", 1, TrainServable(seed)});
}

TEST(BatchingQueueTest, ResultsByteIdenticalToDirectSession) {
  Dataset pool = NumericDataset(48, 2, 7);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(1)), 1u);

  // Direct reference over the same artifact.
  ServeSession direct(registry.Resolve("prod")->servable);
  FlatBatchResult reference;
  ASSERT_TRUE(direct
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &reference)
                  .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  BatchingConfig config;
  config.max_batch = 16;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (const UncertainTuple& tuple : pool.tuples()) {
    futures.push_back(queue.Submit(&tuple));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.label, reference.labels[i]);
    ASSERT_EQ(result.distribution.size(), k);
    EXPECT_EQ(std::memcmp(result.distribution.data(),
                          reference.distribution(i).data(),
                          k * sizeof(double)),
              0);
    EXPECT_EQ(result.model_name, "prod");
    EXPECT_EQ(result.model_version, 1u);
  }
  queue.Close();
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, pool.tuples().size());
  EXPECT_EQ(stats.served, pool.tuples().size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(BatchingQueueTest, GatherBatchMatchesContiguousBatch) {
  // The pointer-span session entry point the queue drains through, checked
  // directly: scattered pointers vs the contiguous span, byte-identical.
  Dataset pool = NumericDataset(24, 2, 9);
  Servable servable = TrainServable(2);
  ServeSession session(servable);

  FlatBatchResult contiguous;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &contiguous)
                  .ok());

  // Reversed pointer order, so gather index != pool index.
  std::vector<const UncertainTuple*> ptrs;
  for (size_t i = pool.tuples().size(); i-- > 0;) {
    ptrs.push_back(&pool.tuples()[i]);
  }
  FlatBatchResult gathered;
  PredictOptions two_threads;
  two_threads.num_threads = 2;
  ASSERT_TRUE(session
                  .PredictBatchInto(std::span<const UncertainTuple* const>(
                                        ptrs.data(), ptrs.size()),
                                    two_threads, &gathered)
                  .ok());

  const size_t n = pool.tuples().size();
  const size_t k = static_cast<size_t>(contiguous.num_classes);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(gathered.distribution(i).data(),
                          contiguous.distribution(n - 1 - i).data(),
                          k * sizeof(double)),
              0);
    EXPECT_EQ(gathered.labels[i], contiguous.labels[n - 1 - i]);
  }
}

TEST(BatchingQueueTest, CoalescesConcurrentSubmitsIntoMicroBatches) {
  Dataset pool = NumericDataset(16, 2, 11);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(3)), 1u);

  BatchingConfig config;
  config.max_batch = 16;
  // A deadline far beyond the submission burst: a drain below max_batch
  // would need the machine to stall for a full second mid-test.
  config.max_delay_us = 1'000'000;
  BatchingQueue queue(&registry, "prod", config);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;  // 64 total = 4 full micro-batches
  std::vector<std::vector<std::future<ServeResult>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kPerClient; ++j) {
        futures[c].push_back(
            queue.Submit(&pool.tuple((c * kPerClient + j) % 16)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (auto& per_client : futures) {
    for (auto& future : per_client) {
      EXPECT_TRUE(future.get().status.ok());
    }
  }

  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 64u);
  EXPECT_LE(stats.drains,
            64u / 16u);  // <= ceil(N / max_batch) micro-batches
  EXPECT_LE(stats.max_drain, 16u);
  EXPECT_GE(stats.max_drain, 2u);  // something actually coalesced
  // Arrivals microseconds apart, far inside the window: no drain skips it.
  EXPECT_EQ(stats.unwindowed_drains, 0u);
}

TEST(BatchingQueueTest, TimeoutServesPartialBatch) {
  Dataset pool = NumericDataset(4, 2, 13);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(4)), 1u);

  BatchingConfig config;
  config.max_batch = 64;  // never filled by 3 requests
  config.max_delay_us = 2000;
  BatchingQueue queue(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(queue.Submit(&pool.tuple(i)));
  for (auto& future : futures) {
    // Completes via the max_delay deadline, long before any test timeout.
    EXPECT_TRUE(future.get().status.ok());
  }
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 3u);
  EXPECT_GE(stats.drains, 1u);
  EXPECT_LE(stats.max_drain, 3u);
}

TEST(BatchingQueueTest, CloseDrainsAdmittedThenRejects) {
  Dataset pool = NumericDataset(8, 2, 15);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(5)), 1u);

  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 10'000'000;  // 10s: only shutdown can drain these
  auto queue = std::make_unique<BatchingQueue>(&registry, "prod", config);

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(queue->Submit(&pool.tuple(i)));
  }
  queue->Close();  // must serve the 5 admitted requests, not strand them
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }

  ServeResult rejected = queue->Submit(&pool.tuple(5)).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kUnavailable);

  BatchingQueue::Stats stats = queue->stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.rejected, 1u);
  queue.reset();  // double-Close via destructor must be safe
}

TEST(BatchingQueueTest, BoundedAdmissionRejectsOverflowWithUnavailable) {
  Dataset pool = NumericDataset(8, 2, 17);
  GatedProvider gate(MakeHandle(6));

  BatchingConfig config;
  config.max_batch = 1;
  config.max_queue = 4;
  config.max_delay_us = 0;
  BatchingQueue queue(gate.AsProvider(), config);

  // First submit is taken by the drainer, which then parks inside the
  // gated provider — the pending queue is empty again.
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(queue.Submit(&pool.tuple(0)));
  gate.AwaitEntered(1);

  // Fill the admission bound while the drainer is parked...
  for (int i = 1; i <= 4; ++i) {
    futures.push_back(queue.Submit(&pool.tuple(i)));
  }
  EXPECT_EQ(queue.pending(), 4u);

  // ...and the next submit must shed load, immediately and inline.
  ServeResult overflow = queue.Submit(&pool.tuple(5)).get();
  EXPECT_EQ(overflow.status.code(), StatusCode::kUnavailable);

  gate.Open();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(BatchingQueueTest, NoLiveVersionFailsRequestsAsUnavailable) {
  Dataset pool = NumericDataset(4, 2, 19);
  ModelRegistry registry;  // nothing published
  BatchingConfig config;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  ServeResult result = queue.Submit(&pool.tuple(0)).get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(BatchingQueueTest, CallbackFormCompletesOnce) {
  Dataset pool = NumericDataset(4, 2, 21);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(8)), 1u);
  BatchingConfig config;
  config.max_delay_us = 500;
  BatchingQueue queue(&registry, "prod", config);

  std::promise<ServeResult> done;
  std::atomic<int> calls{0};
  queue.SubmitWithCallback(&pool.tuple(0), [&](ServeResult result) {
    ++calls;
    done.set_value(std::move(result));
  });
  ServeResult result = done.get_future().get();
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(calls.load(), 1);
}

// A max_delay_us too large to express as a clock deadline (INT64_MAX,
// "never") must saturate, not overflow into the past: the lone request
// stays pending until Close() serves it.
TEST(BatchingQueueTest, HugeMaxDelayNeverDrainsEarly) {
  Dataset pool = NumericDataset(4, 2, 41);
  ModelHandle handle = MakeHandle(41);
  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = std::numeric_limits<int64_t>::max();
  BatchingQueue queue([handle] { return handle; }, config);

  std::future<ServeResult> future = queue.Submit(&pool.tuple(0));
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(2)),
            std::future_status::timeout);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.stats().drains, 0u);

  queue.Close();
  EXPECT_TRUE(future.get().status.ok());
  EXPECT_EQ(queue.stats().served, 1u);
}

// The deadline is a floor while the smoothed admission gap is under the
// window: a lone request in a window that max_batch never fills is not
// served before max_delay_us has passed since it was submitted. A cold
// queue's smoothed gap starts at 0, and three closed-loop submits raise it
// only to ~1/8 and ~15/64 of their ~2 ms spacing, under the 2 ms window.
TEST(BatchingQueueTest, DeadlineIsAFloor) {
  Dataset pool = NumericDataset(4, 2, 43);
  ModelHandle handle = MakeHandle(43);
  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 2000;
  BatchingQueue queue([handle] { return handle; }, config);

  for (int i = 0; i < 3; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    ServeResult result = queue.Submit(&pool.tuple(i)).get();
    const auto waited = std::chrono::steady_clock::now() - begin;
    ASSERT_TRUE(result.status.ok());
    EXPECT_GE(waited, std::chrono::microseconds(2000));
  }
}

// A closed-loop client that pauses 3 ms between requests never has
// company within a 2 ms window. Once the smoothed gap (gain 1/8) climbs
// past the window — after about nine gaps — its drains skip the window.
TEST(BatchingQueueTest, SparseStreamSkipsTheWindow) {
  Dataset pool = NumericDataset(16, 2, 51);
  ModelHandle handle = MakeHandle(51);
  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 2000;
  BatchingQueue queue([handle] { return handle; }, config);

  for (int i = 0; i < 16; ++i) {
    ServeResult result = queue.Submit(&pool.tuple(i)).get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 16u);
  EXPECT_EQ(stats.drains, 16u);
  EXPECT_GT(stats.unwindowed_drains, 0u);
  EXPECT_LT(stats.unwindowed_drains, stats.drains);  // the cold ones waited
}

// After an idle stretch the smoothed gap sits far above the window, so
// the next drain skips it — but that drain still takes everything that
// arrived while the previous batch ran. The drainer is held inside the
// gated provider with the first request; the idle stretch and a burst of
// five follow; once released it serves the five in one unwindowed drain.
TEST(BatchingQueueTest, BurstAfterIdleStretchStillCoalesces) {
  Dataset pool = NumericDataset(8, 2, 55);
  GatedProvider gate(MakeHandle(55));
  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 2000;
  BatchingQueue queue(gate.AsProvider(), config);

  // Cold queue: the first request waits out its window, then parks the
  // drainer in the gate.
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(queue.Submit(&pool.tuple(0)));
  gate.AwaitEntered(1);
  EXPECT_EQ(queue.stats().unwindowed_drains, 0u);

  // A 100 ms gap lifts the smoothed gap to >= 12.5 ms; four quick gaps
  // after it leave >= 12.5 * (7/8)^4 ~ 7.3 ms, still above the 2 ms window.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 1; i <= 5; ++i) futures.push_back(queue.Submit(&pool.tuple(i)));
  EXPECT_EQ(queue.pending(), 5u);

  gate.Open();
  for (auto& future : futures) EXPECT_TRUE(future.get().status.ok());
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.served, 6u);
  EXPECT_EQ(stats.drains, 2u);
  EXPECT_EQ(stats.max_drain, 5u);
  EXPECT_EQ(stats.unwindowed_drains, 1u);
}

// Under a "never" window (INT64_MAX) no smoothed gap, however sparse the
// stream, skips it: the comparison must not overflow into "sparse".
TEST(BatchingQueueTest, SparseStretchNeverSkipsAHugeWindow) {
  Dataset pool = NumericDataset(4, 2, 57);
  ModelHandle handle = MakeHandle(57);
  BatchingConfig config;
  config.max_batch = 2;
  config.max_delay_us = std::numeric_limits<int64_t>::max();
  BatchingQueue queue([handle] { return handle; }, config);

  // Two requests 30 ms apart fill one batch; the gap lifts the smoothed
  // gap to ~3.75 ms.
  std::future<ServeResult> first = queue.Submit(&pool.tuple(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::future<ServeResult> second = queue.Submit(&pool.tuple(1));
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_TRUE(second.get().status.ok());

  // Another 30 ms of silence, then a lone request into an empty queue: it
  // must wait for company, not drain alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::future<ServeResult> lone = queue.Submit(&pool.tuple(2));
  EXPECT_EQ(lone.wait_for(std::chrono::milliseconds(5)),
            std::future_status::timeout);
  EXPECT_EQ(queue.pending(), 1u);

  queue.Close();
  EXPECT_TRUE(lone.get().status.ok());
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.drains, 2u);
  EXPECT_EQ(stats.unwindowed_drains, 0u);
}

#ifdef __linux__
// Completions run on the drainer, which sets its own timer slack to 1 ns
// so timed waits are not pushed past the deadline by the 50 µs default.
TEST(BatchingQueueTest, DrainerRunsWithFineTimerSlack) {
  Dataset pool = NumericDataset(4, 2, 45);
  ModelHandle handle = MakeHandle(45);
  BatchingConfig config;
  config.max_delay_us = 100;
  BatchingQueue queue([handle] { return handle; }, config);

  std::promise<int> slack;
  queue.SubmitWithCallback(&pool.tuple(0), [&slack](ServeResult) {
    slack.set_value(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
  });
  const int slack_ns = slack.get_future().get();
  EXPECT_GT(slack_ns, 0);
  EXPECT_LE(slack_ns, 1000);
}
#endif

// A rejected request completes inline, exactly once, on the caller's
// thread: the future is ready when Submit returns, the callback has run
// before SubmitWithCallback returns.
void ExpectRejectedInline(BatchingQueue& queue, const UncertainTuple* tuple) {
  std::future<ServeResult> future = queue.Submit(tuple);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status.code(), StatusCode::kUnavailable);

  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  std::thread::id ran_on;
  StatusCode code = StatusCode::kOk;
  queue.SubmitWithCallback(tuple, [&](ServeResult result) {
    ++calls;
    ran_on = std::this_thread::get_id();
    code = result.status.code();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(code, StatusCode::kUnavailable);
}

TEST(BatchingQueueTest, RejectionsCompleteInlineExactlyOnce) {
  Dataset pool = NumericDataset(4, 2, 47);
  GatedProvider gate(MakeHandle(47));
  BatchingConfig config;
  config.max_batch = 1;
  config.max_queue = 1;
  config.max_delay_us = 0;
  BatchingQueue queue(gate.AsProvider(), config);

  // Full: the drainer parks in the gate holding the first request, the
  // second fills the admission bound.
  std::future<ServeResult> first = queue.Submit(&pool.tuple(0));
  gate.AwaitEntered(1);
  std::future<ServeResult> second = queue.Submit(&pool.tuple(1));
  ASSERT_EQ(queue.pending(), 1u);
  ExpectRejectedInline(queue, &pool.tuple(2));

  gate.Open();
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_TRUE(second.get().status.ok());

  // Closed.
  queue.Close();
  ExpectRejectedInline(queue, &pool.tuple(3));

  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.served, 2u);
  EXPECT_EQ(stats.rejected, 4u);
}

// Future and callback requests interleaved in one drain: each completes
// once and matches the direct session byte for byte.
TEST(BatchingQueueTest, MixedFormsShareOneDrain) {
  Dataset pool = NumericDataset(8, 2, 49);
  ModelHandle handle = MakeHandle(49);
  ServeSession direct(handle->servable);
  FlatBatchResult reference;
  ASSERT_TRUE(direct
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &reference)
                  .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  BatchingConfig config;
  config.max_batch = 8;
  config.max_delay_us = 60'000'000;  // only the full batch drains
  BatchingQueue queue([handle] { return handle; }, config);

  std::vector<std::future<ServeResult>> futures(8);
  std::vector<std::promise<ServeResult>> callbacks(8);
  std::vector<std::atomic<int>> calls(8);
  for (size_t i = 0; i < 8; ++i) {
    const UncertainTuple* tuple = &pool.tuple(static_cast<int>(i));
    if (i % 2 == 0) {
      futures[i] = queue.Submit(tuple);
      continue;
    }
    futures[i] = callbacks[i].get_future();
    auto done = [&callbacks, &calls, i](ServeResult result) {
      calls[i].fetch_add(1);
      callbacks[i].set_value(std::move(result));
    };
    queue.SubmitWithCallback(tuple, std::move(done));
  }
  for (size_t i = 0; i < 8; ++i) {
    ServeResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.label, reference.labels[i]);
    ASSERT_EQ(result.distribution.size(), k);
    EXPECT_EQ(std::memcmp(result.distribution.data(),
                          reference.distribution(i).data(),
                          k * sizeof(double)),
              0);
    if (i % 2 == 1) {
      EXPECT_EQ(calls[i].load(), 1);
    }
  }
  queue.Close();
  BatchingQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.drains, 1u);
  EXPECT_EQ(stats.max_drain, 8u);
  EXPECT_EQ(stats.served, 8u);
}

// The reuse contracts the queue (and any serving loop) recycles result
// buffers under.
TEST(BatchingQueueTest, TopKOrdersClassesByProbabilityTiesToLowestId) {
  ModelHandle handle = MakeHandle(31);
  BatchingConfig config;
  config.predict.top_k = 3;
  BatchingQueue queue([handle] { return handle; }, config);

  Dataset pool = NumericDataset(24, 2, 32);
  for (const UncertainTuple& tuple : pool.tuples()) {
    ServeResult result = queue.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.top_classes.size(), 3u);
    EXPECT_EQ(result.top_classes[0], result.label);
    for (size_t i = 1; i < result.top_classes.size(); ++i) {
      const int prev = result.top_classes[i - 1];
      const int cur = result.top_classes[i];
      const double p_prev = result.distribution[static_cast<size_t>(prev)];
      const double p_cur = result.distribution[static_cast<size_t>(cur)];
      // Strictly descending probability; equal probabilities must come
      // out in ascending class-id order.
      EXPECT_TRUE(p_prev > p_cur || (p_prev == p_cur && prev < cur))
          << "rank " << i << ": class " << prev << " (p=" << p_prev
          << ") before class " << cur << " (p=" << p_cur << ")";
    }
  }
}

TEST(BatchingQueueTest, AbstainFlagHonoursConfiguredThreshold) {
  ModelHandle handle = MakeHandle(33);
  BatchingConfig config;
  config.predict.abstain_threshold = 0.99;
  BatchingQueue queue([handle] { return handle; }, config);

  Dataset pool = NumericDataset(32, 2, 34);
  int abstained = 0;
  for (const UncertainTuple& tuple : pool.tuples()) {
    ServeResult result = queue.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.abstained, result.confidence < 0.99);
    // The label is still reported — abstention is advice, not censorship.
    EXPECT_GE(result.label, 0);
    if (result.abstained) ++abstained;
  }
  EXPECT_EQ(queue.stats().served, 32u);
  (void)abstained;  // data-dependent; the per-result invariant is the test
}

TEST(BatchingQueueTest, ResponseTapSeesOkResponsesButNeverShedOnes) {
  GatedProvider gate(MakeHandle(35));
  BatchingConfig config;
  config.max_batch = 1;
  config.max_queue = 2;
  std::atomic<int> tapped{0};
  config.response_tap = [&tapped](const ServeResult& result) {
    ASSERT_TRUE(result.status.ok());
    ASSERT_FALSE(result.distribution.empty());
    tapped.fetch_add(1, std::memory_order_relaxed);
  };
  BatchingQueue queue(gate.AsProvider(), config);

  Dataset pool = NumericDataset(4, 2, 36);
  // First submit is taken by the drainer, which then parks inside the
  // closed provider; the next two fill the bounded queue.
  auto f0 = queue.Submit(&pool.tuple(0));
  gate.AwaitEntered(1);
  auto f1 = queue.Submit(&pool.tuple(1));
  auto f2 = queue.Submit(&pool.tuple(2));
  // Admission is full: this one is shed and must never reach the tap.
  ServeResult shed = queue.Submit(&pool.tuple(3)).get();
  EXPECT_FALSE(shed.status.ok());

  gate.Open();
  EXPECT_TRUE(f0.get().status.ok());
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  queue.Close();
  EXPECT_EQ(tapped.load(), 3);
  EXPECT_EQ(queue.stats().rejected, 1u);
}

TEST(ResultReuseTest, FlatBatchResultClearLeavesNoTraceOfPreviousBatch) {
  Dataset pool = NumericDataset(16, 2, 25);
  Servable servable = TrainServable(10);
  ServeSession session(servable);

  FlatBatchResult flat;
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(),
                                                      pool.tuples().size()),
                      PredictOptions{}, &flat)
                  .ok());
  ASSERT_EQ(flat.size(), pool.tuples().size());
  ASSERT_GT(flat.num_classes, 0);

  flat.Clear();
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_TRUE(flat.distributions.empty());
  EXPECT_EQ(flat.num_classes, 0);

  // A recycled buffer serves a smaller batch with no stale rows visible.
  ASSERT_TRUE(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(), 3),
                      PredictOptions{}, &flat)
                  .ok());
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.distributions.size(),
            3u * static_cast<size_t>(flat.num_classes));
}

// The queue's completions run on the drainer thread; callers that need to
// rendezvous with one use exactly the udt::Mutex/CondVar idiom the queue
// itself is built on (common/mutex.h). This case drives both wrapper
// outcomes end to end against a live queue: WaitFor must report false
// while the drainer is still holding the request (10s deadline, batch
// never fills), then true once Close() forces the drain and the callback
// notifies.

TEST(BatchingQueueTest, CallbackRendezvousExercisesCondVarTimeoutAndWake) {
  Dataset pool = NumericDataset(4, 2, 27);
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", TrainServable(12)), 1u);

  BatchingConfig config;
  config.max_batch = 64;
  config.max_delay_us = 10'000'000;  // 10s: only Close() can drain this
  BatchingQueue queue(&registry, "prod", config);

  Mutex mu;
  CondVar cv;
  bool served UDT_GUARDED_BY(mu) = false;
  Status served_status UDT_GUARDED_BY(mu);
  queue.SubmitWithCallback(&pool.tuple(0), [&](ServeResult result) {
    MutexLock lock(&mu);
    served = true;
    served_status = result.status;
    cv.NotifyOne();
  });

  {
    MutexLock lock(&mu);
    // Nothing can have served yet: the wrapper's timeout path must fire.
    EXPECT_FALSE(cv.WaitFor(lock, std::chrono::microseconds(2000)));
    EXPECT_FALSE(served);
  }

  queue.Close();  // drains the admitted request -> callback -> NotifyOne
  {
    MutexLock lock(&mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!served) {
      ASSERT_TRUE(cv.WaitUntil(lock, deadline)) << "callback never ran";
    }
    EXPECT_TRUE(served_status.ok());
  }
}

// A malformed request must fail alone: `corrupt` turns a copy of a valid
// tuple into one the mixed schema rejects. The bad request and a valid one
// share one drain (max_batch 2, no deadline); the bad one gets
// InvalidArgument, the valid one is served byte-identically to a direct
// session, and the queue keeps serving afterwards. The session's batch
// entry point rejects the same tuple with InvalidArgument too.
template <typename Corrupt>
void ExpectMalformedRequestFailsAlone(Corrupt corrupt) {
  Dataset pool = MixedDataset(90, 31);
  auto model = Trainer().TrainUdt(pool);
  ASSERT_TRUE(model.ok());
  ModelRegistry registry;
  ASSERT_EQ(registry.Publish("prod", model->Compile()), 1u);

  ServeSession direct(registry.Resolve("prod")->servable);
  FlatBatchResult reference;
  ASSERT_TRUE(direct
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(pool.tuples().data(), 2),
                      PredictOptions{}, &reference)
                  .ok());
  const size_t k = static_cast<size_t>(reference.num_classes);

  UncertainTuple bad = pool.tuple(0);
  corrupt(&bad);
  const UncertainTuple* bad_ptr = &bad;
  FlatBatchResult rejected;
  EXPECT_EQ(direct
                .PredictBatchInto(
                    std::span<const UncertainTuple* const>(&bad_ptr, 1),
                    PredictOptions{}, &rejected)
                .code(),
            StatusCode::kInvalidArgument);

  BatchingConfig config;
  config.max_batch = 2;
  config.max_delay_us = 60'000'000;
  BatchingQueue queue(&registry, "prod", config);
  std::future<ServeResult> bad_future = queue.Submit(&bad);
  std::future<ServeResult> good_future = queue.Submit(&pool.tuple(0));
  ServeResult bad_result = bad_future.get();
  EXPECT_EQ(bad_result.status.code(), StatusCode::kInvalidArgument)
      << bad_result.status.ToString();
  ServeResult good = good_future.get();
  ASSERT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(std::memcmp(good.distribution.data(),
                        reference.distribution(0).data(), k * sizeof(double)),
            0);
  EXPECT_EQ(queue.stats().drains, 1u);

  // The drainer survived: the next request is served (on Close).
  std::future<ServeResult> next_future = queue.Submit(&pool.tuple(1));
  queue.Close();
  ServeResult next = next_future.get();
  ASSERT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_EQ(std::memcmp(next.distribution.data(),
                        reference.distribution(1).data(), k * sizeof(double)),
            0);
}

TEST(MalformedRequestTest, WrongAttributeCountFailsAlone) {
  ExpectMalformedRequestFailsAlone(
      [](UncertainTuple* tuple) { tuple->values.pop_back(); });
}

TEST(MalformedRequestTest, NumericalValueInCategoricalColumnFailsAlone) {
  ExpectMalformedRequestFailsAlone([](UncertainTuple* tuple) {
    tuple->values[1] = UncertainValue::Numerical(SampledPdf::PointMass(1.0));
  });
}

TEST(MalformedRequestTest, NarrowCategoricalPdfFailsAlone) {
  ExpectMalformedRequestFailsAlone([](UncertainTuple* tuple) {
    auto narrow = CategoricalPdf::Create({0.5, 0.5});
    UDT_CHECK(narrow.ok());
    tuple->values[1] = UncertainValue::Categorical(std::move(*narrow));
  });
}

}  // namespace
}  // namespace serve
}  // namespace udt
