// AdaptiveServer end-to-end: the ISSUE 9 acceptance scenario. A seeded
// label-flip shift is injected at a known tuple index into an otherwise
// stationary stream; the loop must
//   * fire exactly one DriftEvent, inside a fixed observation window
//     after the injection point,
//   * retrain and hot-swap without a single dropped or torn response
//     (every post-swap answer is byte-identical to the pure retrained
//     artifact),
//   * converge to held-out accuracy within 2% of a forest trained
//     offline on the post-shift distribution.
// A concurrent-clients test drives submissions from multiple threads
// while feedback retrains — the TSan job runs this suite. Both retrain
// cases also require that the admission queue sheds nothing across a swap.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/random.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "stream/adaptive_server.h"

namespace udt {
namespace stream {
namespace {

// Distribution A: class 0 near -2, class 1 near +2. `flipped` swaps the
// feature/label association — the injected concept shift. Labels are
// seeded-random so stride-based holdout splits stay class-mixed.
Dataset MakeStream(int tuples, uint64_t seed, bool flipped) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(2, {"neg", "pos"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = static_cast<int>(rng.UniformInt(2));
    const int feature_class = flipped ? 1 - t.label : t.label;
    for (int j = 0; j < 2; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(feature_class == 0 ? -2.0 : 2.0, 0.5), 0.8, 5);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// Tuples a forest trained on the ±2 clusters cannot be confident about:
// one wide pdf spanning both clusters splits its mass across every split
// threshold, so per-tree distributions come out near-uniform.
Dataset MakeAmbiguous(int tuples) {
  Dataset ds(Schema::Numerical(2, {"neg", "pos"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = 0;
    for (int j = 0; j < 2; ++j) {
      auto pdf = MakeGaussianErrorPdf(0.0, 8.0, 9);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

ForestTrainer StreamTrainer() {
  ForestConfig config;
  config.num_trees = 5;
  config.seed = 21;
  return ForestTrainer(config);
}

AdaptiveServerOptions LoopOptions() {
  AdaptiveServerOptions options;
  options.batching.max_batch = 8;
  options.batching.max_delay_us = 100;
  // Labeled feedback only: the exact-event-count assertion must not race
  // against tap-side confidence observations.
  options.monitor_confidence_tap = false;
  options.drift.delta = 0.05;
  // High enough that detection happens only after the retrain window has
  // turned over to the post-shift distribution — the candidate the drift
  // trigger trains must not be a conflicted pre/post mix.
  options.drift.lambda = 48.0;
  options.drift.baseline_weight = 16;
  options.drift.min_observations = 8;
  options.drift.cooldown = 10000;
  options.retrain.window_capacity = 64;
  options.retrain.min_window = 32;
  options.retrain.holdout_fraction = 0.25;
  options.retrain.max_regression = 0.02;
  return options;
}

// Post-hoc oracle: every version ever published is still resolvable, so
// each response can be checked against the pure artifact of the version it
// reports. Maps each version to its classification of `pool`.
std::map<uint64_t, FlatBatchResult> ReferencesByVersion(
    const AdaptiveServer& server, const Dataset& pool) {
  const std::span<const UncertainTuple> tuples(pool.tuples());
  std::map<uint64_t, FlatBatchResult> references;
  for (uint64_t v : server.registry().Versions(server.model_name())) {
    serve::ModelHandle handle =
        server.registry().Resolve(server.model_name(), v);
    UDT_CHECK(handle != nullptr);
    serve::ServeSession session(handle->servable);
    FlatBatchResult& out = references[v];
    UDT_CHECK(session.PredictBatchInto(tuples, PredictOptions{}, &out).ok());
  }
  return references;
}

TEST(AdaptiveServerTest, DriftInjectionDetectsRetrainsAndHotSwaps) {
  constexpr int kPreShift = 100;
  const Dataset pre = MakeStream(kPreShift, 300, /*flipped=*/false);
  const Dataset post = MakeStream(200, 301, /*flipped=*/true);
  const Dataset post_test = MakeStream(80, 302, /*flipped=*/true);

  auto server_or = AdaptiveServer::Create(
      MakeStream(120, 299, /*flipped=*/false), StreamTrainer(),
      LoopOptions());
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  AdaptiveServer& server = *server_or.value();
  ASSERT_EQ(server.live_version(), 1u);
  ASSERT_EQ(server.generations(), 1);

  int64_t dropped = 0;
  std::optional<RetrainReport> drift_report;

  auto pump = [&](const Dataset& stream, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const UncertainTuple& tuple = stream.tuple(i);
      serve::ServeResult result = server.Submit(&tuple).get();
      if (!result.status.ok()) {
        ++dropped;
        continue;
      }
      auto fed = server.Feedback(tuple, tuple.label, result);
      ASSERT_TRUE(fed.ok()) << fed.status().ToString();
      if (fed->has_value() && !drift_report.has_value() &&
          (*fed)->reason == "drift") {
        drift_report = **fed;
      }
    }
  };

  // Stationary phase: the loop must stay quiet.
  pump(pre, 0, kPreShift);
  EXPECT_EQ(server.drift_log().size(), 0u);
  EXPECT_EQ(server.live_version(), 1u);

  // Injected shift: every label association flips at observation 100.
  pump(post, 0, post.num_tuples());

  // Exactly one event, a bounded distance after the injection point.
  const std::vector<DriftEvent> log = server.drift_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GT(log[0].observation, kPreShift + 30);
  EXPECT_LE(log[0].observation, kPreShift + 90);

  // ... and it actuated: retrained, validated, hot-swapped.
  ASSERT_TRUE(drift_report.has_value());
  EXPECT_TRUE(drift_report->published);
  EXPECT_EQ(drift_report->reason, "drift");
  EXPECT_GE(server.live_version(), 2u);
  EXPECT_GE(server.generations(), 2);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(server.queue().stats().rejected, 0u);

  // By now the window is fully post-shift; converge on it so the serving
  // artifact is a pure post-shift generation.
  auto converge = server.ForceRetrain("converge");
  ASSERT_TRUE(converge.ok()) << converge.status().ToString();
  ASSERT_TRUE(converge->published);
  const uint64_t live = server.live_version();

  // Post-swap byte-identity: responses must replay the published artifact
  // exactly, distribution for distribution.
  serve::ModelHandle handle =
      server.registry().Resolve(server.model_name(), live);
  ASSERT_NE(handle, nullptr);
  serve::ServeSession reference(handle->servable);
  FlatBatchResult flat;
  ASSERT_TRUE(reference
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(
                          post_test.tuples().data(),
                          post_test.tuples().size()),
                      PredictOptions{}, &flat)
                  .ok());
  const size_t k = static_cast<size_t>(flat.num_classes);
  int adaptive_correct = 0;
  for (int i = 0; i < post_test.num_tuples(); ++i) {
    serve::ServeResult result = server.Submit(&post_test.tuple(i)).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.model_version, live);
    ASSERT_EQ(result.distribution.size(), k);
    EXPECT_EQ(std::memcmp(result.distribution.data(),
                          flat.distribution(static_cast<size_t>(i)).data(),
                          k * sizeof(double)),
              0)
        << "torn response for tuple " << i;
    if (result.label == post_test.tuple(i).label) ++adaptive_correct;
  }
  const double adaptive_accuracy =
      static_cast<double>(adaptive_correct) / post_test.num_tuples();

  // Accuracy parity with an offline forest trained on the post-shift
  // distribution (same config, same training-set size as the window).
  const Dataset offline_train = MakeStream(64, 303, /*flipped=*/true);
  auto offline = StreamTrainer().Train(TrainRequest::For(offline_train));
  ASSERT_TRUE(offline.ok());
  const double offline_accuracy = EvaluateAccuracy(*offline, post_test);
  EXPECT_GE(adaptive_accuracy, offline_accuracy - 0.02)
      << "adaptive " << adaptive_accuracy << " vs offline "
      << offline_accuracy;

  // The whole run logged exactly the one injected-shift event.
  EXPECT_EQ(server.drift_log().size(), 1u);
}

TEST(AdaptiveServerTest, TapParksConfidenceDriftUntilFeedbackActsOnIt) {
  AdaptiveServerOptions options = LoopOptions();
  options.monitor_confidence_tap = true;
  options.drift.lambda = 3.0;
  options.retrain.min_window = 32;
  // This test exercises the parked-trigger plumbing, not validation:
  // never roll the drift-triggered candidate back.
  options.retrain.max_regression = 1.0;

  auto server_or = AdaptiveServer::Create(
      MakeStream(120, 400, /*flipped=*/false), StreamTrainer(), options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  AdaptiveServer& server = *server_or.value();

  // Fill the retrain window with clean labeled traffic (high confidence:
  // neither detector moves).
  const Dataset clean = MakeStream(40, 401, /*flipped=*/false);
  for (const UncertainTuple& tuple : clean.tuples()) {
    serve::ServeResult result = server.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    auto fed = server.Feedback(tuple, tuple.label, result);
    ASSERT_TRUE(fed.ok());
    ASSERT_FALSE(fed->has_value());
  }
  ASSERT_EQ(server.drift_log().size(), 0u);

  // Unlabeled confidence collapse: wide-pdf tuples spanning both class
  // clusters. The tap sees the collapse and parks a confidence event —
  // no retrain can run on the drainer thread.
  const Dataset boundary = MakeAmbiguous(80);
  for (const UncertainTuple& tuple : boundary.tuples()) {
    serve::ServeResult result = server.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
  }
  ASSERT_GE(server.drift_log().size(), 1u);
  EXPECT_EQ(server.drift_log()[0].kind, DriftKind::kConfidence);
  EXPECT_EQ(server.generations(), 1);  // parked, not yet acted on

  // The next labeled feedback picks the parked trigger up and retrains.
  const UncertainTuple& tuple = clean.tuple(0);
  serve::ServeResult result = server.Submit(&tuple).get();
  ASSERT_TRUE(result.status.ok());
  auto fed = server.Feedback(tuple, tuple.label, result);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->has_value());
  EXPECT_EQ((*fed)->reason, "drift");
  EXPECT_EQ(server.generations(), 2);
}

TEST(AdaptiveServerTest, ConcurrentClientsSeeNoTornOrDroppedResponses) {
  AdaptiveServerOptions options = LoopOptions();
  options.retrain.schedule_every = 40;  // retrain mid-run without drift
  auto server_or = AdaptiveServer::Create(
      MakeStream(120, 500, /*flipped=*/false), StreamTrainer(), options);
  ASSERT_TRUE(server_or.ok());
  AdaptiveServer& server = *server_or.value();

  const Dataset pool = MakeStream(48, 501, /*flipped=*/false);
  constexpr int kClients = 2;
  constexpr int kPerClient = 150;

  struct Recorded {
    size_t tuple;
    uint64_t version;
    std::vector<double> distribution;
  };
  std::vector<std::vector<Recorded>> recorded(kClients);
  std::atomic<uint64_t> failed{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kPerClient; ++j) {
        const size_t i =
            (static_cast<size_t>(c) + static_cast<size_t>(j) * kClients) %
            pool.tuples().size();
        serve::ServeResult result =
            server.Submit(&pool.tuple(static_cast<int>(i))).get();
        if (!result.status.ok()) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        recorded[static_cast<size_t>(c)].push_back(
            {i, result.model_version, std::move(result.distribution)});
      }
    });
  }

  // Feedback thread: labeled traffic drives two scheduled retrains while
  // the clients hammer the queue.
  const Dataset labeled = MakeStream(96, 502, /*flipped=*/false);
  int published = 0;
  for (const UncertainTuple& tuple : labeled.tuples()) {
    serve::ServeResult result = server.Submit(&tuple).get();
    if (!result.status.ok()) continue;
    auto fed = server.Feedback(tuple, tuple.label, result);
    ASSERT_TRUE(fed.ok());
    if (fed->has_value() && (*fed)->published) ++published;
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GE(published, 1);
  EXPECT_EQ(failed.load(), 0u);

  EXPECT_EQ(server.queue().stats().rejected, 0u);

  const std::map<uint64_t, FlatBatchResult> references =
      ReferencesByVersion(server, pool);
  for (const auto& per_client : recorded) {
    for (const Recorded& r : per_client) {
      auto it = references.find(r.version);
      ASSERT_NE(it, references.end()) << "unknown version " << r.version;
      const size_t k = static_cast<size_t>(it->second.num_classes);
      ASSERT_EQ(r.distribution.size(), k);
      EXPECT_EQ(std::memcmp(r.distribution.data(),
                            it->second.distribution(r.tuple).data(),
                            k * sizeof(double)),
                0)
          << "torn response: tuple " << r.tuple << " version " << r.version;
    }
  }
}

// A retrain on the submitting thread sheds nothing: 32 submits stay in
// flight while ForceRetrain trains, publishes and swaps, and every one of
// them is served, OK, by the version it reports.
TEST(AdaptiveServerTest, SubmitsInFlightAcrossForcedRetrainAreAllServed) {
  AdaptiveServerOptions options = LoopOptions();
  // The forced retrain must publish, so no holdout gate.
  options.retrain.max_regression = 1.0;
  auto server_or = AdaptiveServer::Create(
      MakeStream(120, 600, /*flipped=*/false), StreamTrainer(), options);
  ASSERT_TRUE(server_or.ok());
  AdaptiveServer& server = *server_or.value();

  // Labeled feedback fills the retrain window.
  const Dataset labeled = MakeStream(64, 601, /*flipped=*/false);
  for (const UncertainTuple& tuple : labeled.tuples()) {
    serve::ServeResult result = server.Submit(&tuple).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_TRUE(server.Feedback(tuple, tuple.label, result).ok());
  }

  const Dataset pool = MakeStream(32, 602, /*flipped=*/false);
  std::vector<std::future<serve::ServeResult>> in_flight;
  in_flight.reserve(pool.tuples().size());
  for (const UncertainTuple& tuple : pool.tuples()) {
    in_flight.push_back(server.Submit(&tuple));
  }
  auto report = server.ForceRetrain("in-flight");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->published);

  std::vector<serve::ServeResult> results;
  results.reserve(in_flight.size());
  for (auto& future : in_flight) results.push_back(future.get());
  EXPECT_EQ(server.queue().stats().rejected, 0u);

  const std::map<uint64_t, FlatBatchResult> references =
      ReferencesByVersion(server, pool);
  for (size_t i = 0; i < results.size(); ++i) {
    const serve::ServeResult& r = results[i];
    ASSERT_TRUE(r.status.ok()) << "tuple " << i << ": " << r.status.ToString();
    auto it = references.find(r.model_version);
    ASSERT_NE(it, references.end()) << "unknown version " << r.model_version;
    const size_t k = static_cast<size_t>(it->second.num_classes);
    ASSERT_EQ(r.distribution.size(), k);
    EXPECT_EQ(std::memcmp(r.distribution.data(),
                          it->second.distribution(i).data(),
                          k * sizeof(double)),
              0)
        << "torn response: tuple " << i << " version " << r.model_version;
  }
}

}  // namespace
}  // namespace stream
}  // namespace udt
