// DriftMonitor + RetrainController unit contracts.
//
// Monitor: Page–Hinkley over error/confidence signals is a pure function
// of the observation sequence — deterministic firing index, warmup floor,
// post-event cooldown, baseline anchoring from OOB error.
//
// Controller: ring-window feedback assembly, deterministic holdout split,
// publish-through-registry, rollback on regression, tuple-count schedule,
// warm start and the storage spill path.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/forest.h"
#include "common/random.h"
#include "pdf/pdf_builder.h"
#include "serve/model_registry.h"
#include "storage/dataset_file.h"
#include "stream/drift_monitor.h"
#include "stream/retrain_controller.h"

namespace udt {
namespace stream {
namespace {

// -------------------------------------------------------------- monitor

DriftMonitorOptions TightOptions() {
  DriftMonitorOptions options;
  options.delta = 0.05;
  options.lambda = 1.0;
  options.baseline_weight = 10;
  options.min_observations = 5;
  options.cooldown = 100;
  return options;
}

// Feeds `flawless` correct observations then errors until an event fires
// (or `limit` observations pass); returns the firing index or -1.
int64_t FireIndex(DriftMonitor& monitor, int flawless, int limit) {
  for (int i = 0; i < flawless; ++i) {
    if (monitor.Observe(0, 0, 0.95).has_value()) return -2;  // early fire
  }
  for (int i = flawless; i < limit; ++i) {
    auto event = monitor.Observe(0, 1, 0.95);
    if (event.has_value()) {
      EXPECT_EQ(event->kind, DriftKind::kErrorRate);
      EXPECT_GT(event->statistic, event->threshold);
      EXPECT_EQ(event->observation, i + 1);
      return event->observation;
    }
  }
  return -1;
}

TEST(DriftMonitorTest, FiresDeterministicallyAfterInjectedShift) {
  DriftMonitor a(TightOptions());
  DriftMonitor b(TightOptions());
  a.Reset(0.0);
  b.Reset(0.0);

  const int64_t fired_a = FireIndex(a, 40, 200);
  const int64_t fired_b = FireIndex(b, 40, 200);
  // The shift is detected, after the shift, within a tight window, and at
  // the exact same observation on a replay.
  ASSERT_GT(fired_a, 40);
  EXPECT_LT(fired_a, 60);
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(a.events_fired(), 1);
}

TEST(DriftMonitorTest, WarmupSuppressesEarlyEvents) {
  DriftMonitorOptions options = TightOptions();
  options.min_observations = 30;
  DriftMonitor monitor(options);
  monitor.Reset(0.0);
  // All-error traffic from the first observation: nothing may fire before
  // the warmup floor, however loud the signal.
  for (int i = 0; i < 29; ++i) {
    EXPECT_FALSE(monitor.Observe(0, 1, 0.9).has_value()) << "obs " << i;
  }
  EXPECT_GE(monitor.error_observations(), 29);
}

TEST(DriftMonitorTest, CooldownAbsorbsFollowOnEvents) {
  DriftMonitorOptions options = TightOptions();
  options.cooldown = 25;
  DriftMonitor monitor(options);
  monitor.Reset(0.0);
  const int64_t fired = FireIndex(monitor, 10, 100);
  ASSERT_GT(fired, 0);
  // The same sustained shift must stay silent through the cooldown.
  for (int i = 0; i < 25; ++i) {
    EXPECT_FALSE(monitor.Observe(0, 1, 0.9).has_value()) << "obs " << i;
  }
}

TEST(DriftMonitorTest, BaselineAnchoringAbsorbsTheKnownErrorRate) {
  // A stream erring at the rate the baseline promised is not drift.
  DriftMonitorOptions options = TightOptions();
  options.baseline_weight = 64;
  DriftMonitor anchored(options);
  anchored.Reset(0.5);
  bool fired = false;
  for (int i = 0; i < 400 && !fired; ++i) {
    const int actual = i % 2;  // alternating: exactly 50% error
    fired = anchored.Observe(0, actual, 0.7).has_value();
  }
  EXPECT_FALSE(fired);

  // The same stream against a 0-error anchor is a textbook shift.
  DriftMonitor cold(options);
  cold.Reset(0.0);
  fired = false;
  for (int i = 0; i < 400 && !fired; ++i) {
    fired = cold.Observe(0, i % 2, 0.7).has_value();
  }
  EXPECT_TRUE(fired);

  // NaN (the OOB "no estimate" sentinel) anchors at 0 instead of
  // poisoning the running mean.
  DriftMonitor nan_anchor(options);
  nan_anchor.Reset(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan_anchor.Observe(0, 0, 0.9).has_value());
}

TEST(DriftMonitorTest, ConfidenceSignalFiresWithoutLabels) {
  DriftMonitor monitor(TightOptions());
  monitor.Reset(0.05);
  for (int i = 0; i < 40; ++i) {
    ASSERT_FALSE(monitor.ObserveConfidence(0.95).has_value());
  }
  // Confidence collapse: the unlabeled tap path must detect it alone.
  std::optional<DriftEvent> event;
  for (int i = 0; i < 100 && !event.has_value(); ++i) {
    event = monitor.ObserveConfidence(0.2);
  }
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, DriftKind::kConfidence);
  EXPECT_EQ(monitor.confidence_observations(), event->observation);
}

// ----------------------------------------------------------- controller

Dataset TwoClassDataset(int tuples, uint64_t seed, double flip = 0.0) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(2, {"neg", "pos"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    const int truth = i % 2;
    t.label = rng.Uniform01() < flip ? 1 - truth : truth;
    for (int j = 0; j < 2; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(truth == 0 ? -2.0 : 2.0, 0.6), 0.8, 5);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

ForestTrainer SmallForestTrainer() {
  ForestConfig config;
  config.num_trees = 3;
  config.seed = 5;
  return ForestTrainer(config);
}

TEST(RetrainControllerTest, BootstrapPublishesGenerationOne) {
  serve::ModelRegistry registry;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer());
  auto report = controller.Bootstrap(TwoClassDataset(60, 1));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->published);
  EXPECT_EQ(report->version, 1u);
  EXPECT_EQ(controller.incumbent_version(), 1u);
  ASSERT_NE(controller.incumbent(), nullptr);
  EXPECT_GT(report->oob.evaluated_tuples, 0);
  EXPECT_EQ(controller.incumbent_oob_error(), report->oob.error);
  ASSERT_NE(registry.Resolve("prod"), nullptr);

  // Bootstrap is the first publish only.
  EXPECT_FALSE(controller.Bootstrap(TwoClassDataset(60, 2)).ok());
}

TEST(RetrainControllerTest, WindowEvictsOldestAndGatesRetrain) {
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.window_capacity = 8;
  policy.min_window = 6;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer(), policy);
  ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(60, 3)).ok());

  EXPECT_FALSE(controller.CanRetrain());
  EXPECT_FALSE(controller.Retrain("manual").ok());

  const Dataset feed = TwoClassDataset(20, 4);
  for (const UncertainTuple& t : feed.tuples()) {
    ASSERT_TRUE(controller.AddLabeled(t).ok());
  }
  EXPECT_EQ(controller.window_size(), 8);
  EXPECT_TRUE(controller.CanRetrain());

  // Schema guards.
  UncertainTuple bad = feed.tuple(0);
  bad.label = 7;
  EXPECT_FALSE(controller.AddLabeled(bad).ok());
  UncertainTuple narrow = feed.tuple(0);
  narrow.values.pop_back();
  EXPECT_FALSE(controller.AddLabeled(narrow).ok());
}

TEST(RetrainControllerTest, RetrainPublishesAndScheduleResets) {
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.window_capacity = 64;
  policy.min_window = 24;
  policy.schedule_every = 30;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer(), policy);
  ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(60, 5)).ok());

  const Dataset feed = TwoClassDataset(30, 6);
  for (int i = 0; i < feed.num_tuples(); ++i) {
    EXPECT_FALSE(controller.ScheduleDue());
    ASSERT_TRUE(controller.AddLabeled(feed.tuple(i)).ok());
  }
  EXPECT_TRUE(controller.ScheduleDue());

  auto report = controller.Retrain("schedule");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->published);
  EXPECT_EQ(report->version, 2u);
  EXPECT_EQ(report->reason, "schedule");
  EXPECT_GT(report->holdout_tuples, 0);
  EXPECT_EQ(controller.generations(), 2);
  EXPECT_EQ(controller.labeled_since_publish(), 0);
  EXPECT_FALSE(controller.ScheduleDue());
  ASSERT_NE(registry.Resolve("prod"), nullptr);
  EXPECT_EQ(registry.Resolve("prod")->version, 2u);
}

TEST(RetrainControllerTest, RollbackKeepsTheIncumbentUntouched) {
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.window_capacity = 80;
  policy.min_window = 40;
  policy.holdout_fraction = 0.25;  // stride 4: i % 4 == 3 is held out
  policy.max_regression = 0.02;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer(), policy);
  ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(80, 7)).ok());
  const uint64_t incumbent_version = controller.incumbent_version();
  const ForestModel* incumbent = controller.incumbent();

  // Poison exactly the training side of the deterministic split: holdout
  // positions keep true labels (the incumbent aces them), training
  // positions are label-flipped (the candidate learns the inversion).
  const Dataset clean = TwoClassDataset(80, 8);
  for (int i = 0; i < clean.num_tuples(); ++i) {
    UncertainTuple t = clean.tuple(i);
    if (i % 4 != 3) t.label = 1 - t.label;
    ASSERT_TRUE(controller.AddLabeled(std::move(t)).ok());
  }

  auto report = controller.Retrain("drift");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->rolled_back);
  EXPECT_FALSE(report->published);
  EXPECT_LT(report->candidate_accuracy,
            report->incumbent_accuracy - policy.max_regression);
  // Nothing moved: same generation serving, no new registry version.
  EXPECT_EQ(controller.incumbent_version(), incumbent_version);
  EXPECT_EQ(controller.incumbent(), incumbent);
  EXPECT_EQ(registry.Versions("prod").size(), 1u);
}

TEST(RetrainControllerTest, WarmStartCarriesIncumbentTrees) {
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.window_capacity = 48;
  policy.min_window = 32;
  policy.warm_trees = 2;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer(), policy);
  ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(60, 9)).ok());
  std::vector<std::string> carried;
  for (int t = 0; t < policy.warm_trees; ++t) {
    carried.push_back(controller.incumbent()->tree(t).Serialize());
  }

  const Dataset feed = TwoClassDataset(40, 10);
  for (const UncertainTuple& t : feed.tuples()) {
    ASSERT_TRUE(controller.AddLabeled(t).ok());
  }
  auto report = controller.Retrain("manual");
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->published);
  for (int t = 0; t < policy.warm_trees; ++t) {
    EXPECT_EQ(controller.incumbent()->tree(t).Serialize(), carried[t])
        << "carried tree " << t;
  }
}

TEST(RetrainControllerTest, SpillPathTrainsOutOfCore) {
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.window_capacity = 48;
  policy.min_window = 32;
  policy.spill_to_storage = true;
  policy.spill_path =
      std::string(::testing::TempDir()) + "/retrain_spill.udt";
  policy.spill_options.chunk_tuples = 8;
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}),
                               SmallForestTrainer(), policy);
  ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(60, 11)).ok());

  const Dataset feed = TwoClassDataset(40, 12);
  for (const UncertainTuple& t : feed.tuples()) {
    ASSERT_TRUE(controller.AddLabeled(t).ok());
  }
  auto report = controller.Retrain("drift");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->published);
  EXPECT_EQ(report->version, 2u);
  EXPECT_EQ(registry.Resolve("prod")->version, 2u);

  // The spilled container holds exactly the training split.
  auto spilled = DatasetReader::Open(policy.spill_path);
  ASSERT_TRUE(spilled.ok()) << spilled.status().message();
  EXPECT_EQ(spilled->num_tuples(),
            report->window_tuples - report->holdout_tuples);
}

TEST(RetrainControllerTest, SpilledBootstrapTrainsOnExactlyTheDecodedFile) {
  // The spill is ConvertDatasetToFile, DatasetReader::Open and
  // MaterializeDataset, then the ordinary in-memory request: a spilled
  // bootstrap must be byte-identical to those calls made by hand.
  serve::ModelRegistry registry;
  RetrainPolicy policy;
  policy.spill_to_storage = true;
  policy.spill_path =
      std::string(::testing::TempDir()) + "/retrain_spill_bytes.udt";
  policy.spill_options.chunk_tuples = 8;
  const ForestTrainer trainer = SmallForestTrainer();
  RetrainController controller(&registry, "prod",
                               Schema::Numerical(2, {"neg", "pos"}), trainer,
                               policy);
  const Dataset seed = TwoClassDataset(60, 13);
  ASSERT_TRUE(controller.Bootstrap(seed).ok());
  ASSERT_NE(controller.incumbent(), nullptr);

  const std::string path =
      std::string(::testing::TempDir()) + "/retrain_spill_by_hand.udt";
  ASSERT_TRUE(ConvertDatasetToFile(seed, path, policy.spill_options).ok());
  auto reader = DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  auto decoded = MaterializeDataset(&*reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  TrainRequest request = TrainRequest::For(*decoded);
  request.seed = trainer.config().seed;
  auto by_hand = trainer.Train(request);
  ASSERT_TRUE(by_hand.ok()) << by_hand.status().message();
  EXPECT_EQ(controller.incumbent()->Serialize(), by_hand->Serialize());

  // The spill is really taken: the exact seed data trains a different
  // forest than its quantized round trip.
  auto exact = trainer.TrainUdt(seed);
  ASSERT_TRUE(exact.ok());
  EXPECT_NE(controller.incumbent()->Serialize(), exact->Serialize());
  std::remove(path.c_str());
  std::remove(policy.spill_path.c_str());
}

TEST(RetrainControllerTest, SpilledRetrainPublishesTheSameForestAtEveryWidth) {
  // The spill runs column-parallel at the width the forest trains at; the
  // published forest must not depend on it.
  std::vector<std::string> bootstrapped;
  std::vector<std::string> retrained;
  for (int threads : {1, 4}) {
    serve::ModelRegistry registry;
    RetrainPolicy policy;
    policy.window_capacity = 48;
    policy.min_window = 32;
    policy.spill_to_storage = true;
    policy.spill_path = std::string(::testing::TempDir()) +
                        "/retrain_spill_width_" + std::to_string(threads) +
                        ".udt";
    policy.spill_options.chunk_tuples = 8;
    ForestConfig config;
    config.num_trees = 3;
    config.seed = 5;
    config.num_threads = threads;
    RetrainController controller(&registry, "prod",
                                 Schema::Numerical(2, {"neg", "pos"}),
                                 ForestTrainer(config), policy);
    ASSERT_TRUE(controller.Bootstrap(TwoClassDataset(60, 11)).ok());
    bootstrapped.push_back(controller.incumbent()->Serialize());

    const Dataset feed = TwoClassDataset(40, 12);
    for (const UncertainTuple& t : feed.tuples()) {
      ASSERT_TRUE(controller.AddLabeled(t).ok());
    }
    auto report = controller.Retrain("drift");
    ASSERT_TRUE(report.ok()) << report.status().message();
    ASSERT_TRUE(report->published);
    retrained.push_back(controller.incumbent()->Serialize());
    std::remove(policy.spill_path.c_str());
  }
  EXPECT_EQ(bootstrapped[0], bootstrapped[1]);
  EXPECT_EQ(retrained[0], retrained[1]);
}

TEST(RetrainControllerTest, PolicyValidation) {
  RetrainPolicy policy;
  policy.min_window = 1;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetrainPolicy{};
  policy.holdout_fraction = 1.0;
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetrainPolicy{};
  policy.spill_to_storage = true;  // no path
  EXPECT_FALSE(policy.Validate().ok());
  policy = RetrainPolicy{};
  EXPECT_TRUE(policy.Validate().ok());
}

}  // namespace
}  // namespace stream
}  // namespace udt
