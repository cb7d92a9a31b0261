// Work-count oracle: the `BuildStats` fields that count work — nodes,
// leaves, subtrees collapsed by post-pruning and every `SplitCounters`
// field — for fixed, seeded training runs of each split algorithm and of a
// small forest. The paper compares UDT with its pruned searches by the
// number of entropy calculations (its Fig. 7); `model_digest_test` pins the
// bytes a build writes, this test pins the work it does to write them, so a
// change that keeps every byte but prunes less fails here.
//
// Each count is checked at 1 and 4 threads: the parallel build merges the
// per-thread counters, and the totals must not depend on the schedule.

#include <gtest/gtest.h>

#include <string>

#include "api/forest.h"
#include "api/trainer.h"
#include "common/string_util.h"
#include "core/builder.h"
#include "datagen/uci_like.h"
#include "table/uncertainty_injector.h"

namespace udt {
namespace {

// Every work count of one build, in this order: nodes, leaves, subtrees
// collapsed; then the SplitCounters fields in declaration order —
// dispersion evaluations, bound evaluations, candidates pruned, intervals
// total, and intervals pruned empty, homogeneous, linear and by bound.
std::string WorkCounts(const BuildStats& stats) {
  const SplitCounters& c = stats.counters;
  return StrFormat("%d %d %d %lld %lld %lld %lld %lld %lld %lld %lld",
                   stats.nodes, stats.leaves, stats.subtrees_collapsed,
                   static_cast<long long>(c.dispersion_evaluations),
                   static_cast<long long>(c.bound_evaluations),
                   static_cast<long long>(c.candidates_pruned),
                   static_cast<long long>(c.intervals_total),
                   static_cast<long long>(c.intervals_pruned_empty),
                   static_cast<long long>(c.intervals_pruned_homogeneous),
                   static_cast<long long>(c.intervals_pruned_linear),
                   static_cast<long long>(c.intervals_pruned_by_bound));
}

// Glass-shaped (Table 2) data with Gaussian error pdfs of width 10% of
// each attribute's range and s = 12 samples, as in `model_digest_test`.
Dataset Glass() {
  auto spec = datagen::FindUciSpec("Glass");
  UDT_CHECK(spec.ok());
  UncertaintyOptions options;
  options.width_fraction = 0.10;
  options.samples_per_pdf = 12;
  options.error_model = ErrorModel::kGaussian;
  auto data =
      InjectUncertainty(datagen::MakeUciLikePointData(*spec, 1.0), options);
  UDT_CHECK(data.ok());
  return std::move(data).value();
}

const int kThreadCounts[] = {1, 4};

TEST(WorkCountTest, EverySplitAlgorithm) {
  const Dataset data = Glass();
  struct Want {
    SplitAlgorithm algorithm;
    const char* counts;
  };
  const Want wants[] = {
      {SplitAlgorithm::kAvg, "33 17 2 7623 0 0 7623 0 0 0 0"},
      {SplitAlgorithm::kUdt, "81 41 15 170742 0 0 28576 0 0 0 0"},
      {SplitAlgorithm::kUdtBp, "81 41 15 116021 0 54721 28576 0 10293 0 0"},
      {SplitAlgorithm::kUdtLp,
       "81 41 15 43403 12990 127339 28576 0 10293 0 11348"},
      {SplitAlgorithm::kUdtGp,
       "81 41 15 29465 12990 141277 28576 0 10293 0 12876"},
      {SplitAlgorithm::kUdtEs, "81 41 15 7855 4317 162887 6333 0 1270 0 3736"},
  };
  for (const Want& want : wants) {
    const ModelKind kind = want.algorithm == SplitAlgorithm::kAvg
                               ? ModelKind::kAveraging
                               : ModelKind::kUdt;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(SplitAlgorithmToString(want.algorithm));
      SCOPED_TRACE(threads);
      TreeConfig config;
      config.algorithm = want.algorithm;
      config.num_threads = threads;
      BuildStats stats;
      TrainRequest request = TrainRequest::For(data, kind);
      request.stats = &stats;
      ASSERT_TRUE(Trainer(config).Train(request).ok());
      EXPECT_EQ(WorkCounts(stats), want.counts);
    }
  }
}

TEST(WorkCountTest, BaggedForest) {
  const Dataset data = Glass();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ForestConfig config;
    config.num_trees = 3;
    config.seed = 17;
    config.num_threads = threads;
    BuildStats stats;
    ASSERT_TRUE(ForestTrainer(config).TrainUdt(data, nullptr, &stats).ok());
    EXPECT_EQ(WorkCounts(stats),
              "159 81 27 13764 7250 240986 11119 0 2554 0 6138");
  }
}

}  // namespace
}  // namespace udt
