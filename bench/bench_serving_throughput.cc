// Serving throughput: pointer traversal vs the compiled flat layout, for a
// single tree and for a bagged forest.
//
// Motivation (ROADMAP north star): at test time the distribution-based
// classifier's cost is dominated by tree traversal over pdf-valued inputs,
// so the serving path — not split search — is the hot loop of a deployed
// system, and an uncertain-data forest multiplies that cost by its
// ensemble size. This harness times steady-state batch classification of
// the same trained models through
//   * pointer:  Model / ForestModel::ClassifyDistribution over the
//               TreeNode graph (per-call scratch, one shard per worker
//               thread), and
//   * compiled: PredictSession::PredictBatchInto over the CompiledForest
//               struct-of-arrays layout (a tree compiles to a one-tree
//               forest; reusable scratch, zero allocations per tuple once
//               warm),
// at 1/2/4 worker threads, for both model kinds (UDT fractional
// propagation and AVG means traversal), on a numeric-only and a mixed
// numeric+categorical data set. The `model` dimension is a single tree or
// an 8-tree forest (25 with --full) whose rows also carry its out-of-bag
// estimate. Before timing, every configuration re-checks the serving
// guarantee: compiled distributions byte-identical to the pointer path.
//
// Output: one table row per configuration, and with --json=PATH one JSON
// row (bench_common JsonRows; the committed sidecar is
// BENCH_serving_throughput.json), with tuples/sec.
//
// Run: build/bench/bench_serving_throughput [--full] [--scale=F] [--s=N]
//      [--threads=N] [--json=PATH]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/compiled_forest.h"
#include "api/forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "pdf/pdf_builder.h"

namespace udt {
namespace {

Dataset MixedDataset(int tuples, int s, uint64_t seed) {
  Rng rng(seed);
  auto schema = Schema::Create(
      {
          {"x", AttributeKind::kNumerical, 0},
          {"channel", AttributeKind::kCategorical, 4},
          {"y", AttributeKind::kNumerical, 0},
          {"z", AttributeKind::kNumerical, 0},
      },
      {"a", "b", "c"});
  UDT_CHECK(schema.ok());
  Dataset ds(std::move(*schema));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (const char* which : {"x", "y", "z"}) {
      (void)which;
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(t.label * 1.0, 0.8), rng.Uniform(0.6, 1.2), s);
      UDT_CHECK(pdf.ok());
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
      if (t.values.size() == 1) {
        std::vector<double> probs(4, 0.15);
        probs[static_cast<size_t>((i + t.label) % 4)] = 0.55;
        auto cat = CategoricalPdf::Create(std::move(probs));
        UDT_CHECK(cat.ok());
        t.values.push_back(UncertainValue::Categorical(std::move(*cat)));
      }
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

// The pointer-path reference runner: per-tuple ClassifyDistribution of a
// Model or ForestModel over contiguous shards, i.e. exactly what
// batch prediction did before the serving API was compiled.
template <typename PointerModel>
void PointerBatch(const PointerModel& model, const Dataset& ds,
                  int num_threads, std::vector<std::vector<double>>* out) {
  const size_t n = static_cast<size_t>(ds.num_tuples());
  out->resize(n);
  auto classify_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      (*out)[i] = model.ClassifyDistribution(ds.tuple(static_cast<int>(i)));
    }
  };
  if (num_threads <= 1) {
    classify_range(0, n);
    return;
  }
  std::vector<std::thread> workers;
  const size_t per_shard = n / static_cast<size_t>(num_threads);
  const size_t remainder = n % static_cast<size_t>(num_threads);
  size_t begin = 0;
  for (int t = 0; t < num_threads; ++t) {
    const size_t len = per_shard + (static_cast<size_t>(t) < remainder ? 1 : 0);
    workers.emplace_back(classify_range, begin, begin + len);
    begin += len;
  }
  for (std::thread& worker : workers) worker.join();
}

struct Measurement {
  double seconds = 0.0;
  int repeats = 0;
};

// Runs `pass` once to warm up, then often enough to fill ~0.25s.
template <typename Pass>
Measurement TimePasses(Pass pass) {
  pass();  // warm-up: fault in scratch, settle allocator state
  WallTimer probe;
  pass();
  // Floor the probe at 1ns: on a coarse clock both reads can land in the
  // same tick, and casting 0.25/0.0 to int would be UB, not just wrong.
  double one = std::max(probe.ElapsedSeconds(), 1e-9);
  int repeats = std::clamp(static_cast<int>(std::ceil(0.25 / one)), 1, 200);
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) pass();
  return {timer.ElapsedSeconds(), repeats};
}

// What one configuration row records about the model under test.
struct ModelInfo {
  const char* dataset;
  const char* model;  // "tree" or "forest"
  const char* kind;   // "udt" or "avg"
  double train_seconds = 0.0;
  double compile_seconds = 0.0;
  const OobEstimate* oob = nullptr;  // forests only
};

// Re-checks compiled-vs-pointer byte identity, then times both paths at
// 1/2/4 threads and emits one row per (threads, path).
template <typename PointerModel>
void TimeModel(const ModelInfo& info, const PointerModel& model,
               const CompiledForest& compiled, const Dataset& serve,
               bench::JsonRows* sink) {
  const std::span<const UncertainTuple> tuples(serve.tuples().data(),
                                               serve.tuples().size());
  // The serving guarantee, re-checked in the harness itself: compiled
  // distributions byte-identical to the pointer path.
  std::vector<std::vector<double>> reference;
  PointerBatch(model, serve, 1, &reference);
  {
    PredictSession session(compiled);
    FlatBatchResult flat;
    UDT_CHECK(session.PredictBatchInto(tuples, {.num_threads = 1}, &flat).ok());
    const size_t k = static_cast<size_t>(compiled.num_classes());
    for (size_t i = 0; i < reference.size(); ++i) {
      UDT_CHECK(std::memcmp(flat.distribution(i).data(), reference[i].data(),
                            k * sizeof(double)) == 0);
    }
  }

  for (int threads : {1, 2, 4}) {
    std::vector<std::vector<double>> pointer_out;
    Measurement pointer = TimePasses(
        [&] { PointerBatch(model, serve, threads, &pointer_out); });

    PredictSession session(compiled);
    FlatBatchResult flat;
    Measurement flat_time = TimePasses([&] {
      UDT_CHECK(
          session.PredictBatchInto(tuples, {.num_threads = threads}, &flat)
              .ok());
    });

    const double n = static_cast<double>(serve.num_tuples());
    const double pointer_tps =
        n * pointer.repeats / std::max(pointer.seconds, 1e-12);
    const double compiled_tps =
        n * flat_time.repeats / std::max(flat_time.seconds, 1e-12);
    std::printf("%-8s %-6s %-4s trees=%-2d threads=%d  pointer %10.0f "
                "tuples/s   compiled %10.0f tuples/s   speedup %.2fx\n",
                info.dataset, info.model, info.kind, compiled.num_trees(),
                threads, pointer_tps, compiled_tps,
                compiled_tps / std::max(pointer_tps, 1e-12));

    for (const char* path : {"pointer", "compiled"}) {
      const bool is_compiled = std::strcmp(path, "compiled") == 0;
      bench::JsonRows::Row row = sink->AddRow();
      row.Str("dataset", info.dataset)
          .Str("model", info.model)
          .Str("model_kind", info.kind)
          .Str("path", path)
          .Int("trees", compiled.num_trees())
          .Int("threads", threads)
          .Int("tuples", serve.num_tuples())
          .Int("nodes", compiled.num_nodes())
          .Int("repeats", is_compiled ? flat_time.repeats : pointer.repeats)
          .Num("seconds", is_compiled ? flat_time.seconds : pointer.seconds)
          .Num("tuples_per_sec", is_compiled ? compiled_tps : pointer_tps)
          .Num("train_seconds", info.train_seconds)
          .Num("compile_seconds", info.compile_seconds);
      if (info.oob != nullptr) {
        row.Num("oob_error", info.oob->error)
            .Num("oob_coverage", info.oob->coverage);
      }
      row.Str("build_type", UDT_BENCH_BUILD_TYPE);
    }
  }
}

void RunDataset(const char* dataset_name, const Dataset& train,
                const Dataset& serve, int num_trees, bench::JsonRows* sink) {
  TreeConfig tree_config;
  tree_config.algorithm = SplitAlgorithm::kUdtEs;

  ForestConfig forest_config;
  forest_config.num_trees = num_trees;
  forest_config.seed = 42;
  forest_config.subspace_attributes = ForestConfig::kSubspaceSqrt;
  forest_config.tree = tree_config;

  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    ModelInfo info{dataset_name, "tree",
                   kind == ModelKind::kUdt ? "udt" : "avg", 0.0, 0.0,
                   nullptr};
    const TrainRequest request = TrainRequest::For(train, kind);

    WallTimer train_timer;
    auto model = Trainer(tree_config).Train(request);
    UDT_CHECK(model.ok());
    info.train_seconds = train_timer.ElapsedSeconds();
    WallTimer compile_timer;
    const CompiledForest compiled_tree = model->Compile();
    info.compile_seconds = compile_timer.ElapsedSeconds();
    TimeModel(info, *model, compiled_tree, serve, sink);

    info.model = "forest";
    OobEstimate oob;
    TrainRequest forest_request = request;
    forest_request.oob = &oob;
    train_timer.Reset();
    auto forest = ForestTrainer(forest_config).Train(forest_request);
    UDT_CHECK(forest.ok());
    info.train_seconds = train_timer.ElapsedSeconds();
    compile_timer.Reset();
    const CompiledForest compiled_forest = forest->Compile();
    info.compile_seconds = compile_timer.ElapsedSeconds();
    info.oob = &oob;
    std::printf("%-8s forest %-4s oob_error %.3f oob_coverage %.3f\n",
                dataset_name, info.kind, oob.error, oob.coverage);
    TimeModel(info, *forest, compiled_forest, serve, sink);
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  udt::BenchOptions options = udt::ParseBenchOptions(argc, argv);
  udt::bench::PrintBanner(
      "Serving throughput: pointer traversal vs compiled flat layout, "
      "tree and forest",
      "serving-path extension (not a paper figure); Section 3.2 traversal",
      options);
  udt::bench::JsonRows sink(options);

  const double scale = options.scale > 0.0 ? options.scale
                       : options.full      ? 1.0
                                           : 0.4;
  const int s = udt::bench::SamplesFor(options, 20);
  const int train_n = static_cast<int>(600 * scale);
  const int serve_n = static_cast<int>(1000 * scale);
  const int num_trees = options.full ? 25 : 8;

  std::printf("train %d tuples, serve %d tuples, s=%d per pdf, forests of "
              "%d trees\n\n",
              train_n, serve_n, s, num_trees);

  {
    udt::Dataset train = udt::bench::NumericDataset(train_n, 4, 3, s, 42);
    udt::Dataset serve = udt::bench::NumericDataset(serve_n, 4, 3, s, 1042);
    udt::RunDataset("numeric", train, serve, num_trees, &sink);
  }
  {
    udt::Dataset train = udt::MixedDataset(train_n, s / 2 + 1, 7);
    udt::Dataset serve = udt::MixedDataset(serve_n, s / 2 + 1, 1007);
    udt::RunDataset("mixed", train, serve, num_trees, &sink);
  }

  sink.Flush();
  return 0;
}
