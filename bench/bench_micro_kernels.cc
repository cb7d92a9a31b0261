// google-benchmark microbenchmarks of the kernels that dominate tree
// construction and serving: CDF queries, scan construction, entropy
// scoring, interval bounding, working-set partitioning, uncertain
// classification, the thread scaling of the parallel construction engine,
// and the flat-tree traversal kernels.
//
// Machine-readable output: unless --benchmark_out is given, results are
// also written as google-benchmark JSON to BENCH_micro_kernels.json so
// kernel timings can be tracked as a trajectory across commits. The
// flat-traversal sweep additionally writes bench_common JsonRows to
// BENCH_micro_batch_kernels.json (--json=PATH overrides, --json=
// disables) with best-of and median ns/tuple per pool, model kind and
// batch size; tools/check_bench_schema.py diffs it against the committed
// sidecar in CI. While timing, the sweep re-checks that every kernel pass
// is byte-identical to the pointer tree on every tuple.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "api/compiled_forest.h"
#include "api/predict_session.h"
#include "api/trainer.h"
#include "bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/uci_like.h"
#include "pdf/pdf_builder.h"
#include "split/attribute_scan.h"
#include "split/bounds.h"
#include "split/fractional_tuple.h"
#include "table/uncertainty_injector.h"
#include "tree/classify.h"
#include "tree/flat_tree.h"

namespace udt {
namespace {

Dataset BenchDataset(int tuples, int attributes, int s, uint64_t seed) {
  Rng rng(seed);
  Dataset ds(Schema::Numerical(attributes, {"A", "B", "C"}));
  for (int i = 0; i < tuples; ++i) {
    UncertainTuple t;
    t.label = i % 3;
    for (int j = 0; j < attributes; ++j) {
      auto pdf = MakeGaussianErrorPdf(
          rng.Gaussian(static_cast<double>(t.label), 1.0), 1.0, s);
      t.values.push_back(UncertainValue::Numerical(std::move(*pdf)));
    }
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

void BM_PdfBuildGaussian(benchmark::State& state) {
  int s = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto pdf = MakeGaussianErrorPdf(1.0, 0.5, s);
    benchmark::DoNotOptimize(pdf);
  }
}
BENCHMARK(BM_PdfBuildGaussian)->Arg(20)->Arg(100)->Arg(400);

void BM_CdfQuery(benchmark::State& state) {
  auto pdf = MakeGaussianErrorPdf(0.0, 2.0, static_cast<int>(state.range(0)));
  UDT_CHECK(pdf.ok());
  double z = -0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdf->CdfAtOrBelow(z));
    z = -z;
  }
}
BENCHMARK(BM_CdfQuery)->Arg(20)->Arg(100)->Arg(400);

void BM_ScanBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 1, 20, 1);
  WorkingSet set = MakeRootWorkingSet(ds);
  const AttributeIndex index = AttributeIndex::Build(ds);
  for (auto _ : state) {
    AttributeScan scan = AttributeScan::Build(ds, index, set, 0, 3);
    benchmark::DoNotOptimize(scan.num_positions());
  }
}
BENCHMARK(BM_ScanBuild)->Arg(50)->Arg(200)->Arg(800);

void BM_EntropyScore(benchmark::State& state) {
  SplitScorer scorer(DispersionMeasure::kEntropy, {10.0, 20.0, 30.0});
  std::vector<double> left = {3.0, 8.0, 5.0};
  std::vector<double> right = {7.0, 12.0, 25.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(left, right));
  }
}
BENCHMARK(BM_EntropyScore);

void BM_IntervalBound(benchmark::State& state) {
  IntervalMassStats stats;
  stats.nc = {3.0, 8.0, 5.0};
  stats.kc = {1.0, 2.0, 0.5};
  stats.mc = {7.0, 12.0, 25.0};
  SplitScorer scorer(DispersionMeasure::kEntropy, {11.0, 22.0, 30.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreLowerBound(scorer, stats));
  }
}
BENCHMARK(BM_IntervalBound);

void BM_PartitionWorkingSet(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 1, 20, 2);
  WorkingSet set = MakeRootWorkingSet(ds);
  WorkingSet left, right;
  for (auto _ : state) {
    PartitionWorkingSet(ds, set, 0, 1.0, &left, &right);
    benchmark::DoNotOptimize(left.size() + right.size());
  }
}
BENCHMARK(BM_PartitionWorkingSet)->Arg(100)->Arg(400);

void BM_ClassifyUncertainTuple(benchmark::State& state) {
  Dataset ds = BenchDataset(200, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  const UncertainTuple& tuple = ds.tuple(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->ClassifyDistribution(tuple));
  }
}
BENCHMARK(BM_ClassifyUncertainTuple);

void BM_PredictBatch(benchmark::State& state) {
  Dataset ds = BenchDataset(512, 4, 16, 3);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  auto model = Trainer(config).TrainUdt(ds);
  UDT_CHECK(model.ok());
  // A long-lived session, as a serving worker would hold: the flat
  // traversal runs out of reusable scratch, so the steady state is
  // allocation-free per tuple.
  PredictSession session(model->Compile());
  PredictOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  FlatBatchResult result;
  for (auto _ : state) {
    UDT_CHECK(session
                  .PredictBatchInto(
                      std::span<const UncertainTuple>(ds.tuples().data(),
                                                      ds.tuples().size()),
                      options, &result)
                  .ok());
    benchmark::DoNotOptimize(result.labels.data());
  }
  state.SetItemsProcessed(state.iterations() * ds.num_tuples());
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TreeBuild(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 4, 16, 4);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  for (auto _ : state) {
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
  }
}
BENCHMARK(BM_TreeBuild)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

// Thread scaling of the construction engine. The Arg is
// TreeConfig::num_threads; the Arg(1) run must come first (registration
// order) because it provides the serial baseline the other runs report
// their "speedup" counter against. The tree is bitwise-identical at every
// arg; only the wall clock may move.
void BM_TreeBuildThreads(benchmark::State& state) {
  static Dataset ds = BenchDataset(300, 6, 14, 5);
  TreeConfig config;
  config.algorithm = SplitAlgorithm::kUdtEs;
  config.num_threads = static_cast<int>(state.range(0));
  double total_seconds = 0.0;
  for (auto _ : state) {
    WallTimer timer;
    BuildStats stats;
    auto tree = TreeBuilder(config).Build(ds, &stats);
    benchmark::DoNotOptimize(tree.ok());
    total_seconds += timer.ElapsedSeconds();
  }
  double mean_seconds =
      state.iterations() > 0
          ? total_seconds / static_cast<double>(state.iterations())
          : 0.0;
  static double serial_mean_seconds = 0.0;
  if (state.range(0) == 1) serial_mean_seconds = mean_seconds;
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  // Only report a speedup when the serial baseline ran in this process;
  // under --benchmark_filter that excludes Arg(1) the counter would
  // otherwise poison the JSON trajectory with zeros.
  if (mean_seconds > 0.0 && serial_mean_seconds > 0.0) {
    state.counters["speedup"] =
        benchmark::Counter(serial_mean_seconds / mean_seconds);
  }
}
BENCHMARK(BM_TreeBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------- flat traversal ------------------------------

#ifndef UDT_BENCH_BUILD_TYPE
#define UDT_BENCH_BUILD_TYPE "unknown"
#endif

// One traversal fixture: a tuple pool plus a UDT-ES tree of each model
// kind, compiled. Fixtures live for the whole process so every benchmark
// and the JSON sweep measure the same models.
struct TraversalFixture {
  std::string name;
  Dataset pool;
  std::vector<Model> models;            // UDT, then AVG
  std::vector<CompiledForest> compiled;  // index-aligned with models
};

TraversalFixture MakeTraversalFixture(std::string name, const Dataset& train,
                                      Dataset pool) {
  TraversalFixture fixture{std::move(name), std::move(pool), {}, {}};
  for (ModelKind kind : {ModelKind::kUdt, ModelKind::kAveraging}) {
    TreeConfig config;
    config.algorithm = SplitAlgorithm::kUdtEs;
    config.num_threads = 0;
    auto model = Trainer(config).Train(TrainRequest::For(train, kind));
    UDT_CHECK(model.ok());
    fixture.compiled.push_back(model->Compile());
    fixture.models.push_back(*std::move(model));
  }
  return fixture;
}

// A Segment-shaped fixture, as the end-to-end benchmark serves it: 19
// attributes, 7 classes, Gaussian pdfs over 10% of the domain with s = 20;
// the tree trains on 2310 tuples and classifies 770 others.
TraversalFixture SegmentFixture() {
  auto spec = datagen::FindUciSpec("Segment");
  UDT_CHECK(spec.ok());
  datagen::SyntheticConfig config = datagen::MakeUciLikeConfig(*spec, 1.0);
  config.num_tuples = 2310 + 770;
  UncertaintyOptions uncertainty;
  uncertainty.width_fraction = 0.10;
  uncertainty.samples_per_pdf = 20;
  uncertainty.error_model = ErrorModel::kGaussian;
  auto data =
      InjectUncertainty(datagen::GenerateSynthetic(config), uncertainty);
  UDT_CHECK(data.ok());
  std::vector<int> fold_of(static_cast<size_t>(data->num_tuples()));
  for (size_t i = 0; i < fold_of.size(); ++i) fold_of[i] = i % 4 == 3;
  auto [train, pool] = data->SplitByFold(fold_of, 1);
  return MakeTraversalFixture("segment", train, std::move(pool));
}

// The two pools: 512 tuples x 4 numerical attributes, and Segment. They
// disagree about the UDT kernel's single-tuple cost, so both are swept.
const std::vector<TraversalFixture>& TraversalFixtures() {
  static const std::vector<TraversalFixture> fixtures = [] {
    std::vector<TraversalFixture> all;
    Dataset pool4 = BenchDataset(512, 4, 16, 6);
    all.push_back(MakeTraversalFixture("pool4", pool4, pool4));
    all.push_back(SegmentFixture());
    return all;
  }();
  return fixtures;
}

// One pass over the pool through the model kind's one flat kernel: the
// UDT kernel in blocks of `batch` tuples (batch 1 is the single-tuple
// path), or the AVG means walk tuple by tuple.
double ClassifyPoolOnce(const FlatTree& flat, bool averaging, size_t batch,
                        const std::vector<const UncertainTuple*>& tuples,
                        const std::vector<double*>& rows,
                        FlatTraversalScratch* scratch) {
  const size_t n = tuples.size();
  WallTimer timer;
  if (averaging) {
    for (size_t i = 0; i < n; ++i) {
      ClassifyFlatMeans(flat, *tuples[i], scratch, rows[i]);
    }
  } else {
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t count = std::min(batch, n - begin);
      ClassifyFlatBatch(flat, tuples.data() + begin, rows.data() + begin,
                        count, scratch);
    }
  }
  return timer.ElapsedSeconds();
}

// Row storage and the kernels' pointer arrays over one fixture's pool.
struct PoolRows {
  explicit PoolRows(const TraversalFixture& fixture) {
    const size_t n = static_cast<size_t>(fixture.pool.num_tuples());
    k = static_cast<size_t>(fixture.pool.num_classes());
    storage.resize(n * k);
    tuples.resize(n);
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      tuples[i] = &fixture.pool.tuple(static_cast<int>(i));
      rows[i] = storage.data() + i * k;
    }
  }
  size_t k = 0;
  std::vector<double> storage;
  std::vector<const UncertainTuple*> tuples;
  std::vector<double*> rows;
};

// ns/tuple of the flat kernels. Args: {pool, batch}, pool 0 = pool4,
// 1 = segment; batch 0 is the AVG means walk, batch >= 1 the UDT kernel in
// blocks of that many tuples (1 = the single-tuple path). Distributions
// are byte-identical to the pointer tree at every arg
// (tests/traversal_differential_test.cc); only the wall clock may move.
void BM_FlatTraversal(benchmark::State& state) {
  const TraversalFixture& fixture =
      TraversalFixtures()[static_cast<size_t>(state.range(0))];
  const size_t batch = static_cast<size_t>(state.range(1));
  const bool averaging = batch == 0;
  const FlatTree& flat = fixture.compiled[averaging ? 1 : 0].tree(0);
  PoolRows pool(fixture);
  FlatTraversalScratch scratch;
  double total_seconds = 0.0;
  for (auto _ : state) {
    total_seconds += ClassifyPoolOnce(flat, averaging, batch, pool.tuples,
                                      pool.rows, &scratch);
    benchmark::DoNotOptimize(pool.storage.data());
    benchmark::ClobberMemory();
  }
  const double tuples = static_cast<double>(state.iterations()) *
                        static_cast<double>(pool.tuples.size());
  state.SetItemsProcessed(static_cast<int64_t>(tuples));
  state.counters["batch"] = benchmark::Counter(static_cast<double>(batch));
  if (tuples > 0.0) {
    state.counters["ns_per_tuple"] =
        benchmark::Counter(total_seconds * 1e9 / tuples);
  }
}
BENCHMARK(BM_FlatTraversal)
    ->ArgsProduct({{0, 1}, {0, 1, 7, 64, 256}});

// The sidecar sweep behind BENCH_micro_batch_kernels.json: per pool and
// model kind, classify the pool through the kind's one flat kernel and
// prove every row byte-identical to the pointer-tree oracle, then report
// best-of and median ns/tuple over the repetitions. UDT rows cover
// batches 1 / 7 / 64 / 256; the AVG means walk is per tuple. Runs outside
// google-benchmark so the row set is fixed (the schema checker keys on
// it) regardless of --benchmark_filter.
void RunBatchKernelSweep(bench::JsonRows* sink) {
  constexpr int kRepetitions = 21;
  constexpr size_t kUdtBatches[] = {1, 7, 64, 256};
  constexpr size_t kAvgBatches[] = {1};

  std::printf("flat traversal sweep (%s build): %d repetitions, "
              "best-of / median\n",
              UDT_BENCH_BUILD_TYPE, kRepetitions);
  for (const TraversalFixture& fixture : TraversalFixtures()) {
    for (size_t m = 0; m < fixture.models.size(); ++m) {
      const Model& model = fixture.models[m];
      const bool averaging = model.kind() == ModelKind::kAveraging;
      const FlatTree& flat = fixture.compiled[m].tree(0);
      PoolRows pool(fixture);
      const size_t n = pool.tuples.size();
      std::vector<double> oracle;
      oracle.reserve(n * pool.k);
      for (const UncertainTuple* tuple : pool.tuples) {
        std::vector<double> row = model.ClassifyDistribution(*tuple);
        oracle.insert(oracle.end(), row.begin(), row.end());
      }
      FlatTraversalScratch scratch;
      for (size_t batch : averaging ? std::span<const size_t>(kAvgBatches)
                                    : std::span<const size_t>(kUdtBatches)) {
        std::vector<double> ns(kRepetitions);
        for (double& sample : ns) {
          sample = ClassifyPoolOnce(flat, averaging, batch, pool.tuples,
                                    pool.rows, &scratch) *
                   1e9 / static_cast<double>(n);
          // The serving guarantee, re-checked under this build's
          // optimiser: every row byte-identical to the pointer tree.
          UDT_CHECK(std::memcmp(pool.storage.data(), oracle.data(),
                                n * pool.k * sizeof(double)) == 0);
        }
        std::sort(ns.begin(), ns.end());
        const double best = std::max(ns.front(), 1e-3);
        const double median = ns[ns.size() / 2];
        const char* kernel = averaging ? "avg" : "udt";
        std::printf("  %-8s %-4s batch=%-4zu  best %8.1f ns/tuple   median "
                    "%8.1f ns/tuple\n",
                    fixture.name.c_str(), kernel, batch, best, median);
        sink->AddRow()
            .Str("pool", fixture.name)
            .Str("kernel", kernel)
            .Str("batch", std::to_string(batch))
            .Str("build_type", UDT_BENCH_BUILD_TYPE)
            .Int("tuples", static_cast<long long>(n))
            .Int("nodes", flat.num_nodes())
            .Num("ns_per_tuple_best", best)
            .Num("ns_per_tuple_median", median);
      }
    }
  }
}

}  // namespace
}  // namespace udt

int main(int argc, char** argv) {
  // Default to a JSON sidecar for trajectory tracking; any explicit
  // --benchmark_out wins. A --json=PATH flag belongs to the traversal
  // sweep (bench_common JsonRows) and is stripped before google-benchmark
  // parses the rest.
  udt::BenchOptions sweep_options;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      sweep_options.json_path_set = true;
      sweep_options.json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  bool has_out = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::strncmp(args[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }

  // The traversal sweep runs first so its sidecar row set does not
  // depend on which BM_ benchmarks a filter selects.
  udt::bench::JsonRows sweep_sink("micro_batch_kernels", sweep_options);
  udt::RunBatchKernelSweep(&sweep_sink);
  sweep_sink.Flush();

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
